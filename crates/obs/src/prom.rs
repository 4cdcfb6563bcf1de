//! Prometheus text exposition: [`render`] turns a [`Registry`] into text
//! and [`lint`] checks such text. The registry is the only input — a
//! number that is not a registered instrument cannot be exposed.
//!
//! The renderer emits the version-0.0.4 text format: `# HELP` / `# TYPE`
//! once per family, then one sample per line, histograms expanded into
//! cumulative `_bucket{le=...}` series plus `_sum` / `_count`. The
//! linter is what CI and the serve tests run against
//! `GET /metrics?format=prom` — it validates structure (HELP/TYPE
//! pairs, no duplicate families or samples, samples only under declared
//! families, cumulative buckets) and that every sample value is finite.

use std::fmt::Write;

use crate::logger::json_escape;
use crate::metrics::{Histogram, Instrument, Kind, Registry};

fn format_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", json_escape(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Emits a histogram's cumulative `_bucket` series plus `_sum` and
/// `_count`. `_count` is the last cumulative bucket of the same read, so
/// it equals `le="+Inf"` even while other threads record.
fn render_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        let le = if i < counts.len() - 1 {
            Histogram::bucket_bound(i).to_string()
        } else {
            "+Inf".to_string()
        };
        let mut all: Vec<(&str, &str)> = labels.to_vec();
        all.push(("le", &le));
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", format_labels(&all));
    }
    let labels = format_labels(labels);
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
    let _ = writeln!(out, "{name}_count{labels} {cumulative}");
}

/// Renders every family of a registry snapshot as Prometheus text.
pub fn render(registry: &Registry) -> String {
    let mut out = String::new();
    for family in registry.snapshot() {
        let name = &family.name;
        let kind = match family.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        };
        let help = family.help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for sample in &family.samples {
            let labels: Vec<(&str, &str)> = sample
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let value = match &sample.instrument {
                Instrument::Counter(c) => c.get().to_string(),
                Instrument::Gauge(g) => g.get().to_string(),
                Instrument::Histogram(h) => {
                    render_histogram(&mut out, name, &labels, h);
                    continue;
                }
            };
            let _ = writeln!(out, "{name}{} {value}", format_labels(&labels));
        }
    }
    out
}

/// Validates Prometheus text exposition. Returns every violation found
/// (empty = clean): duplicate family declarations, missing HELP/TYPE
/// pairs, invalid types, samples without a declared family, duplicate
/// samples, non-finite or unparseable values, and non-cumulative or
/// incomplete histogram bucket series.
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    // name -> (has_help, has_type, type)
    let mut families: Vec<(String, bool, bool, String)> = Vec::new();
    let mut samples_seen: Vec<String> = Vec::new();
    // (series key without le) -> (last cumulative, saw +Inf, inf value)
    let mut buckets: Vec<(String, u64, bool, u64)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();

    let family_entry = |families: &mut Vec<(String, bool, bool, String)>, name: &str| -> usize {
        match families.iter().position(|(n, ..)| n == name) {
            Some(i) => i,
            None => {
                families.push((name.to_string(), false, false, String::new()));
                families.len() - 1
            }
        }
    };

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            let i = family_entry(&mut families, name);
            if families[i].1 {
                errors.push(format!("line {lineno}: duplicate HELP for {name}"));
            }
            families[i].1 = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("line {lineno}: invalid TYPE {kind:?} for {name}"));
            }
            let i = family_entry(&mut families, name);
            if families[i].2 {
                errors.push(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            families[i].2 = true;
            families[i].3 = kind.to_string();
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => {
                errors.push(format!("line {lineno}: malformed sample {line:?}"));
                continue;
            }
        };
        let name = series.split('{').next().unwrap_or("").trim();
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => {
                // Histogram structural checks keyed by the series minus
                // its le label.
                let family = families.iter().find(|(n, ..)| {
                    n == name
                        || (name.ends_with("_bucket") && *n == name[..name.len() - 7])
                        || (name.ends_with("_sum") && *n == name[..name.len() - 4])
                        || (name.ends_with("_count") && *n == name[..name.len() - 6])
                });
                match family {
                    None => errors.push(format!(
                        "line {lineno}: sample {name} has no HELP/TYPE declaration"
                    )),
                    Some((fname, _, _, ftype)) => {
                        let suffixed = *fname != name;
                        if suffixed && ftype != "histogram" && ftype != "summary" {
                            errors.push(format!(
                                "line {lineno}: sample {name} has no HELP/TYPE declaration"
                            ));
                        }
                        if ftype == "histogram" && name.ends_with("_bucket") {
                            let le = series
                                .split("le=\"")
                                .nth(1)
                                .and_then(|s| s.split('"').next())
                                .unwrap_or("");
                            // Canonical series key: the le pair stripped,
                            // dangling separators and empty label sets
                            // cleaned up, so `h_bucket{route="x",le="1"}`
                            // and `h_count{route="x"}` key identically.
                            let key = series
                                .replace(&format!("le=\"{le}\""), "")
                                .replace(",}", "}")
                                .replace("{,", "{")
                                .replace("{}", "");
                            let c = v as u64;
                            match buckets.iter_mut().find(|(k, ..)| *k == key) {
                                Some(entry) => {
                                    if c < entry.1 {
                                        errors.push(format!(
                                            "line {lineno}: bucket series {name} is not cumulative"
                                        ));
                                    }
                                    entry.1 = c;
                                    if le == "+Inf" {
                                        entry.2 = true;
                                        entry.3 = c;
                                    }
                                }
                                None => buckets.push((key, c, le == "+Inf", c)),
                            }
                        }
                        if ftype == "histogram" && name.ends_with("_count") {
                            counts.push((series.to_string(), v as u64));
                        }
                    }
                }
            }
            Ok(v) => errors.push(format!("line {lineno}: non-finite sample value {v}")),
            Err(_) => errors.push(format!("line {lineno}: unparseable sample value {value:?}")),
        }
        if samples_seen.iter().any(|s| s == series) {
            errors.push(format!("line {lineno}: duplicate sample {series}"));
        }
        samples_seen.push(series.to_string());
    }

    for (name, has_help, has_type, _) in &families {
        if !has_help {
            errors.push(format!("family {name} has TYPE but no HELP"));
        }
        if !has_type {
            errors.push(format!("family {name} has HELP but no TYPE"));
        }
    }
    for (key, _, saw_inf, _) in &buckets {
        if !saw_inf {
            errors.push(format!("bucket series {key} has no le=\"+Inf\" bucket"));
        }
    }
    for (key, _, saw_inf, inf) in &buckets {
        // The +Inf bucket must agree with the exact matching _count
        // series (same label set minus le).
        if !saw_inf {
            continue;
        }
        let count_key = key.replace("_bucket", "_count");
        if let Some((_, c)) = counts.iter().find(|(k, _)| *k == count_key) {
            if inf != c {
                errors.push(format!(
                    "series {key}: le=\"+Inf\" bucket {inf} != _count {c}"
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn renders_counters_gauges_histograms_cleanly() {
        let r = Registry::new();
        r.counter_with(
            "http_requests_total",
            "Requests served.",
            &[("route", "metrics")],
        )
        .add(3);
        r.gauge("queue_depth", "Jobs queued.").set(2);
        let h = r.histogram("request_ns", "Request latency (ns).");
        for v in [10u64, 2000, 90_000] {
            h.record(v);
        }
        let text = render(&r);
        assert!(text.contains("# HELP http_requests_total Requests served.\n"));
        assert!(text.contains("# TYPE http_requests_total counter\n"));
        assert!(text.contains("http_requests_total{route=\"metrics\"} 3\n"));
        assert!(text.contains("queue_depth 2\n"));
        assert!(text.contains("request_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("request_ns_count 3\n"));
        assert!(text.contains("request_ns_sum 92010\n"));
        let errors = lint(&text);
        assert!(
            errors.is_empty(),
            "linter must pass the renderer: {errors:?}"
        );
    }

    /// A scrape must not tear: `_count` and `le="+Inf"` come from one
    /// bucket read, so the linter finds nothing while a thread records.
    #[test]
    fn render_lints_clean_while_another_thread_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let r = Registry::new();
        let h = r.histogram("busy_us", "Recorded while rendering.");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v);
                    v = v % 100_000 + 7;
                }
            });
            for i in 0..3_000 {
                let problems = lint(&render(&r));
                if !problems.is_empty() {
                    stop.store(true, Ordering::Relaxed);
                    panic!("render {i}: {problems:?}");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(h.count() > 0, "the recorder ran");
    }

    #[test]
    fn lint_catches_duplicate_families() {
        let text = "# HELP x a\n# TYPE x counter\n# HELP x again\n# TYPE x counter\nx 1\n";
        let errors = lint(text);
        assert!(
            errors.iter().any(|e| e.contains("duplicate HELP")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("duplicate TYPE")),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_catches_missing_pairs_and_undeclared_samples() {
        let errors = lint("# HELP lonely no type\nundeclared 4\n");
        assert!(
            errors.iter().any(|e| e.contains("has HELP but no TYPE")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("no HELP/TYPE declaration")),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_catches_bad_values_and_duplicates() {
        let text = "# HELP x a\n# TYPE x gauge\nx NaN\nx 1\nx 1\n";
        let errors = lint(text);
        assert!(
            errors.iter().any(|e| e.contains("non-finite")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("duplicate sample")),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_catches_non_cumulative_buckets() {
        let text = "# HELP h a\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        let errors = lint(text);
        assert!(
            errors.iter().any(|e| e.contains("not cumulative")),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_requires_inf_bucket() {
        let text = "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 5\nh_count 5\n";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.contains("+Inf")), "{errors:?}");
    }
}
