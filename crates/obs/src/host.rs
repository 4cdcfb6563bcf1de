//! Cheap host provenance: hostname and detected CPU features.
//!
//! Wall-clock benchmark numbers are host-sensitive, so `BenchReport`s
//! stamp this into their JSON — `bench --compare` then refuses two
//! reports from different hosts instead of silently comparing apples
//! to oranges. Everything here is best-effort and cheap: no
//! subprocesses, no parsing of `/proc/cpuinfo`.

/// Host identity relevant to interpreting wall-clock measurements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HostInfo {
    /// Machine hostname (`"unknown"` when unavailable).
    pub hostname: String,
    /// Detected CPU features relevant to the workspace's dispatch
    /// decisions (e.g. `avx2` picks the QVStore argmax's AVX2 compile),
    /// sorted.
    pub cpu_features: Vec<String>,
}

impl HostInfo {
    /// The feature list joined with `+` (empty string when none).
    pub fn features_label(&self) -> String {
        self.cpu_features.join("+")
    }
}

/// Reads the hostname: `/proc/sys/kernel/hostname` on Linux, the
/// `HOSTNAME` environment variable otherwise, `"unknown"` as the
/// fallback.
pub fn hostname() -> String {
    if let Ok(name) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let name = name.trim();
        if !name.is_empty() {
            return name.to_string();
        }
    }
    match std::env::var("HOSTNAME") {
        Ok(name) if !name.trim().is_empty() => name.trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Runtime-detected CPU features the workspace's hot paths dispatch on
/// (the same detection `QvStore::new` performs to pick its argmax's AVX2
/// compile).
/// Empty on non-x86 targets.
pub fn cpu_features() -> Vec<String> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if std::arch::is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2".to_string());
        }
        if std::arch::is_x86_feature_detected!("avx") {
            features.push("avx".to_string());
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2".to_string());
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma".to_string());
        }
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The full provenance snapshot.
pub fn host_info() -> HostInfo {
    HostInfo {
        hostname: hostname(),
        cpu_features: cpu_features(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_is_nonempty_and_cheap() {
        let info = host_info();
        assert!(!info.hostname.is_empty());
        // Feature detection must agree with itself.
        assert_eq!(info.cpu_features, cpu_features());
        #[cfg(target_arch = "x86_64")]
        {
            let label = info.features_label();
            for f in &info.cpu_features {
                assert!(label.contains(f.as_str()));
            }
        }
    }
}
