//! Golden-report pins for every figure-registry campaign.
//!
//! Each registered figure runs at a tiny `PYTHIA_BENCH_SCALE` and the
//! digest of its rendered result JSON (throughput telemetry stripped) is
//! compared against a checked-in golden value. Any change to the hot
//! paths — cache layout, QVStore storage, EQ indexing, trace decode —
//! that perturbs even one counter of one cell shows up as a digest
//! mismatch here, so performance rewrites cannot silently change results.
//! The figure's view (the paper-shaped markdown `pythia-cli sweep` appends)
//! is rendered from the same result and pinned beside it, so a change to a
//! pivot, a row order or a number format shows up too.
//!
//! The digests pin IEEE float arithmetic on the x86-64 CI target; when a
//! figure's definition (or an intentional semantic change) moves them,
//! regenerate with:
//!
//! ```text
//! PYTHIA_GOLDEN_PRINT=1 cargo test -q --test golden_reports -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use pythia_stats::json::Json;

/// Scale every figure runs at (budgets floor at 1 K warmup + 4 K measured
/// instructions per cell).
const SCALE: &str = "0.01";

/// Worker threads per figure: the engine's output is pinned byte-identical
/// for any thread count, so this only affects wall time.
const THREADS: usize = 4;

/// `(figure id, FNV-1a-64 digest of the stripped result JSON, FNV-1a-64
/// digest of the figure's rendered view)`.
///
/// Re-goldened for the workload-generator bugfixes (and extended with the
/// `robust01`–`robust03` campaigns): the `DeltaChain` page-crossing fix
/// (the delta index no longer resets, so every `cactusADM`/`leslie3d`-style
/// chain emits a different stream), the `SpatialFootprint` mid-visit noise
/// fix (`sphinx3`/`canneal`/`facesim` deviating visits now perturb region
/// learning), and the `Phased` phase-accounting fix (phases now last
/// `phase_len` memory records instead of ~10×, moving `server-2`) each
/// change trace content, so every figure containing an affected workload
/// moved. Only fig14 and fig15 — pure-Ligra figures built solely on
/// `IrregularGraph` — kept their previous digests, which is exactly the
/// expected blast radius.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("fig01", 0x26d1d2bb768e9506, 0x38166f80f173dced),
    ("fig07", 0x5c4d3cd503be1a0a, 0x3347e1edebaec4f1),
    ("fig08a", 0x47548df7ded3cac5, 0x0246a667bcbdbb90),
    ("fig08b", 0x96584179d85380fb, 0x9ff191cf27f47aea),
    ("fig08c", 0x53f86327eaf143e7, 0x21c4f76fc2c9c3b4),
    ("fig08d", 0x4ef027f623392632, 0x706204585a406cc4),
    ("fig09", 0x74f59f61f05013eb, 0x17a0a62d447d60b4),
    ("fig10", 0x5d3414014e66f389, 0x91f248abbdedb04c),
    ("fig11", 0xcddd16b054dd210f, 0x6669e9a3b5dfa90b),
    ("fig12", 0xd6e4f0ffecb06a06, 0xc443caca21020261),
    ("fig14", 0x29da07107a0d2523, 0xa8da77ac09ddd825),
    ("fig15", 0x258d9e8a365538bd, 0x536b4ca64308ba58),
    ("fig16", 0xe082db9d532fe449, 0x6d35dc54beee98ed),
    ("fig17", 0xb16375583367dfcc, 0x423fe65ec378b4a5),
    ("fig20", 0x0b5e5a8e3e2d5203, 0x4fb8801ddc441ca3),
    ("fig21", 0xd00de047a1561e49, 0x0b04083ad972bd5f),
    ("fig22", 0x18d317f855295ca5, 0x91076d7a78ab0daf),
    ("fig23", 0x386858539920840d, 0x2a991fd326997f7e),
    ("tab02", 0x7c5a87744c549402, 0x70acbea6c87c2973),
    ("ablation", 0x2a21bc9250e2f281, 0xb299414840f350e4),
    ("robust01", 0xda77ba76528232c6, 0x10edb3552e3b2eb7),
    ("robust02", 0x8e5ff91c116aae72, 0x70ab644822d68be4),
    ("robust03", 0xdf31b053c6c12441, 0x83100fac76f14389),
];

/// FNV-1a 64-bit — the same digest the content-addressed campaign cache
/// uses, re-exported so the two cannot drift.
use pythia_sweep::codec::fnv1a_64 as fnv1a;

/// Drops the wall-clock throughput telemetry, the only nondeterministic
/// part of a sweep artifact.
fn strip_throughput(json: Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "throughput")
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn every_figure_registry_entry_pins_its_report_digest() {
    // One test, one process: the scale variable is process-global and the
    // figure budgets read it when specs are built.
    std::env::set_var("PYTHIA_BENCH_SCALE", SCALE);

    let print_mode = std::env::var("PYTHIA_GOLDEN_PRINT").is_ok();
    let mut computed = Vec::new();
    let mut mismatches = Vec::new();
    for def in pythia_bench::figures::registry() {
        let specs = (def.build)();
        let result =
            pythia_sweep::engine::run_all(def.id, &specs, THREADS).expect("figure runs clean");
        let digest = fnv1a(strip_throughput(result.to_json()).render().as_bytes());
        let view = (def.view)(&result);
        assert!(
            view.contains("\n| ---"),
            "{}: view has no markdown table:\n{view}",
            def.id
        );
        let view_digest = fnv1a(view.as_bytes());
        computed.push((def.id, digest, view_digest));
        match GOLDEN.iter().find(|(id, ..)| *id == def.id) {
            Some(&(_, cells, view)) if (cells, view) == (digest, view_digest) => {}
            Some(&(_, cells, view)) => mismatches.push(format!(
                "{}: digests (cells {digest:#018x}, view {view_digest:#018x}) != pinned \
                 (cells {cells:#018x}, view {view:#018x})",
                def.id
            )),
            None => mismatches.push(format!("{}: no pinned digest for this figure", def.id)),
        }
    }
    // Retired figures must drop their pins too.
    for (id, ..) in GOLDEN {
        if !computed.iter().any(|(cid, ..)| cid == id) {
            mismatches.push(format!("{id}: pinned digest for an unregistered figure"));
        }
    }

    if print_mode {
        println!("const GOLDEN: &[(&str, u64, u64)] = &[");
        for (id, digest, view_digest) in &computed {
            println!("    ({id:?}, {digest:#018x}, {view_digest:#018x}),");
        }
        println!("];");
        return;
    }
    assert!(
        mismatches.is_empty(),
        "golden report digests changed — if intentional, regenerate with \
         PYTHIA_GOLDEN_PRINT=1 cargo test --test golden_reports -- --nocapture\n{}",
        mismatches.join("\n")
    );
}
