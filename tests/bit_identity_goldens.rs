//! Bit-identity goldens: refactors must leave the simulation
//! byte-identical.
//!
//! Every registered engine is pinned on a 1-channel `tiny` system, and
//! `mopac-d` and `practical` additionally on a 4-channel `tiny`
//! system (rows labelled `<engine>@4ch`), each under both kernels with
//! the Rowhammer oracle on: same cycle counts, same RNG streams, same
//! snapshot bytes. A row holds a mid-run snapshot digest (FNV-1a-64
//! over the full `System::snapshot` byte stream — every channel's
//! device, controller, engines, RNGs and all) taken at the third REF
//! plus the final run statistics. Rows are recorded from the tree
//! *before* a refactor lands and must pass unchanged after it.
//!
//! Regenerate (only legitimate when a PR intentionally changes the
//! snapshot format or simulation behavior) with:
//!
//! ```text
//! MOPAC_WRITE_GOLDENS=1 cargo test -p mopac-sim --test bit_identity_goldens
//! ```

use mopac_sim::experiment::{build_traces, mitigation_preset};
use mopac_sim::system::{KernelMode, System, SystemConfig};
use mopac_types::geometry::DramGeometry;
use mopac_types::snapshot::fnv1a64;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Engines pinned on the 1-channel system: every registered engine.
const ENGINES: [&str; 8] = [
    "baseline",
    "prac",
    "mopac-c",
    "mopac-d",
    "mopac-d-nup",
    "qprac",
    "cnc-prac",
    "practical",
];

/// Engines pinned on the 4-channel system, where every channel runs
/// its own controller, device and RNG streams.
const FOUR_CHANNEL_ENGINES: [&str; 2] = ["mopac-d", "practical"];

/// Per-core instruction budget of a row. Four channels drain the same
/// traffic faster, so the 4-channel rows run longer to stay alive past
/// the REF-3 snapshot point.
fn budget(channels: u32) -> u64 {
    if channels == 1 {
        20_000
    } else {
        60_000
    }
}

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/sim; the goldens live next to the
    // workspace-level tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/bit_identity.txt")
}

/// One golden line: mid-run snapshot digest + end-of-run statistics.
fn golden_line(engine: &str, channels: u32, kernel: KernelMode) -> String {
    let mut cfg = SystemConfig::paper_default(
        mitigation_preset(engine, 500).expect("registered engine"),
        budget(channels),
    );
    cfg.geometry = DramGeometry {
        channels,
        ..DramGeometry::tiny()
    };
    cfg.enable_checker = true;
    cfg.kernel = kernel;
    let mut sys = System::new(cfg.clone(), build_traces("xz", &cfg).unwrap()).unwrap();
    // Pause three REF windows in: deep enough that counters, queues and
    // RNG streams have all moved, early enough that the run continues.
    let paused = sys.run_until_refs(3).unwrap();
    let (digest, result) = match paused {
        Some(done) => (0u64, done),
        None => {
            let digest = fnv1a64(&sys.snapshot());
            (digest, sys.run_to_completion().unwrap())
        }
    };
    let kname = match kernel {
        KernelMode::EventDriven => "event",
        KernelMode::Lockstep => "lockstep",
    };
    let label = if channels == 1 {
        engine.to_string()
    } else {
        format!("{engine}@{channels}ch")
    };
    format!(
        "{label},{kname},{digest:016x},{},{},{},{},{},{},{},{:016x}",
        result.cycles,
        result.dram.activates,
        result.dram.reads,
        result.dram.rfms,
        result.dram.refreshes,
        result.mitigation.mitigations,
        result.violations,
        result.avg_read_latency.to_bits(),
    )
}

#[test]
fn pre_refactor_engines_match_goldens() {
    let rows = ENGINES
        .iter()
        .map(|&e| (e, 1))
        .chain(FOUR_CHANNEL_ENGINES.iter().map(|&e| (e, 4)));
    let mut lines = Vec::new();
    for (engine, channels) in rows {
        for kernel in [KernelMode::EventDriven, KernelMode::Lockstep] {
            lines.push(golden_line(engine, channels, kernel));
        }
    }
    let mut rendered = String::from(
        "# engine,kernel,snapshot_fnv1a64,cycles,activates,reads,rfms,refreshes,\
         mitigations,violations,avg_read_latency_bits\n",
    );
    for l in &lines {
        let _ = writeln!(rendered, "{l}");
    }

    let path = golden_path();
    if std::env::var("MOPAC_WRITE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); generate with MOPAC_WRITE_GOLDENS=1",
            path.display()
        )
    });
    let golden_lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "golden file has {} rows, expected {}",
        golden_lines.len(),
        lines.len()
    );
    for (got, want) in lines.iter().zip(&golden_lines) {
        assert_eq!(
            got, want,
            "bit-identity regression vs recorded golden \
             (format: engine,kernel,digest,cycles,activates,reads,rfms,refreshes,\
             mitigations,violations,latency_bits)"
        );
    }
}
