//! Committed reference outputs.
//!
//! The simulator is deterministic, so every cell's simulated statistics
//! must repeat exactly. Each cell's statistics are rendered into a
//! canonical string; its FNV-1a digest is compared with the digest
//! committed in `refs/<workload>.txt` under the key
//! `<budget>|<seed>|<cell>` (`*` as the seed for cells the seed does not
//! influence). `--write-refs` records the digests of a run into that
//! file instead of checking them.
//!
//! References are committed for every unseeded cell and, per budget, for
//! the seeds [`seed_covered`] names. A cell of a covered seed that has no
//! committed digest fails (a renamed cell, a truncated file or a changed
//! budget constant must not fall back to a determinism-only check).

use mopac_types::snapshot::fnv1a64;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Outcome of comparing one cell with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Mismatch,
    /// No reference is committed for this key, although its seed is
    /// covered: a failure.
    Missing,
    /// No reference is committed for this key, and none is expected: a
    /// seed outside the covered range.
    Unreferenced,
}

/// Whether references are committed for `seed` at `budget`: seeds 0-63
/// at the full budget, the default and held-out seeds 1 and 2 at the
/// smoke budget.
fn seed_covered(budget: &str, seed: &str) -> bool {
    let Ok(seed) = seed.parse::<u64>() else {
        return false;
    };
    match budget {
        "full" => seed < 64,
        _ => seed == 1 || seed == 2,
    }
}

/// Whether `key` (`<budget>|<seed>|<cell>`) must have a committed
/// reference: every unseeded key, and seeded keys of covered seeds.
fn expected(key: &str) -> bool {
    let mut parts = key.splitn(3, '|');
    match (parts.next(), parts.next()) {
        (_, Some("*")) => true,
        (Some(budget), Some(seed)) => seed_covered(budget, seed),
        _ => false,
    }
}

#[derive(Debug)]
pub struct RefStore {
    workload: String,
    committed: BTreeMap<String, String>,
    write: bool,
    recorded: Mutex<BTreeMap<String, String>>,
}

fn committed_text(workload: &str) -> &'static str {
    match workload {
        "paper_slowdown" => include_str!("../refs/paper_slowdown.txt"),
        "attack_battery" => include_str!("../refs/attack_battery.txt"),
        "llc_4ch" => include_str!("../refs/llc_4ch.txt"),
        _ => "",
    }
}

fn ref_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{workload}.txt"))
}

impl RefStore {
    /// Loads the committed digests (compiled in). In write mode the file
    /// on disk is read instead, so successive recording runs accumulate.
    pub fn load(workload: &str, write: bool) -> Self {
        let text = if write {
            std::fs::read_to_string(ref_path(workload)).unwrap_or_default()
        } else {
            committed_text(workload).to_string()
        };
        let committed = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Self {
            workload: workload.to_string(),
            committed,
            write,
            recorded: Mutex::new(BTreeMap::new()),
        }
    }

    /// Compares `canonical` (the cell's rendered statistics) with the
    /// committed digest for `key`. In write mode the digest is recorded
    /// and the cell counts as matching.
    pub fn check(&self, key: &str, canonical: &str) -> Verdict {
        let digest = format!("{:016x}", fnv1a64(canonical.as_bytes()));
        if self.write {
            self.recorded
                .lock()
                .expect("reference recorder lock poisoned")
                .insert(key.to_string(), digest);
            return Verdict::Match;
        }
        match self.committed.get(key) {
            None if expected(key) => {
                eprintln!("no committed reference for {key}");
                Verdict::Missing
            }
            None => Verdict::Unreferenced,
            Some(d) if *d == digest => Verdict::Match,
            Some(d) => {
                eprintln!(
                    "reference mismatch for {key}: committed {d}, got {digest} from {canonical}"
                );
                Verdict::Mismatch
            }
        }
    }

    /// Whether this run records references instead of checking them.
    pub fn writing(&self) -> bool {
        self.write
    }

    /// Merges the recorded digests into the committed file (write mode).
    pub fn save(&self) -> std::io::Result<()> {
        if !self.write {
            return Ok(());
        }
        let mut all = self.committed.clone();
        all.extend(
            self.recorded
                .lock()
                .expect("reference recorder lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.clone())),
        );
        let mut text = format!(
            "# {} reference digests: <budget>|<seed>|<cell> <fnv1a64 of the cell's statistics>\n",
            self.workload
        );
        for (k, v) in &all {
            text.push_str(k);
            text.push(' ');
            text.push_str(v);
            text.push('\n');
        }
        std::fs::write(ref_path(&self.workload), text)
    }
}
