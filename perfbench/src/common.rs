//! Shared run context, budgets, per-round records and metric output.

use crate::refs::{RefStore, Verdict};
use crate::trace::{SpanId, Tracer};
use mopac_dram::device::DramStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Run sizes. `Full` is what the end-to-end numbers are measured at;
/// `Smoke` is a tiny budget for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    Full,
    Smoke,
}

impl Budget {
    pub fn name(self) -> &'static str {
        match self {
            Budget::Full => "full",
            Budget::Smoke => "smoke",
        }
    }

    /// DRAM cycles of an `attack_battery` cell.
    pub fn attack_cycles(self) -> u64 {
        match self {
            Budget::Full => 400_000,
            Budget::Smoke => 12_000,
        }
    }

    /// Per-core instructions of an `llc_4ch` cell. Large enough that
    /// STREAM `copy` pushes dirty lines out of the 8 MB LLC to DRAM.
    pub fn llc_instrs(self) -> u64 {
        match self {
            Budget::Full => 700_000,
            Budget::Smoke => 4_000,
        }
    }

    /// Activations fed to each isolated hook replay.
    pub fn replay_acts(self) -> usize {
        match self {
            Budget::Full => 200_000,
            Budget::Smoke => 5_000,
        }
    }

    /// Controller cycles of each isolated `MemoryController` replay.
    pub fn replay_ticks(self) -> u64 {
        match self {
            Budget::Full => 200_000,
            Budget::Smoke => 5_000,
        }
    }
}

/// Process-wide state shared by the run loop and the workloads.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub budget: Budget,
    /// Campaign worker threads: `min(2, nproc)`.
    pub workers: usize,
    pub tracer: Arc<Tracer>,
    pub refs: RefStore,
    attempted: AtomicU64,
    failed: AtomicU64,
    matched: AtomicU64,
    missing: AtomicU64,
    invariants: AtomicBool,
    /// First canonical output per cell key in this process: every later
    /// round must reproduce it exactly, with or without a reference.
    seen: Mutex<BTreeMap<String, String>>,
    inputs: Mutex<String>,
}

impl Ctx {
    pub fn new(seed: u64, budget: Budget, workload: &str, write_refs: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            seed,
            budget,
            workers: nproc.min(2),
            tracer: Arc::new(Tracer::new(false)),
            refs: RefStore::load(workload, write_refs),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            matched: AtomicU64::new(0),
            missing: AtomicU64::new(0),
            invariants: AtomicBool::new(true),
            seen: Mutex::new(BTreeMap::new()),
            inputs: Mutex::new(String::new()),
        }
    }

    /// The reference key of a cell whose output depends on the seed.
    pub fn seeded_key(&self, cell: &str) -> String {
        format!("{}|{}|{cell}", self.budget.name(), self.seed)
    }

    /// The reference key of a cell the seed does not influence.
    pub fn unseeded_key(&self, cell: &str) -> String {
        format!("{}|*|{cell}", self.budget.name())
    }

    /// Checks one cell's canonical statistics against its committed
    /// reference and against earlier rounds of this process. Returns
    /// whether the cell passed.
    pub fn check_cell(&self, key: &str, canonical: &str) -> bool {
        let repeat_ok = {
            let mut seen = self.seen.lock().expect("seen-outputs lock poisoned");
            match seen.get(key) {
                Some(first) if first != canonical => {
                    eprintln!("non-deterministic output for {key}: {first} then {canonical}");
                    false
                }
                Some(_) => true,
                None => {
                    seen.insert(key.to_string(), canonical.to_string());
                    true
                }
            }
        };
        let verdict = self.refs.check(key, canonical);
        match verdict {
            Verdict::Match => {
                self.matched.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Missing | Verdict::Unreferenced => {
                self.missing.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Mismatch => {}
        }
        repeat_ok && matches!(verdict, Verdict::Match | Verdict::Unreferenced)
    }

    /// A check outside the per-cell references failed (e.g. traced and
    /// untraced runs disagree).
    pub fn invariant_failed(&self, what: &str) {
        eprintln!("invariant failed: {what}");
        self.invariants.store(false, Ordering::Relaxed);
    }

    pub fn invariants_hold(&self) -> bool {
        self.invariants.load(Ordering::Relaxed)
    }

    pub fn record_cells(&self, attempted: usize, failed: usize) {
        self.attempted
            .fetch_add(attempted as u64, Ordering::Relaxed);
        self.failed.fetch_add(failed as u64, Ordering::Relaxed);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn ref_matched(&self) -> u64 {
        self.matched.load(Ordering::Relaxed)
    }

    pub fn ref_missing(&self) -> u64 {
        self.missing.load(Ordering::Relaxed)
    }

    pub fn set_inputs(&self, s: String) {
        *self.inputs.lock().expect("inputs lock poisoned") = s;
    }

    pub fn inputs(&self) -> String {
        self.inputs.lock().expect("inputs lock poisoned").clone()
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    pub span: SpanId,
    pub wall_s: f64,
    pub failed_cells: usize,
    /// Host seconds of each cell (set-up plus run).
    pub cell_s: Vec<f64>,
    /// Campaign worker count, 0 for a serial round.
    pub workers: usize,
    pub sim_cycles: u64,
    pub sim_instrs: u64,
    /// Host seconds inside `System::run` and the cycles it simulated.
    pub system_run_s: f64,
    pub system_cycles: u64,
    pub dram: DramStats,
    /// `AttackRun::new` seconds per cell.
    pub attack_new_s: Vec<f64>,
    /// `(run seconds, cycles)` of single-bank and bank-parallel cells.
    pub attack_single: (f64, u64),
    pub attack_multi: (f64, u64),
    pub slowdown_matrix_s: Vec<f64>,
}

impl Round {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            ..Self::default()
        }
    }
}

/// Crates (and the benchmark's own harness) that spans are recorded on.
pub const LAYERS: [&str; 8] = [
    "harness",
    "bench",
    "sim",
    "workloads",
    "cpu",
    "memctrl",
    "dram",
    "core",
];

/// Every per-layer metric except the `span.self_s.<layer>` self times,
/// in `BENCHMARK.json` order. A traced run prints all of them; one
/// whose layer is not on the workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("bench.slowdown_matrix_s", "s"),
    ("bench.cells_requested", "count"),
    ("sim.system.ns_per_cycle", "ns"),
    ("sim.system.event_over_lockstep.low_mpki", "ratio"),
    ("sim.system.event_over_lockstep.high_mpki", "ratio"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("sim.attack.mcycles_per_s", "Mcycles/s"),
    ("sim.attack.ns_per_cycle.single_bank", "ns"),
    ("sim.attack.ns_per_cycle.multi_bank", "ns"),
    ("sim.attack.new_ms", "ms"),
    ("sim.campaign.busy_frac", "frac"),
    ("sim.cell_s_p50", "s"),
    ("sim.cell_s_p70", "s"),
    ("workloads.trace_next_ns", "ns"),
    ("cpu.llc_access_ns", "ns"),
    ("cpu.llc_miss_ratio", "frac"),
    ("cpu.llc_writebacks", "count"),
    ("cpu.prefetch_observe_ns", "ns"),
    ("memctrl.tick_ns", "ns"),
    ("memctrl.cmds_per_tick", "frac"),
    ("memctrl.enqueue_refused_frac", "frac"),
    ("memctrl.avg_read_latency_cyc", "cycles"),
    ("dram.device_new_ms.flip_off", "ms"),
    ("dram.device_new_ms.flip_on", "ms"),
    ("dram.flip.on_activate_ns", "ns"),
    ("dram.flip.readback_ms", "ms"),
    ("dram.acts", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.refs", "count"),
    ("dram.alerts", "count"),
    ("dram.rfms", "count"),
    ("core.engine.on_activate_ns.prac", "ns"),
    ("core.engine.on_activate_ns.mopac-c", "ns"),
    ("core.engine.on_activate_ns.mopac-d", "ns"),
    ("core.engine.on_activate_ns.mopac-d-nup", "ns"),
    ("core.engine.on_activate_ns.qprac", "ns"),
    ("core.engine.on_activate_ns.cnc-prac", "ns"),
    ("core.engine.on_activate_ns.practical", "ns"),
    ("core.checker.on_activate_ns", "ns"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "frac"),
];

/// Per-layer figures derived from the rounds themselves (every
/// workload), before the workload-specific replays are merged in.
pub fn round_layer_metrics(rounds: &[Round], cells: f64, m: &mut Metrics) {
    m.put("bench.cells_requested", cells, "count");
    let matrix: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.slowdown_matrix_s.iter().copied())
        .collect();
    if !matrix.is_empty() {
        m.put("bench.slowdown_matrix_s", median(&matrix), "s");
    }
    let cell_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cell_s.iter().copied())
        .collect();
    if !cell_s.is_empty() {
        m.put("sim.cell_s_p50", percentile(&cell_s, 0.5), "s");
        m.put("sim.cell_s_p70", percentile(&cell_s, 0.7), "s");
    }
    let busy: Vec<f64> = rounds
        .iter()
        .filter(|r| r.workers > 0)
        .map(|r| r.cell_s.iter().sum::<f64>() / (r.workers as f64 * r.wall_s))
        .collect();
    if !busy.is_empty() {
        m.put("sim.campaign.busy_frac", median(&busy), "frac");
    }
    let rates = |f: &dyn Fn(&Round) -> u64| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| f(r) > 0)
            .map(|r| f(r) as f64 / r.wall_s / 1e6)
            .collect()
    };
    let instr_rates = rates(&|r| r.sim_instrs);
    if !instr_rates.is_empty() {
        m.put("sim.minstr_per_s", median(&instr_rates), "Minstr/s");
    }
    let (run_s, cycles) = rounds.iter().fold((0.0, 0u64), |(s, c), r| {
        (s + r.system_run_s, c + r.system_cycles)
    });
    if cycles > 0 {
        m.put("sim.system.ns_per_cycle", run_s * 1e9 / cycles as f64, "ns");
    }
    let new_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.attack_new_s.iter().copied())
        .collect();
    if !new_s.is_empty() {
        m.put("sim.attack.new_ms", median(&new_s) * 1e3, "ms");
        m.put(
            "sim.attack.mcycles_per_s",
            median(&rates(&|r| r.sim_cycles)),
            "Mcycles/s",
        );
        for (name, pick) in [
            (
                "sim.attack.ns_per_cycle.single_bank",
                (|r: &Round| r.attack_single) as fn(&Round) -> (f64, u64),
            ),
            ("sim.attack.ns_per_cycle.multi_bank", |r: &Round| {
                r.attack_multi
            }),
        ] {
            let (s, c) = rounds
                .iter()
                .map(pick)
                .fold((0.0, 0u64), |(s, c), (a, b)| (s + a, c + b));
            if c > 0 {
                m.put(name, s * 1e9 / c as f64, "ns");
            }
        }
    }
    if let Some(r) = rounds.first() {
        if r.dram != DramStats::default() {
            put_dram_counts(&r.dram, m);
        }
    }
}

/// Simulated DRAM command counts of one round.
pub fn put_dram_counts(d: &DramStats, m: &mut Metrics) {
    m.put("dram.acts", d.activates as f64, "count");
    m.put("dram.reads", d.reads as f64, "count");
    m.put("dram.writes", d.writes as f64, "count");
    m.put("dram.refs", d.refreshes as f64, "count");
    m.put("dram.alerts", d.alerts() as f64, "count");
    m.put("dram.rfms", d.rfms as f64, "count");
}

/// Fills every per-layer metric the workload did not produce with 0
/// (its layer is not on this workload's path), so each traced run
/// prints the full set.
pub fn fill_missing_layer_metrics(m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        if !m.has(name) {
            m.put(name, 0.0, unit);
        }
    }
}

/// Canonical text of device statistics for the reference digests.
pub fn dram_canonical(d: &DramStats) -> String {
    format!(
        "act={} rd={} wr={} pre={} precu={} ref={} rfm={} al_m={} al_s={} al_t={} mit={} def={}",
        d.activates,
        d.reads,
        d.writes,
        d.precharges,
        d.precharges_cu,
        d.refreshes,
        d.rfms,
        d.alerts_mitigation,
        d.alerts_srq_full,
        d.alerts_tardiness,
        d.mitigations,
        d.deferred_updates
    )
}

/// Metric name → (value, unit), in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(item) => *item = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.items.iter().any(|(n, _, _)| n == name)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn to_table(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.items {
            let _ = writeln!(s, "  {n:<44} {v:>16.6} {u}");
        }
        s
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of every source file under `crates/` plus the root
/// `Cargo.lock`: identifies the simulator revision even where the
/// checkout is not a git repository.
pub fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    mopac_types::snapshot::fnv1a64(&bytes)
}
