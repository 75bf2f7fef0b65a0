//! `paper_slowdown`: the figure path researchers run.
//!
//! `mopac_bench::slowdown_matrix` for Figure 9's config set (PRAC,
//! MoPAC-C at T_RH 1000/500/250) and Figure 11's (PRAC, MoPAC-D at
//! 1000/500/250), at `paper_default` geometry, 8 cores, event kernel.
//! The seed draws one Table-4 workload per MPKI band (>= 25, 5-25, < 5,
//! mixes), which keeps run length comparable across seeds. The two
//! figures repeat the baseline and PRAC cells: a round requests 40 runs
//! covering 32 distinct cells, so deduplication would show here.
//! Checker, flip plane and campaign stay off this path.
//!
//! Host cost per instruction differs about 10x between Table-4
//! workloads, so every workload runs at its own fixed instruction
//! budget ([`INSTRS`]), sized so that its cells take about the same
//! host time. Whatever the seed draws, a round then does about the same
//! work, and a workload's budget never depends on the seed, so every
//! cell has a committed reference. `slowdown_matrix` is called once per
//! figure and drawn workload, with `MOPAC_INSTRS` set to that budget.

use crate::common::{self, dram_canonical, Budget, Ctx, Metrics, Round};
use crate::replay;
use mopac::config::MitigationConfig;
use mopac_dram::device::DramStats;
use mopac_sim::experiment::build_traces;
use mopac_sim::system::{KernelMode, RunResult, System, SystemConfig};
use mopac_types::rng::DetRng;
use mopac_workloads::spec;
use std::time::Instant;

/// Cores of the paper system (`build_traces` builds one trace each).
const CORES: u64 = 8;

/// Per-core instruction budget of each Table-4 workload, scaled from
/// its measured host cost at 60K instructions so that its eight
/// distinct cells take about 0.6 s on a 2-CPU Xeon host.
const INSTRS: [(&str, u64); 23] = [
    ("bwaves", 36_000),
    ("parest", 55_000),
    ("mcf", 51_000),
    ("lbm", 48_000),
    ("fotonik3d", 57_000),
    ("omnetpp", 138_000),
    ("roms", 200_000),
    ("xz", 196_000),
    ("cactuBSSN", 316_000),
    ("xalancbmk", 558_000),
    ("cam4", 620_000),
    ("blender", 637_000),
    ("mix1", 70_000),
    ("mix2", 86_000),
    ("mix3", 80_000),
    ("mix4", 71_000),
    ("mix5", 81_000),
    ("mix6", 89_000),
    ("masstree", 72_000),
    ("add", 37_000),
    ("triad", 46_000),
    ("copy", 45_000),
    ("scale", 64_000),
];

/// `workload`'s per-core budget at `budget` (the smoke budget runs a
/// twentieth of it).
fn instrs_for(workload: &str, budget: Budget) -> u64 {
    let full = INSTRS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(50_000, |(_, n)| *n);
    match budget {
        Budget::Full => full,
        Budget::Smoke => (full / 20).max(1_000),
    }
}

fn fig9() -> Vec<(String, MitigationConfig)> {
    vec![
        ("PRAC".to_string(), MitigationConfig::prac(500)),
        ("MoPAC-C@1000".to_string(), MitigationConfig::mopac_c(1000)),
        ("MoPAC-C@500".to_string(), MitigationConfig::mopac_c(500)),
        ("MoPAC-C@250".to_string(), MitigationConfig::mopac_c(250)),
    ]
}

fn fig11() -> Vec<(String, MitigationConfig)> {
    vec![
        ("PRAC".to_string(), MitigationConfig::prac(500)),
        ("MoPAC-D@1000".to_string(), MitigationConfig::mopac_d(1000)),
        ("MoPAC-D@500".to_string(), MitigationConfig::mopac_d(500)),
        ("MoPAC-D@250".to_string(), MitigationConfig::mopac_d(250)),
    ]
}

/// The 8 distinct configurations the two figures run (baseline once).
fn distinct_configs() -> Vec<(String, MitigationConfig)> {
    let mut v = vec![("baseline".to_string(), MitigationConfig::baseline())];
    v.extend(fig9());
    v.extend(fig11().into_iter().skip(1));
    v
}

/// Table-4 workloads grouped by MPKI band: >= 25, 5-25, < 5, mixes.
fn bands() -> [Vec<&'static str>; 4] {
    let mut b: [Vec<&'static str>; 4] = Default::default();
    for (w, _) in spec::WORKLOADS {
        let i = if w.mpki >= 25.0 {
            0
        } else if w.mpki >= 5.0 {
            1
        } else {
            2
        };
        b[i].push(w.name);
    }
    b[3] = spec::MIXES.iter().map(|(n, _)| *n).collect();
    b
}

fn system_config(mitigation: MitigationConfig, instrs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(mitigation, instrs);
    cfg.shard_threads = 1;
    cfg
}

/// Canonical text of a full-system run for the reference digests.
pub fn run_canonical(r: &RunResult) -> String {
    let cores: Vec<String> = r
        .cores
        .iter()
        .map(|c| {
            format!(
                "{}/{}/{:016x}",
                c.instructions,
                c.finish_cycle,
                c.ipc.to_bits()
            )
        })
        .collect();
    format!(
        "cycles={} cores={} {} viol={} lat={:016x} pf={}/{}/{} faults={}",
        r.cycles,
        cores.join(","),
        dram_canonical(&r.dram),
        r.violations,
        r.avg_read_latency.to_bits(),
        r.prefetch.issued,
        r.prefetch.hits,
        r.prefetch.late_hits,
        r.faults_applied
    )
}

/// What [`Paper::run_distinct`] measured.
#[derive(Default)]
struct Distinct {
    /// Host seconds of each cell (set-up plus run).
    cell_s: Vec<f64>,
    /// Host seconds inside `System::run` and the cycles it simulated.
    run_total_s: f64,
    cycles: u64,
    dram: DramStats,
    /// `(workload, result, run seconds, instrs)` of each baseline cell.
    baseline_runs: Vec<(String, RunResult, f64, u64)>,
}

pub struct Paper {
    /// Drawn workloads with their per-core instruction budgets.
    workloads: Vec<(String, u64)>,
    /// The drawn >= 25 and < 5 MPKI workloads (lockstep comparison).
    high: String,
    low: String,
}

impl Paper {
    /// Draws the workloads from the seed. A run that records references
    /// runs every Table-4 workload instead, so the committed paper
    /// references cover every draw.
    pub fn new(ctx: &Ctx) -> Self {
        let mut rng = DetRng::from_seed(ctx.seed).fork(0x0070_6170_6572);
        let picks: Vec<String> = bands()
            .iter()
            .map(|b| b[rng.below(b.len() as u64) as usize].to_string())
            .collect();
        let names = if ctx.refs.writing() {
            spec::all_names().iter().map(|s| (*s).to_string()).collect()
        } else {
            picks.clone()
        };
        let workloads: Vec<(String, u64)> = names
            .into_iter()
            .map(|w| {
                let n = instrs_for(&w, ctx.budget);
                (w, n)
            })
            .collect();
        let drawn: Vec<String> = workloads.iter().map(|(w, n)| format!("{w}@{n}")).collect();
        ctx.set_inputs(format!("workloads={}", drawn.join(",")));
        Self {
            workloads,
            high: picks[0].clone(),
            low: picks[2].clone(),
        }
    }

    /// Builds and runs each distinct cell once, outside `slowdown_matrix`,
    /// and checks its cycles, per-core IPC and command counts against
    /// the committed `cell/<workload>/<config>` reference (the rounds
    /// check only the rounded slowdown rows).
    fn run_distinct(&self, ctx: &Ctx) -> Distinct {
        let mut d = Distinct::default();
        let mut failed = 0;
        let configs = distinct_configs();
        for (w, instrs) in &self.workloads {
            for (label, mit) in &configs {
                match self.run_cell(ctx, w, label, system_config(*mit, *instrs)) {
                    Ok((r, setup_s, run_s)) => {
                        let key = ctx.unseeded_key(&format!("cell/{w}/{label}"));
                        if !ctx.check_cell(&key, &run_canonical(&r)) {
                            failed += 1;
                        }
                        d.cell_s.push(setup_s + run_s);
                        d.run_total_s += run_s;
                        d.cycles += r.cycles;
                        d.dram.accumulate(&r.dram);
                        if label == "baseline" {
                            d.baseline_runs.push((w.clone(), r, run_s, *instrs));
                        }
                    }
                    Err(e) => {
                        eprintln!("cell failed: {e}");
                        failed += 1;
                    }
                }
            }
        }
        ctx.record_cells(self.workloads.len() * configs.len(), failed);
        d
    }

    /// Builds one cell (traces + system) with a span around each call;
    /// returns it with the seconds taken.
    fn cell(
        &self,
        ctx: &Ctx,
        parent: u64,
        workload: &str,
        cfg: SystemConfig,
    ) -> Result<(System, f64), String> {
        let t0 = Instant::now();
        let traces = ctx
            .tracer
            .span(parent, "sim", "build_traces", |_| {
                build_traces(workload, &cfg)
            })
            .map_err(|e| format!("{workload}: {e}"))?;
        let sys = ctx
            .tracer
            .span(parent, "sim", "System::new", |_| System::new(cfg, traces))
            .map_err(|e| format!("{workload}: {e}"))?;
        Ok((sys, t0.elapsed().as_secs_f64()))
    }

    fn run_cell(
        &self,
        ctx: &Ctx,
        workload: &str,
        label: &str,
        cfg: SystemConfig,
    ) -> Result<(RunResult, f64, f64), String> {
        ctx.tracer
            .span(0, "harness", format!("cell {workload}/{label}"), |id| {
                let (sys, setup_s) = self.cell(ctx, id, workload, cfg)?;
                let t = Instant::now();
                let r = ctx
                    .tracer
                    .span(id, "sim", "System::run", |_| sys.run())
                    .map_err(|e| format!("{workload}/{label}: {e}"))?;
                Ok((r, setup_s, t.elapsed().as_secs_f64()))
            })
    }
}

impl crate::Workload for Paper {
    fn cells_per_round(&self) -> usize {
        2 * self.workloads.len() * (fig9().len() + 1)
    }

    fn setup_once(&self, ctx: &Ctx) -> f64 {
        let mut total = 0.0;
        for (w, instrs) in &self.workloads {
            for (_, mit) in distinct_configs() {
                match self.cell(ctx, 0, w, system_config(mit, *instrs)) {
                    Ok((sys, s)) => {
                        total += s;
                        drop(sys);
                    }
                    Err(e) => ctx.invariant_failed(&format!("set-up failed: {e}")),
                }
            }
        }
        total
    }

    fn round(&self, ctx: &Ctx, round: &mut Round) {
        for (w, instrs) in &self.workloads {
            // slowdown_matrix reads its workload list and budget from
            // the environment; no other thread runs at this point.
            std::env::set_var("MOPAC_INSTRS", instrs.to_string());
            std::env::set_var("MOPAC_WORKLOADS", w);
            for (fig, configs) in [("fig9", fig9()), ("fig11", fig11())] {
                let runs = configs.len() + 1;
                let t = Instant::now();
                let report = ctx.tracer.span(
                    round.span,
                    "bench",
                    format!("slowdown_matrix {fig} {w}"),
                    |_| mopac_bench::slowdown_matrix(fig, fig, &configs),
                );
                round.slowdown_matrix_s.push(t.elapsed().as_secs_f64());
                round.sim_instrs += runs as u64 * CORES * instrs;
                // The workload's row follows the title, header and rule
                // lines (the "mean" row repeats it).
                let row = match report {
                    Ok(r) => r.to_table().lines().skip(3).find_map(|l| {
                        let fields: Vec<&str> = l.split_whitespace().collect();
                        (fields.first() == Some(&w.as_str())).then(|| fields.join(" "))
                    }),
                    Err(e) => {
                        eprintln!("slowdown_matrix {fig} {w} failed: {e}");
                        None
                    }
                };
                let ok = row.is_some_and(|row| {
                    ctx.check_cell(&ctx.unseeded_key(&format!("{fig}/{w}")), &row)
                });
                if !ok {
                    round.failed_cells += runs;
                }
            }
        }
    }

    fn untraced_checks(&self, ctx: &Ctx) {
        self.run_distinct(ctx);
    }

    fn traced_extras(&self, ctx: &Ctx, m: &mut Metrics) {
        let Distinct {
            cell_s,
            run_total_s,
            cycles,
            dram,
            baseline_runs,
        } = self.run_distinct(ctx);
        m.put(
            "sim.system.ns_per_cycle",
            run_total_s * 1e9 / cycles.max(1) as f64,
            "ns",
        );
        m.put("sim.cell_s_p50", common::percentile(&cell_s, 0.5), "s");
        m.put("sim.cell_s_p70", common::percentile(&cell_s, 0.7), "s");
        common::put_dram_counts(&dram, m);

        // Event kernel vs the lockstep reference on the same cells: the
        // results must be identical; the ratio is lockstep time over
        // event time (> 1 means the event kernel is faster).
        for (name, w) in [
            ("sim.system.event_over_lockstep.low_mpki", &self.low),
            ("sim.system.event_over_lockstep.high_mpki", &self.high),
        ] {
            let Some((_, event, event_s, instrs)) = baseline_runs.iter().find(|(n, ..)| n == w)
            else {
                continue;
            };
            let mut cfg = system_config(MitigationConfig::baseline(), *instrs);
            cfg.kernel = KernelMode::Lockstep;
            match self.run_cell(ctx, w, "baseline-lockstep", cfg) {
                Ok((r, _, lock_s)) => {
                    if r != *event {
                        ctx.invariant_failed(&format!("{w}: lockstep and event kernels disagree"));
                    }
                    m.put(name, lock_s / event_s, "ratio");
                }
                Err(e) => ctx.invariant_failed(&format!("lockstep run failed: {e}")),
            }
        }

        let names: Vec<&str> = self.workloads.iter().map(|(w, _)| w.as_str()).collect();
        replay::trace_next(
            ctx,
            &names,
            &system_config(MitigationConfig::baseline(), 0),
            m,
        );
        replay::memctrl_trace(ctx, &self.high, m);
        crate::llc::llc_replay(ctx, m);
    }
}
