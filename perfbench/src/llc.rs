//! `llc_4ch`: raw-address applications through the shared LLC on four
//! channels.
//!
//! masstree (Zipfian, its hot set stays in the 8 MB LLC) and STREAM
//! `copy` (streams through it) with `use_llc = true` and the stream
//! prefetcher, on a 4-channel `ddr5_32gb`, under baseline, PRAC and
//! MoPAC-D, through `ParallelCampaign`. The same `cpu` and `sim` layers
//! as `paper_slowdown`, used differently: LLC lookups, prefetches and
//! writebacks (which the calibrated paper traces bypass), four channel
//! controllers merged per cycle, and four times the per-row state.
//! Caches start empty; the budget is sized so `copy` writes dirty
//! lines back to DRAM.
//!
//! `BENCHMARK.json` does not declare this workload. The time that all
//! benchmark runs together may take allows runs of about 35 s with
//! three workloads, and at that length `paper_slowdown`'s times did not
//! repeat within their bounds on a shared host; with two, each run
//! lasts 55 s. It still runs with `--workload llc_4ch`, its references
//! stay committed and the smoke test covers it; its LLC and prefetcher
//! replays also run in `paper_slowdown`'s traced run.

use crate::common::{Ctx, Metrics, Round};
use crate::paper::run_canonical;
use crate::replay;
use mopac::config::MitigationConfig;
use mopac_sim::campaign::ParallelCampaign;
use mopac_sim::experiment::build_traces;
use mopac_sim::system::{RunResult, System, SystemConfig};
use mopac_types::rng::DetRng;
use std::time::Instant;

/// `copy` first: its cells take about twice as long as masstree's, and
/// handing out the long cells first balances the two workers.
const APPS: [&str; 2] = ["copy", "masstree"];
const CORES: u64 = 8;

fn mitigations() -> [(&'static str, MitigationConfig); 3] {
    [
        ("baseline", MitigationConfig::baseline()),
        ("PRAC", MitigationConfig::prac(500)),
        ("MoPAC-D", MitigationConfig::mopac_d(500)),
    ]
}

/// Trace seed the benchmark seed draws for every cell of this workload.
fn trace_seed(seed: u64) -> u64 {
    DetRng::from_seed(seed).fork(0x11C4).next_u64()
}

/// `Llc::access` and stream-prefetcher replays on this workload's
/// address streams. `paper_slowdown`'s traced run calls it too, so the
/// `cpu.llc_*` metrics are measured on a workload that `BENCHMARK.json`
/// declares.
pub fn llc_replay(ctx: &Ctx, m: &mut Metrics) {
    let cfg = system_config(
        MitigationConfig::baseline(),
        ctx.budget.llc_instrs(),
        trace_seed(ctx.seed),
    );
    replay::llc(ctx, &APPS, &cfg, m);
}

/// The 4-channel LLC system for one cell.
pub fn system_config(mitigation: MitigationConfig, instrs: u64, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(mitigation, instrs);
    cfg.geometry.channels = 4;
    cfg.use_llc = true;
    cfg.shard_threads = 1;
    cfg.seed = seed;
    cfg
}

#[derive(Debug, Clone)]
struct Cell {
    app: &'static str,
    label: &'static str,
    mitigation: MitigationConfig,
}

struct CellOut {
    setup_s: f64,
    run_s: f64,
    result: RunResult,
}

pub struct Llc4ch {
    cells: Vec<Cell>,
    instrs: u64,
    /// Trace seed shared by every cell, so the three mitigations of one
    /// application see the same access stream.
    sim_seed: u64,
}

impl Llc4ch {
    pub fn new(ctx: &Ctx) -> Self {
        let cells = APPS
            .iter()
            .flat_map(|app| {
                mitigations()
                    .into_iter()
                    .map(move |(label, mitigation)| Cell {
                        app,
                        label,
                        mitigation,
                    })
            })
            .collect();
        let sim_seed = trace_seed(ctx.seed);
        ctx.set_inputs(format!("trace_seed={sim_seed:#x}"));
        Self {
            cells,
            instrs: ctx.budget.llc_instrs(),
            sim_seed,
        }
    }
}

impl crate::Workload for Llc4ch {
    fn cells_per_round(&self) -> usize {
        self.cells.len()
    }

    fn setup_once(&self, ctx: &Ctx) -> f64 {
        let mut total = 0.0;
        for cell in &self.cells {
            let cfg = system_config(cell.mitigation, self.instrs, self.sim_seed);
            let t = Instant::now();
            let built = build_traces(cell.app, &cfg).and_then(|tr| System::new(cfg, tr));
            total += t.elapsed().as_secs_f64();
            if let Err(e) = built {
                ctx.invariant_failed(&format!("set-up of {} failed: {e}", cell.app));
            }
        }
        total
    }

    fn round(&self, ctx: &Ctx, round: &mut Round) {
        let campaign = ParallelCampaign::new(ctx.seed).with_threads(ctx.workers);
        round.workers = campaign.threads();
        let tracer = ctx.tracer.clone();
        let parent = round.span;
        let (instrs, seed) = (self.instrs, self.sim_seed);
        campaign.run(
            &self.cells,
            |c| format!("{}/{}", c.app, c.label),
            move |cell: Cell, _cell_seed, _attempt| {
                tracer.span(
                    parent,
                    "harness",
                    format!("cell {}/{}", cell.app, cell.label),
                    |id| {
                        let t0 = Instant::now();
                        let cfg = system_config(cell.mitigation, instrs, seed);
                        let traces = tracer
                            .span(id, "sim", "build_traces", |_| build_traces(cell.app, &cfg))?;
                        let sys =
                            tracer.span(id, "sim", "System::new", |_| System::new(cfg, traces))?;
                        let t1 = Instant::now();
                        let result = tracer.span(id, "sim", "System::run", |_| sys.run())?;
                        Ok(CellOut {
                            setup_s: (t1 - t0).as_secs_f64(),
                            run_s: t1.elapsed().as_secs_f64(),
                            result,
                        })
                    },
                )
            },
            |idx, report| {
                let cell = &self.cells[idx];
                let out = match report.into_result() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("cell {}/{} failed: {e}", cell.app, cell.label);
                        round.failed_cells += 1;
                        return;
                    }
                };
                let r = &out.result;
                let key = ctx.seeded_key(&format!("{}/{}", cell.app, cell.label));
                if !ctx.check_cell(&key, &run_canonical(r)) {
                    round.failed_cells += 1;
                }
                round.cell_s.push(out.setup_s + out.run_s);
                round.system_run_s += out.run_s;
                round.system_cycles += r.cycles;
                round.sim_instrs += CORES * instrs;
                round.dram.accumulate(&r.dram);
            },
        );
    }

    fn traced_extras(&self, ctx: &Ctx, m: &mut Metrics) {
        let cfg = system_config(MitigationConfig::baseline(), self.instrs, self.sim_seed);
        replay::trace_next(ctx, &APPS, &cfg, m);
        llc_replay(ctx, m);
        replay::memctrl_trace(ctx, "copy", m);
    }
}
