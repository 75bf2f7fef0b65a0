//! `attack_battery`: the security campaign.
//!
//! Every tracking engine in the registry against five attack patterns
//! (double-sided, single-row, multi-bank, srq-fill, tardiness) at
//! `ddr5_32gb`, oracle on, flip plane armed with log-normal per-row
//! T_RH, then `verify_readback`; through `ParallelCampaign` at
//! `min(2, nproc)` workers, each cell seeded by `cell_seed`. All work
//! sits in the controller (close page, full window), DRAM commands,
//! engine hooks, the checker and the flip plane: no cores, no trace
//! generation, no event kernel. Per-cell set-up at this geometry rivals
//! the run time of the tRC-bound single-bank cells, so `setup_s` and
//! `sim.attack.new_ms` matter here.

use crate::common::{dram_canonical, Ctx, Metrics, Round};
use crate::replay;
use mopac::config::MitigationConfig;
use mopac_dram::flip::{FlipPlaneConfig, TrhDistribution};
use mopac_sim::attack::{AttackConfig, AttackResult, AttackRun};
use mopac_sim::campaign::ParallelCampaign;
use mopac_types::geometry::{BankRef, DramGeometry};
use mopac_types::rng::DetRng;
use mopac_workloads::attack::{
    AttackPattern, DoubleSidedHammer, MultiBankRoundRobin, SingleRowHammer, SrqFillAttack,
    TardinessAttack,
};
use std::time::Instant;

/// Rowhammer threshold every engine is configured for.
const T_RH: u64 = 500;

const PATTERNS: [&str; 5] = [
    "double-sided",
    "single-row",
    "multi-bank",
    "srq-fill",
    "tardiness",
];

/// Patterns that spread activations over every bank.
fn bank_parallel(pattern: &str) -> bool {
    matches!(pattern, "multi-bank" | "tardiness")
}

/// The weak-cell population of the flip plane: log-normal per-row
/// T_RH around 300 (the `attack_success` bin's empirical shape).
pub fn flip_config() -> FlipPlaneConfig {
    FlipPlaneConfig::new(TrhDistribution::LogNormal {
        median: 300.0,
        sigma: 0.4,
    })
    .with_flip_probability(0.25)
}

/// The row the seed aims the patterns at.
pub fn victim_row(seed: u64) -> u32 {
    64 + DetRng::from_seed(seed).fork(0xA77).below(32_768) as u32
}

/// Builds pattern `name` aimed at `row` (drawn from the seed).
pub fn make_pattern(name: &str, geom: DramGeometry, row: u32) -> Box<dyn AttackPattern> {
    let bank = BankRef::new(0, 0);
    match name {
        "double-sided" => Box::new(DoubleSidedHammer::new(bank, row)),
        "single-row" => Box::new(SingleRowHammer::new(bank, row, row + 100, 8)),
        "multi-bank" => Box::new(MultiBankRoundRobin::new(geom, row)),
        "srq-fill" => Box::new(SrqFillAttack::new(bank, 256)),
        _ => Box::new(TardinessAttack::new(geom, row)),
    }
}

#[derive(Debug, Clone)]
struct Cell {
    engine: &'static str,
    mitigation: MitigationConfig,
    pattern: &'static str,
}

struct CellOut {
    new_s: f64,
    run_s: f64,
    total_s: f64,
    result: AttackResult,
}

pub struct Battery {
    cells: Vec<Cell>,
    geom: DramGeometry,
    row: u32,
    cycles: u64,
}

impl Battery {
    pub fn new(ctx: &Ctx) -> Self {
        let mut cells: Vec<Cell> = mopac::EngineRegistry::builtin()
            .specs()
            .iter()
            .filter(|s| s.tracks())
            .flat_map(|s| {
                PATTERNS.iter().map(move |p| Cell {
                    engine: s.name,
                    mitigation: (s.preset)(T_RH),
                    pattern: p,
                })
            })
            .collect();
        // The bank-parallel cells take about ten times longer; handing
        // them out first lets both workers finish at about the same
        // time instead of one waiting on a late long cell.
        cells.sort_by_key(|c| !bank_parallel(c.pattern));
        let geom = DramGeometry::ddr5_32gb();
        let row = victim_row(ctx.seed);
        ctx.set_inputs(format!("row={row}"));
        Self {
            cells,
            geom,
            row,
            cycles: ctx.budget.attack_cycles(),
        }
    }

    fn config(&self, cell: &Cell, seed: u64) -> AttackConfig {
        attack_config(self.geom, cell.mitigation, self.cycles, seed)
    }
}

fn attack_config(
    geom: DramGeometry,
    mitigation: MitigationConfig,
    cycles: u64,
    seed: u64,
) -> AttackConfig {
    AttackConfig {
        geometry: geom,
        seed,
        flip: Some(flip_config()),
        ..AttackConfig::new(mitigation, cycles)
    }
}

impl crate::Workload for Battery {
    fn cells_per_round(&self) -> usize {
        self.cells.len()
    }

    fn setup_once(&self, ctx: &Ctx) -> f64 {
        let campaign = ParallelCampaign::new(ctx.seed);
        let mut total = 0.0;
        for (i, cell) in self.cells.iter().enumerate() {
            let cfg = self.config(cell, campaign.cell_seed(i));
            let mut pattern = make_pattern(cell.pattern, self.geom, self.row);
            let t = Instant::now();
            let run = AttackRun::new(&cfg, pattern.as_mut());
            total += t.elapsed().as_secs_f64();
            drop(run);
        }
        total
    }

    fn round(&self, ctx: &Ctx, round: &mut Round) {
        let campaign = ParallelCampaign::new(ctx.seed).with_threads(ctx.workers);
        round.workers = campaign.threads();
        let tracer = ctx.tracer.clone();
        let parent = round.span;
        let (geom, row, cycles) = (self.geom, self.row, self.cycles);
        campaign.run(
            &self.cells,
            |c| format!("{}/{}", c.engine, c.pattern),
            move |cell: Cell, seed, _attempt| {
                let label = format!("cell {}/{}", cell.engine, cell.pattern);
                tracer.span(parent, "harness", label, |id| {
                    let t0 = Instant::now();
                    let cfg = attack_config(geom, cell.mitigation, cycles, seed);
                    let mut pattern = make_pattern(cell.pattern, geom, row);
                    let mut run = tracer.span(id, "sim", "AttackRun::new", |_| {
                        AttackRun::new(&cfg, pattern.as_mut())
                    });
                    let t1 = Instant::now();
                    tracer.span(id, "sim", "AttackRun::run_until", |_| run.run_until(cycles))?;
                    let t2 = Instant::now();
                    tracer.span(id, "sim", "AttackRun::verify_readback", |_| {
                        run.verify_readback()
                    });
                    let result = run.result();
                    Ok(CellOut {
                        new_s: (t1 - t0).as_secs_f64(),
                        run_s: (t2 - t1).as_secs_f64(),
                        total_s: t0.elapsed().as_secs_f64(),
                        result,
                    })
                })
            },
            |idx, report| {
                let cell = &self.cells[idx];
                let out = match report.into_result() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("cell {}/{} failed: {e}", cell.engine, cell.pattern);
                        round.failed_cells += 1;
                        return;
                    }
                };
                let r = &out.result;
                let canonical = format!(
                    "acts={} cycles={} {} viol={} flips={} ecc={} corrupted={} success={}",
                    r.activations,
                    r.cycles,
                    dram_canonical(&r.dram),
                    r.violations,
                    r.flip.bit_flips,
                    r.flip.ecc_corrections,
                    r.flip.corrupted_reads,
                    r.attack_success()
                );
                let key = ctx.seeded_key(&format!("{}/{}", cell.engine, cell.pattern));
                let matches = ctx.check_cell(&key, &canonical);
                if r.violations > 0 {
                    eprintln!(
                        "oracle violations in {}/{}: {}",
                        cell.engine, cell.pattern, r.violations
                    );
                }
                if !matches || r.violations > 0 {
                    round.failed_cells += 1;
                }
                round.cell_s.push(out.total_s);
                round.attack_new_s.push(out.new_s);
                round.sim_cycles += r.cycles;
                round.dram.accumulate(&r.dram);
                let bucket = if bank_parallel(cell.pattern) {
                    &mut round.attack_multi
                } else {
                    &mut round.attack_single
                };
                bucket.0 += out.run_s;
                bucket.1 += r.cycles;
            },
        );
    }

    fn traced_extras(&self, ctx: &Ctx, m: &mut Metrics) {
        replay::memctrl_attack(ctx, self.geom, self.row, m);
        replay::pattern_next(ctx, self.geom, self.row, m);
    }
}
