//! Figure 2: per-workload slowdown of PRAC+ABO (with MOAT) at
//! T_RH = 4000, 500 and 100.
//!
//! The paper's headline: the slowdown is identical across thresholds
//! (~10% average, 18% worst case) because it is pure timing overhead,
//! not ABO.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, mean_slowdown, pct, run_grid, workload_names, Report};
use mopac_sim::system::SystemConfig;

fn main() {
    let instrs = instr_budget();
    let names = workload_names();
    let mut r = Report::new(
        "fig2",
        "PRAC slowdown per workload at T_RH = 4000 / 500 / 100 \
         (paper: ~identical across thresholds, 10% avg)",
        &["workload", "T=4000", "T=500", "T=100", "alerts@500"],
    );
    // Config 0 is the baseline; configs 1-3 PRAC at T = 4000 / 500 / 100.
    let configs: Vec<SystemConfig> = [
        MitigationConfig::baseline(),
        MitigationConfig::prac(4000),
        MitigationConfig::prac(500),
        MitigationConfig::prac(100),
    ]
    .into_iter()
    .map(|m| SystemConfig::paper_default(m, instrs))
    .collect();
    let grid = run_grid(&names, &configs).expect("workload run");
    for (name, runs) in names.iter().zip(&grid) {
        let mut cells = vec![name.clone()];
        for run in &runs[1..] {
            cells.push(pct(run.slowdown_vs(&runs[0])));
        }
        cells.push(runs[2].dram.alerts().to_string());
        r.row(&cells);
    }
    r.row(&[
        "mean".into(),
        pct(mean_slowdown(&grid, 1, 0)),
        pct(mean_slowdown(&grid, 2, 0)),
        pct(mean_slowdown(&grid, 3, 0)),
        "-".into(),
    ]);
    r.emit();
    println!("paper: 10% average, 18% worst case, invariant in T_RH");
}
