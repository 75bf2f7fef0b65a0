//! Table 12: SRQ insertions per 100 activations, MoPAC-D uniform vs NUP
//! (paper: 6.2 vs 3.1 at p=1/16; 12.5 vs 6.3 at 1/8; 25.0 vs 13.4 at
//! 1/4).

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, run_grid, workload_names, Report};
use mopac_sim::system::{RunResult, SystemConfig};

/// SRQ insertions per 100 ACTs of config `c`, per chip (stats sum over
/// chips).
fn rate(grid: &[Vec<RunResult>], configs: &[SystemConfig], c: usize) -> f64 {
    let insertions: u64 = grid
        .iter()
        .map(|runs| runs[c].mitigation.srq_insertions)
        .sum();
    let acts: u64 = grid.iter().map(|runs| runs[c].dram.activates).sum();
    insertions as f64 / f64::from(configs[c].mitigation.chips) / acts as f64 * 100.0
}

fn main() {
    let instrs = instr_budget();
    let names = workload_names();
    let mut r = Report::new(
        "table12",
        "SRQ insertions per 100 ACTs (paper Table 12)",
        &["T_RH", "p", "uniform", "paper", "NUP", "paper"],
    );
    let paper = [
        (1000u64, "1/16", 6.2, 3.1),
        (500, "1/8", 12.5, 6.3),
        (250, "1/4", 25.0, 13.4),
    ];
    // Uniform and NUP MoPAC-D alternate, one pair per threshold.
    let configs: Vec<SystemConfig> = paper
        .iter()
        .flat_map(|&(t, ..)| {
            [
                MitigationConfig::mopac_d(t),
                MitigationConfig::mopac_d_nup(t),
            ]
        })
        .map(|m| SystemConfig::paper_default(m, instrs))
        .collect();
    let grid = run_grid(&names, &configs).expect("workload run");
    for (i, (t, p, uni_want, nup_want)) in paper.into_iter().enumerate() {
        let uni = rate(&grid, &configs, 2 * i);
        let nup = rate(&grid, &configs, 2 * i + 1);
        r.row(&[
            t.to_string(),
            p.to_string(),
            format!("{uni:.1}"),
            format!("{uni_want:.1}"),
            format!("{nup:.1}"),
            format!("{nup_want:.1}"),
        ]);
    }
    r.emit();
}
