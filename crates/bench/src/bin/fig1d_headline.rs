//! Figure 1(d): the headline — average slowdown of PRAC vs MoPAC as the
//! Rowhammer threshold scales from 4000 (near-term) to 125 (long-term).
//!
//! Paper: PRAC stays ~10% across the range; MoPAC grows from 0.2% at 4K
//! to ~1.5% at 500 and 2.5% at 250.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, mean_slowdown, pct, run_grid, workload_names, Report};
use mopac_sim::system::SystemConfig;

const THRESHOLDS: [u64; 6] = [4000, 2000, 1000, 500, 250, 125];

fn main() {
    let instrs = instr_budget();
    let names = workload_names();
    let mut r = Report::new(
        "fig1d",
        "Mean slowdown vs T_RH (paper Fig 1d: PRAC ~10% flat; MoPAC 0.2% -> 2.5%)",
        &["T_RH", "PRAC", "MoPAC-C", "MoPAC-D"],
    );
    // Config 0 is the baseline and config 1 PRAC, whose overhead is
    // threshold-invariant; then MoPAC-C and MoPAC-D per threshold.
    let mut mitigations = vec![MitigationConfig::baseline(), MitigationConfig::prac(500)];
    for t in THRESHOLDS {
        mitigations.push(MitigationConfig::mopac_c(t));
        mitigations.push(MitigationConfig::mopac_d(t));
    }
    let configs: Vec<SystemConfig> = mitigations
        .into_iter()
        .map(|m| SystemConfig::paper_default(m, instrs))
        .collect();
    let grid = run_grid(&names, &configs).expect("workload run");
    let prac = mean_slowdown(&grid, 1, 0);
    eprintln!("PRAC mean: {}", pct(prac));
    for (i, t) in THRESHOLDS.into_iter().enumerate() {
        let c = mean_slowdown(&grid, 2 + 2 * i, 0);
        let d = mean_slowdown(&grid, 3 + 2 * i, 0);
        r.row(&[t.to_string(), pct(prac), pct(c), pct(d)]);
    }
    r.emit();
}
