//! Table 15 (Appendix C): slowdowns of PRAC and MoPAC-D under proactive
//! row-closure policies (open-page, close-page, tON = 100/200 ns).
//!
//! Slowdowns are measured against the *same-policy* baseline, as in the
//! paper; the close-page baseline itself runs ~1.8% behind open-page.

use mopac::config::MitigationConfig;
use mopac_bench::{instr_budget, mean_slowdown, pct, run_grid, workload_names, Report};
use mopac_memctrl::controller::PagePolicy;
use mopac_sim::system::SystemConfig;

fn main() {
    let instrs = instr_budget();
    let names = workload_names();
    let mut r = Report::new(
        "table15",
        "Row-closure policies (paper Table 15: PRAC 10/7.1/7.5/8.2%; \
         MoPAC-D@500 0.8/1.3/1.0/0.9%)",
        &["policy", "PRAC", "MoPAC-D@1000", "MoPAC-D@500", "MoPAC-D@250", "base IPC"],
    );
    let policies = [
        ("open-page", PagePolicy::Open),
        ("close-page", PagePolicy::ClosedIdle),
        ("tON=100ns", PagePolicy::TimeoutNs(100.0)),
        ("tON=200ns", PagePolicy::TimeoutNs(200.0)),
    ];
    // Per policy, the same-policy baseline and then the four
    // mitigations of the table's columns.
    let mitigations = [
        MitigationConfig::baseline(),
        MitigationConfig::prac(500),
        MitigationConfig::mopac_d(1000),
        MitigationConfig::mopac_d(500),
        MitigationConfig::mopac_d(250),
    ];
    let configs: Vec<SystemConfig> = policies
        .iter()
        .flat_map(|&(_, policy)| {
            mitigations.map(|m| {
                let mut cfg = SystemConfig::paper_default(m, instrs);
                cfg.mc.page_policy = policy;
                cfg
            })
        })
        .collect();
    let grid = run_grid(&names, &configs).expect("workload run");
    for (i, (label, _)) in policies.into_iter().enumerate() {
        let base = i * mitigations.len();
        let base_ipc = grid
            .iter()
            .map(|runs| runs[base].cores.iter().map(|c| c.ipc).sum::<f64>())
            .sum::<f64>()
            / names.len() as f64;
        let mut row = vec![label.to_string()];
        for c in base + 1..base + mitigations.len() {
            row.push(pct(mean_slowdown(&grid, c, base)));
        }
        row.push(format!("{base_ipc:.2}"));
        r.row(&row);
    }
    r.emit();
}
