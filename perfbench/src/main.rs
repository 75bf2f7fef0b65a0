//! End-to-end and per-crate benchmark of the MoPAC simulator.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_slowdown|attack_battery|llc_4ch> --seed <n> \
//!     --seconds <s> --trace <0|1> [--budget full|smoke] [--write-refs]
//! ```
//!
//! Run from the repository root. One process runs one workload:
//!
//! * `paper_slowdown` — the figure path: `mopac_bench::slowdown_matrix`
//!   for Figure 9's and Figure 11's config sets over one Table-4
//!   workload per MPKI band (drawn from the seed), `paper_default`
//!   geometry, 8 cores, event kernel.
//! * `attack_battery` — the security campaign: every tracking engine
//!   against five attack patterns on `ddr5_32gb` with the oracle on
//!   and the flip plane armed, through `ParallelCampaign`.
//! * `llc_4ch` — masstree and STREAM `copy` through the shared LLC and
//!   prefetcher on a 4-channel system under baseline, PRAC and MoPAC-D
//!   (not declared in `BENCHMARK.json`; see `src/llc.rs`).
//!
//! The workload is set up once (every cell constructed, not run), then
//! run in rounds, one pass over its cells each, with one more set-up
//! pass after each round, until `--seconds` have passed. End-to-end
//! metrics (`--trace 0`):
//!
//! * `wall_s` — median host seconds of one round;
//! * `setup_s` — median host seconds of one set-up pass: `build_traces`
//!   plus `System::new`, or `AttackRun::new`, for every cell;
//! * `cells_per_s` — cells of a round over `wall_s`;
//! * `peak_rss_mb` — peak resident memory after the first, serial
//!   set-up pass (one cell alive at a time);
//! * `pass_frac` — cells that passed their checks over cells attempted
//!   (`1 - failed_frac`; the result line carries both counts).
//!
//! Every cell's simulated statistics are compared with the digests
//! committed under `refs/` and with the same cell in earlier rounds; a
//! mismatch, a missing reference for a covered seed or an oracle
//! violation fails the cell. `paper_slowdown` rounds check the slowdown
//! rows; each of its distinct cells is also run once after the timed
//! phase and checked in full. With `--trace 1`
//! rounds alternate traced and untraced, and isolated replays time
//! single crates; the per-layer metrics are printed instead, 0 for a
//! layer that is not on the workload's path. The last stdout line is
//! the result JSON; the line before it is the provenance stamp. Both,
//! and the spans of a traced run, are also written under `.bench_out/`.

mod attack;
mod common;
mod llc;
mod paper;
mod refs;
mod replay;
mod trace;

use common::{median, Budget, Ctx, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Environment knobs of the simulator that would change what a run
/// measures; cleared from this process before anything runs.
const PINNED_ENV: [&str; 9] = [
    "MOPAC_SHARD_THREADS",
    "MOPAC_SHARD_BATCH",
    "MOPAC_PARANOID_SKIP",
    "MOPAC_TRACE_KERNEL",
    "MOPAC_METRICS",
    "MOPAC_THREADS",
    "MOPAC_INSTRS",
    "MOPAC_WORKLOADS",
    "MOPAC_ATTACK_CYCLES",
];

/// Output directory for result files, spans and the per-run data dir.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    budget: Budget,
    write_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        budget: Budget::Full,
        write_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--budget" => {
                args.budget = match value()?.as_str() {
                    "full" => Budget::Full,
                    "smoke" => Budget::Smoke,
                    other => return Err(format!("--budget must be full or smoke, got {other}")),
                }
            }
            "--write-refs" => args.write_refs = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "paper_slowdown" | "attack_battery" | "llc_4ch"
    ) {
        return Err(format!(
            "--workload must be paper_slowdown, attack_battery or llc_4ch, got '{}'",
            args.workload
        ));
    }
    Ok(args)
}

/// One workload's hooks, called by the run loop in [`main`].
trait Workload {
    /// Cells a round runs (the `attempted` unit).
    fn cells_per_round(&self) -> usize;
    /// Constructs every cell once without running it; returns seconds.
    fn setup_once(&self, ctx: &Ctx) -> f64;
    /// Runs one round and records its figures into `round`.
    fn round(&self, ctx: &Ctx, round: &mut common::Round);
    /// Untraced run only: output checks the rounds do not make, run
    /// once after the timed phase.
    fn untraced_checks(&self, _ctx: &Ctx) {}
    /// Traced run only: per-cell and isolated replays of this workload.
    fn traced_extras(&self, ctx: &Ctx, m: &mut Metrics);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let data_dir = out_dir.join(format!("data-{}", std::process::id()));
    // A fresh data directory per run: nothing lands in EXPERIMENTS-data/
    // and nothing carries over between runs.
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("creating {}: {e}", data_dir.display()))?;
    std::env::set_var("MOPAC_DATA_DIR", &data_dir);

    let ctx = Ctx::new(args.seed, args.budget, &args.workload, args.write_refs);
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "paper_slowdown" => Box::new(paper::Paper::new(&ctx)),
        "attack_battery" => Box::new(attack::Battery::new(&ctx)),
        _ => Box::new(llc::Llc4ch::new(&ctx)),
    };
    let (metrics, provenance) = drive(args, &ctx, workload.as_ref());
    let _ = std::fs::remove_dir_all(&data_dir);

    ctx.refs
        .save()
        .map_err(|e| format!("writing references: {e}"))?;
    let attempted = ctx.attempted();
    let failed = ctx.failed();
    let correct = failed == 0 && attempted > 0 && ctx.invariants_hold();
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(
        out_dir.join(format!("{stem}.json")),
        format!("{provenance}\n{result_line}\n"),
    );
    if args.trace {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.spans.jsonl")),
            ctx.tracer.to_jsonl(),
        );
    }
    eprint!("{}", metrics.to_table());
    println!("{provenance}");
    println!("{result_line}");
    Ok(())
}

/// Set-up, timed rounds, and (traced runs) the replays; returns the
/// metrics to print and the provenance stamp.
fn drive(args: &Args, ctx: &Ctx, w: &dyn Workload) -> (Metrics, String) {
    let mut setups = vec![w.setup_once(ctx)];
    // Peak memory of one cell at a time: the serial set-up constructs
    // every cell, while the parallel rounds' peak also depends on which
    // cells happen to overlap and on allocator arena reuse.
    let setup_peak_mb = common::peak_rss_mb();

    let start = Instant::now();
    let mut rounds: Vec<common::Round> = Vec::new();
    loop {
        // Traced runs alternate traced and untraced rounds, so the
        // tracing overhead is measured within one process.
        let traced = args.trace && rounds.len().is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        let mut round = common::Round::new(traced);
        let t0 = Instant::now();
        ctx.tracer.span(0, "harness", "round", |id| {
            round.span = id;
            w.round(ctx, &mut round);
        });
        round.wall_s = t0.elapsed().as_secs_f64();
        ctx.tracer.set_enabled(false);
        ctx.record_cells(w.cells_per_round(), round.failed_cells);
        rounds.push(round);
        // One set-up pass after every round, outside the round's wall
        // time, so the set-up samples see the same host speed phases as
        // the rounds rather than one burst at the start.
        setups.push(w.setup_once(ctx));
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if args.trace { rounds.len() >= 2 } else { true };
        if enough && elapsed + median(&walls) + median(&setups) > args.seconds {
            break;
        }
    }

    let mut m = Metrics::default();
    let cells = w.cells_per_round() as f64;
    let walls: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_s)
        .collect();
    if args.trace {
        ctx.tracer.set_enabled(true);
        replay::hooks(ctx, &mut m);
        w.traced_extras(ctx, &mut m);
        ctx.tracer.set_enabled(false);
        common::round_layer_metrics(&rounds, cells, &mut m);
        let traced: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_s)
            .collect();
        m.put("trace.overhead_s", median(&traced) - median(&walls), "s");
        m.put(
            "failed_frac",
            ctx.failed() as f64 / ctx.attempted().max(1) as f64,
            "frac",
        );
        // Self time over the whole traced run: traced rounds, the
        // workload's per-cell runs and the replays.
        let self_times = ctx.tracer.self_time_by_layer();
        for layer in common::LAYERS {
            let s = self_times.get(layer).copied().unwrap_or(0.0);
            m.put(&format!("span.self_s.{layer}"), s, "s");
        }
        common::fill_missing_layer_metrics(&mut m);
    } else {
        w.untraced_checks(ctx);
        let wall = median(&walls);
        m.put("wall_s", wall, "s");
        m.put("setup_s", median(&setups), "s");
        m.put("cells_per_s", cells / wall, "1/s");
        m.put("peak_rss_mb", setup_peak_mb, "MB");
        m.put(
            "pass_frac",
            1.0 - ctx.failed() as f64 / ctx.attempted().max(1) as f64,
            "frac",
        );
    }
    let provenance = provenance(args, ctx, &rounds, &setups);
    (m, provenance)
}

/// The stamp printed before every result: host, toolchain, source
/// revision, seed and budgets.
fn provenance(args: &Args, ctx: &Ctx, rounds: &[common::Round], setups: &[f64]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    let mut s = String::from("{\"provenance\": {");
    let _ = write!(
        s,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"budget\": \"{}\", \
         \"llc_instrs_per_core\": {}, \"attack_cycles\": {}, \"replay_acts\": {}, \
         \"replay_ticks\": {}, \"workers\": {}, \"rounds\": {}, \
         \"round_wall_s\": {:?}, \"setup_samples_s\": {:?}, \"process_peak_rss_mb\": {}, \
         \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
         \"src_fnv\": \"{:016x}\", \"loadavg_1m\": \"{}\", \"ref_matched\": {}, \"ref_missing\": {}, \
         \"inputs\": \"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.budget.name(),
        ctx.budget.llc_instrs(),
        ctx.budget.attack_cycles(),
        ctx.budget.replay_acts(),
        ctx.budget.replay_ticks(),
        ctx.workers,
        rounds.len(),
        rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        setups,
        common::peak_rss_mb(),
        nproc,
        json_escape(&cpu),
        json_escape(&rustc),
        json_escape(&git),
        common::source_digest(),
        loadavg,
        ctx.ref_matched(),
        ctx.ref_missing(),
        json_escape(&ctx.inputs()),
    );
    s.push_str("}}");
    s
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
