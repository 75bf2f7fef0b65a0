//! Isolated layer replays for the traced run.
//!
//! Each replay drives one crate's public API directly with the inputs
//! the workloads feed it — the attack patterns' activation rows for the
//! engine, checker and flip-plane hooks; the raw application address
//! stream for `Llc::access`; decoded request streams for the memory
//! controller — and times the calls. Every replay sits in one span on
//! the crate it measures.

use crate::attack::{flip_config, make_pattern, victim_row};
use crate::common::{median, Ctx, Metrics};
use mopac::checker::RowhammerChecker;
use mopac::config::MitigationConfig;
use mopac_cpu::llc::{CacheAccess, Llc};
use mopac_cpu::prefetch::StreamPrefetcher;
use mopac_cpu::trace::TraceRecord;
use mopac_dram::device::{DramConfig, DramDevice};
use mopac_dram::flip::FlipPlane;
use mopac_memctrl::controller::{AccessKind, McConfig, MemRequest, MemoryController, PagePolicy};
use mopac_memctrl::mapping::{AddressMapper, Mapping};
use mopac_sim::experiment::build_traces;
use mopac_sim::system::SystemConfig;
use mopac_types::addr::DecodedAddr;
use mopac_types::geometry::DramGeometry;
use mopac_types::rng::DetRng;
use std::hint::black_box;
use std::time::Instant;

/// Activations between two modeled REF commands per bank (tREFI over
/// tRC, rounded) and rows each REF restores (64K rows / 8192 REFs).
const ACTS_PER_REF: usize = 64;
const ROWS_PER_REF: u32 = 8;
/// Requests a trace replay keeps offered to the controller: more than
/// its read queues hold, so back-pressure (refused enqueues) shows.
const TRACE_WINDOW: usize = 256;
/// Repetitions of each hook replay; the median is reported.
const REPS: usize = 3;

/// Activation rows of the attack battery's single-bank and
/// bank-parallel patterns, interleaved.
fn attack_rows(ctx: &Ctx, n: usize) -> Vec<u32> {
    let geom = DramGeometry::ddr5_32gb();
    let row = victim_row(ctx.seed);
    let mut patterns: Vec<_> = ["double-sided", "srq-fill", "multi-bank"]
        .iter()
        .map(|p| make_pattern(p, geom, row))
        .collect();
    let k = patterns.len();
    (0..n).map(|i| patterns[i % k].next_target().row).collect()
}

fn per_call_ns(elapsed: std::time::Duration, calls: usize) -> f64 {
    elapsed.as_secs_f64() * 1e9 / calls.max(1) as f64
}

/// Engine, checker and flip-plane hooks fed the attack rows, and
/// device construction with the flip plane off and on. Runs on every
/// traced workload: these are the `core` and `dram` layers in
/// isolation.
pub fn hooks(ctx: &Ctx, m: &mut Metrics) {
    let rows_per_bank = DramGeometry::ddr5_32gb().rows_per_bank;
    let rows = attack_rows(ctx, ctx.budget.replay_acts());
    let tracer = &ctx.tracer;

    for spec in mopac::EngineRegistry::builtin()
        .specs()
        .iter()
        .filter(|s| s.tracks())
    {
        let cfg = (spec.preset)(500);
        let samples: Vec<f64> = (0..REPS)
            .map(|rep| {
                tracer.span(0, "core", format!("engine replay {}", spec.name), |_| {
                    let mut engine = mopac::build_engine(
                        &cfg,
                        rows_per_bank,
                        DetRng::from_seed(ctx.seed ^ rep as u64),
                    );
                    let demands = engine.timing_demands();
                    let mut coin = DetRng::from_seed(ctx.seed).fork(0xC017);
                    let mut refreshed = 0u32;
                    let t = Instant::now();
                    for (i, &row) in rows.iter().enumerate() {
                        engine.on_activate(row, 0.0);
                        let update = demands.always_prac_timings
                            || demands.precu_probability.is_some_and(|p| coin.bernoulli(p));
                        engine.on_precharge(row, update, 0.0);
                        if engine.alert_cause().is_some() {
                            black_box(engine.service_abo());
                        }
                        if i % ACTS_PER_REF == ACTS_PER_REF - 1 {
                            black_box(engine.on_ref(refreshed..refreshed + ROWS_PER_REF));
                            refreshed = (refreshed + ROWS_PER_REF) % rows_per_bank;
                        }
                    }
                    black_box(engine.stats());
                    per_call_ns(t.elapsed(), rows.len())
                })
            })
            .collect();
        m.put(
            &format!("core.engine.on_activate_ns.{}", spec.name),
            median(&samples),
            "ns",
        );
    }

    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            tracer.span(0, "core", "checker replay", |_| {
                let mut checker = RowhammerChecker::new(rows_per_bank, 500);
                let mut refreshed = 0u32;
                let t = Instant::now();
                for (i, &row) in rows.iter().enumerate() {
                    checker.on_activate(row);
                    if i % ACTS_PER_REF == ACTS_PER_REF - 1 {
                        checker.on_refresh_range(refreshed..refreshed + ROWS_PER_REF);
                        refreshed = (refreshed + ROWS_PER_REF) % rows_per_bank;
                    }
                }
                black_box(checker.violations());
                per_call_ns(t.elapsed(), rows.len())
            })
        })
        .collect();
    m.put("core.checker.on_activate_ns", median(&samples), "ns");

    let (act, readback): (Vec<f64>, Vec<f64>) = (0..REPS)
        .map(|_| {
            tracer.span(0, "dram", "flip-plane replay", |_| {
                let mut plane = FlipPlane::new(
                    flip_config(),
                    rows_per_bank,
                    FlipPlane::bank_salt(ctx.seed, 0),
                );
                let mut refreshed = 0u32;
                let t = Instant::now();
                for (i, &row) in rows.iter().enumerate() {
                    black_box(plane.on_activate(row));
                    if i % ACTS_PER_REF == ACTS_PER_REF - 1 {
                        plane.on_refresh_range(refreshed..refreshed + ROWS_PER_REF);
                        refreshed = (refreshed + ROWS_PER_REF) % rows_per_bank;
                    }
                }
                let act = per_call_ns(t.elapsed(), rows.len());
                let t = Instant::now();
                plane.readback_sweep();
                black_box(plane.stats());
                (act, t.elapsed().as_secs_f64() * 1e3)
            })
        })
        .unzip();
    m.put("dram.flip.on_activate_ns", median(&act), "ns");
    m.put("dram.flip.readback_ms", median(&readback), "ms");

    for (name, flip) in [
        ("dram.device_new_ms.flip_off", None),
        ("dram.device_new_ms.flip_on", Some(flip_config())),
    ] {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                tracer.span(0, "dram", format!("DramDevice::new {name}"), |_| {
                    let cfg = DramConfig {
                        flip,
                        ..DramConfig::paper_default(MitigationConfig::prac(500))
                    };
                    let t = Instant::now();
                    let dev = DramDevice::new(cfg);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    drop(black_box(dev));
                    ms
                })
            })
            .collect();
        m.put(name, median(&samples), "ms");
    }
}

/// Pulls `per_core` records from each core's trace of every named
/// workload; reports ns per `next_record` and returns the records
/// interleaved core by core, per workload.
fn records(
    ctx: &Ctx,
    names: &[&str],
    cfg: &SystemConfig,
    per_core: usize,
) -> (f64, Vec<Vec<(usize, TraceRecord)>>) {
    let mut calls = 0usize;
    let mut elapsed = std::time::Duration::ZERO;
    let mut out = Vec::new();
    for name in names {
        let recs = ctx
            .tracer
            .span(0, "workloads", format!("trace replay {name}"), |_| {
                let Ok(mut traces) = build_traces(name, cfg) else {
                    ctx.invariant_failed(&format!("build_traces({name}) failed in replay"));
                    return Vec::new();
                };
                let mut recs = Vec::with_capacity(per_core * traces.len());
                let t = Instant::now();
                for _ in 0..per_core {
                    for (core, tr) in traces.iter_mut().enumerate() {
                        recs.push((core, tr.next_record()));
                    }
                }
                elapsed += t.elapsed();
                calls += recs.len();
                recs
            });
        out.push(recs);
    }
    (per_call_ns(elapsed, calls), out)
}

/// `workloads.trace_next_ns`: the calibrated generators of `names`.
pub fn trace_next(ctx: &Ctx, names: &[&str], cfg: &SystemConfig, m: &mut Metrics) {
    let (ns, _) = records(ctx, names, cfg, ctx.budget.replay_acts() / 8);
    m.put("workloads.trace_next_ns", ns, "ns");
}

/// `workloads.trace_next_ns` for the attack battery: the patterns'
/// `next_target`.
pub fn pattern_next(ctx: &Ctx, geom: DramGeometry, row: u32, m: &mut Metrics) {
    let n = ctx.budget.replay_acts();
    let ns = ctx
        .tracer
        .span(0, "workloads", "attack pattern replay", |_| {
            let mut patterns: Vec<_> = [
                "double-sided",
                "single-row",
                "multi-bank",
                "srq-fill",
                "tardiness",
            ]
            .iter()
            .map(|p| make_pattern(p, geom, row))
            .collect();
            let k = patterns.len();
            let t = Instant::now();
            for i in 0..n {
                black_box(patterns[i % k].next_target());
            }
            per_call_ns(t.elapsed(), n)
        });
    m.put("workloads.trace_next_ns", ns, "ns");
}

/// `Llc::access` fed the applications' raw address streams (8 cores
/// interleaved, caches empty at the start), then the stream prefetcher
/// fed each core's miss lines.
pub fn llc(ctx: &Ctx, names: &[&str], cfg: &SystemConfig, m: &mut Metrics) {
    let line_bytes = cfg.geometry.line_bytes;
    let per_core = usize::try_from(cfg.instrs_per_core / 20).unwrap_or(usize::MAX);
    let (_, streams) = records(ctx, names, cfg, per_core);
    let (mut accesses, mut misses, mut writebacks) = (0u64, 0u64, 0u64);
    let mut access_time = std::time::Duration::ZERO;
    let mut observe_time = std::time::Duration::ZERO;
    let mut observes = 0usize;
    for recs in &streams {
        let miss_lines = ctx.tracer.span(0, "cpu", "Llc::access replay", |_| {
            let mut cache = Llc::paper_default();
            let mut outcomes = Vec::with_capacity(recs.len());
            let t = Instant::now();
            for (_, r) in recs {
                outcomes.push(cache.access(r.addr, r.is_write));
            }
            access_time += t.elapsed();
            let s = cache.stats();
            accesses += s.accesses;
            misses += s.misses;
            writebacks += s.writebacks;
            recs.iter()
                .zip(outcomes)
                .filter(|(_, o)| !matches!(o, CacheAccess::Hit))
                .map(|((core, r), _)| (*core, r.addr.line_index(line_bytes)))
                .collect::<Vec<_>>()
        });
        ctx.tracer
            .span(0, "cpu", "StreamPrefetcher::observe replay", |_| {
                let mut pf: Vec<StreamPrefetcher> =
                    (0..8).map(|_| StreamPrefetcher::new(8, 16)).collect();
                let t = Instant::now();
                for &(core, line) in &miss_lines {
                    black_box(pf[core % 8].observe(line));
                }
                observe_time += t.elapsed();
                observes += miss_lines.len();
            });
    }
    m.put(
        "cpu.llc_access_ns",
        per_call_ns(access_time, accesses as usize),
        "ns",
    );
    m.put(
        "cpu.llc_miss_ratio",
        misses as f64 / accesses.max(1) as f64,
        "frac",
    );
    m.put("cpu.llc_writebacks", writebacks as f64, "count");
    m.put(
        "cpu.prefetch_observe_ns",
        per_call_ns(observe_time, observes),
        "ns",
    );
}

/// Cost of one `Instant::now()` pair, subtracted from per-tick timings.
fn timer_overhead_ns() -> f64 {
    let n = 20_000;
    let t = Instant::now();
    for _ in 0..n {
        black_box(Instant::now().elapsed());
    }
    per_call_ns(t.elapsed(), n)
}

#[derive(Default)]
struct McTally {
    tick_ns: f64,
    ticks: u64,
    useful: u64,
    accepted: u64,
    refused: u64,
}

/// Drives `mc` for `ticks` cycles, keeping `window` requests queued
/// from `next`, and times each `tick`.
fn drive_mc(
    mc: &mut MemoryController,
    window: usize,
    ticks: u64,
    next: &mut dyn FnMut() -> (DecodedAddr, AccessKind),
    tally: &mut McTally,
) -> Result<(), String> {
    let mut done = Vec::new();
    let mut pending = next();
    let mut id = 0u64;
    let mut tick_time = std::time::Duration::ZERO;
    for now in 0..ticks {
        while mc.queued() < window {
            let (addr, kind) = pending;
            if mc.enqueue(MemRequest { id, kind, addr }, now) {
                tally.accepted += 1;
                id += 1;
                pending = next();
            } else {
                tally.refused += 1;
                break;
            }
        }
        done.clear();
        let t = Instant::now();
        let issued = mc.tick(now, &mut done).map_err(|e| e.to_string())?;
        tick_time += t.elapsed();
        tally.useful += u64::from(issued > 0);
    }
    tally.tick_ns += tick_time.as_secs_f64() * 1e9;
    tally.ticks += ticks;
    Ok(())
}

fn put_mc(tally: &McTally, latency: f64, m: &mut Metrics) {
    let overhead = timer_overhead_ns();
    m.put(
        "memctrl.tick_ns",
        tally.tick_ns / tally.ticks.max(1) as f64 - overhead,
        "ns",
    );
    m.put(
        "memctrl.cmds_per_tick",
        tally.useful as f64 / tally.ticks.max(1) as f64,
        "frac",
    );
    m.put(
        "memctrl.enqueue_refused_frac",
        tally.refused as f64 / (tally.accepted + tally.refused).max(1) as f64,
        "frac",
    );
    m.put("memctrl.avg_read_latency_cyc", latency, "cycles");
}

/// The controller under the attack battery's drive loop (close page,
/// 32-request window) fed a single-bank and a bank-parallel pattern,
/// oracle and flip plane on, PRAC engine.
pub fn memctrl_attack(ctx: &Ctx, geom: DramGeometry, row: u32, m: &mut Metrics) {
    let mut tally = McTally::default();
    let mut latencies = Vec::new();
    for pattern in ["double-sided", "multi-bank"] {
        ctx.tracer.span(
            0,
            "memctrl",
            format!("MemoryController::tick replay {pattern}"),
            |_| {
                let dram = DramDevice::new(DramConfig {
                    geometry: geom.channel_view(),
                    mitigation: MitigationConfig::prac(500),
                    enable_checker: true,
                    seed: ctx.seed,
                    channel: 0,
                    flip: Some(flip_config()),
                });
                let mut mc = MemoryController::new(
                    dram,
                    McConfig {
                        page_policy: PagePolicy::Closed,
                        read_queue_capacity: 32,
                        write_queue_capacity: 8,
                        starvation_cycles: 100_000,
                        seed: ctx.seed ^ 0xF00,
                    },
                );
                let mut p = make_pattern(pattern, geom, row);
                let mut next = || (p.next_target(), AccessKind::Read);
                if let Err(e) = drive_mc(
                    &mut mc,
                    32,
                    ctx.budget.replay_ticks() / 2,
                    &mut next,
                    &mut tally,
                ) {
                    ctx.invariant_failed(&format!("controller replay {pattern}: {e}"));
                }
                latencies.push(mc.stats().avg_read_latency());
            },
        );
    }
    put_mc(&tally, median(&latencies), m);
}

/// The controller at the paper's settings (open page, default queues)
/// fed `workload`'s calibrated request stream, 8 cores interleaved.
pub fn memctrl_trace(ctx: &Ctx, workload: &str, m: &mut Metrics) {
    let geom = DramGeometry::ddr5_32gb();
    let cfg = SystemConfig::paper_default(MitigationConfig::prac(500), 0);
    let mapper = AddressMapper::new(geom, Mapping::paper_default());
    let ticks = ctx.budget.replay_ticks();
    let (_, streams) = records(
        ctx,
        &[workload],
        &cfg,
        usize::try_from(ticks / 8).unwrap_or(1),
    );
    let recs = streams.into_iter().next().unwrap_or_default();
    if recs.is_empty() {
        ctx.invariant_failed("empty controller replay stream");
        return;
    }
    let mut tally = McTally::default();
    let latency = ctx.tracer.span(
        0,
        "memctrl",
        format!("MemoryController::tick replay {workload}"),
        |_| {
            let dram = DramDevice::new(DramConfig {
                enable_checker: false,
                ..DramConfig::paper_default(MitigationConfig::prac(500))
            });
            let mut mc = MemoryController::new(dram, McConfig::default());
            let mut i = 0usize;
            let mut next = || {
                let (_, r) = recs[i % recs.len()];
                i += 1;
                let kind = if r.is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                (mapper.decode(r.addr), kind)
            };
            if let Err(e) = drive_mc(&mut mc, TRACE_WINDOW, ticks, &mut next, &mut tally) {
                ctx.invariant_failed(&format!("controller replay {workload}: {e}"));
            }
            mc.stats().avg_read_latency()
        },
    );
    put_mc(&tally, latency, m);
}
