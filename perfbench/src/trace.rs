//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a simulator crate. A span names the crate whose function
//! it wraps (its layer) and the span that caused it, so per-layer self
//! time (a span's duration minus the part its children cover) can be
//! derived after the run. Recording is a no-op when tracing is off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 is the root (no parent).
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer, recording from the start if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` on `layer`, child of
    /// `parent`. `f` receives the new span's id for its own children.
    pub fn span<T>(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking cell")
            .push(Span {
                id,
                parent,
                layer,
                name: name.into(),
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// union of its children's intervals (children of a parallel
    /// campaign overlap each other, so the union, not the sum).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock poisoned").clone();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// All spans as JSON lines (`id`, `parent`, `layer`, `name`,
    /// `start_ns`, `end_ns`), in start order.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.spans.lock().expect("span list lock poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut iv, 1, 25), 2 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span(0, "harness", "outer", |p| {
            t.span(p, "sim", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by = t.self_time_by_layer();
        assert!(by["sim"] >= 0.02);
        assert!(by["harness"] < by["sim"]);
    }
}
