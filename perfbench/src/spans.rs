//! Spans around the calls into each layer, kept in memory and folded
//! into per-layer busy time when the run ends.
//!
//! The spans live in the benchmark's own code, around the public entry
//! points of each crate; the crates themselves are not instrumented.
//! Spans at one layer boundary never nest, so a span's self time is its
//! duration. With tracing off, [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The layer metric the span is charged to, e.g. `"sim.run_ms"`.
    layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    end_ns: u64,
    /// Work the call processed, in trace ops (0 when not meaningful).
    ops: u64,
}

/// Busy time and work of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub ns: u64,
    pub ops: u64,
}

impl Busy {
    /// Busy milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    /// Nanoseconds per processed op (0 when no op was counted).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span charged to `layer`.
    pub fn span<T>(&self, layer: &'static str, ops: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            layer,
            start_ns,
            end_ns,
            ops,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Busy time per layer over every recorded span.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let b = out.entry(s.layer).or_default();
            b.ns += s.end_ns - s.start_ns;
            b.ops += s.ops;
        }
        out
    }

    /// Busy time of one layer.
    pub fn layer(&self, layer: &str) -> Busy {
        self.busy().get(layer).copied().unwrap_or_default()
    }
}
