//! The timing-free functional frontend pass.
//!
//! Interval analysis needs to know *where* the miss events are and *which*
//! loads are short misses — but none of that requires cycle-level timing:
//! it only requires running the predictor and the caches over the
//! instruction stream in order. This pass does exactly that, making the
//! analytical model fully standalone.
//!
//! The pass is the model's view of the machine; the cycle-level simulator
//! performs the same accesses in (out-of-order) execution order, so the
//! two can classify borderline accesses differently. That divergence is
//! part of what experiment E-F10 quantifies.

use bmp_branch::{build_predictor, BranchStats, Btb, IndirectPredictor, ReturnAddressStack};
use bmp_cache::{DataOutcome, MemoryHierarchy};
use bmp_trace::{BranchKind, Trace};
use bmp_uarch::{
    HierarchyConfig, IndirectPredictorConfig, MachineConfig, OpClass, PredictorConfig,
};

use crate::intervals::{IntervalEvent, IntervalEventKind};

/// The fields of a [`MachineConfig`] the functional pass reads: the
/// predictors, the BTB and RAS sizes, and the caches. Nothing timing-
/// related (depth, widths, window, ROB, functional units, latencies)
/// is here, so one pass serves every machine that shares a frontend.
///
/// [`FunctionalOutcome::compute`] reads the machine only through this
/// projection, so [`fingerprint`](Self::fingerprint) is exactly the
/// content key of the pass's result for a given trace.
#[derive(Debug, Clone, Copy)]
pub struct FunctionalConfig<'a> {
    predictor: &'a PredictorConfig,
    indirect_predictor: &'a IndirectPredictorConfig,
    btb_entries: u32,
    ras_entries: u32,
    caches: &'a HierarchyConfig,
}

impl<'a> FunctionalConfig<'a> {
    /// Projects `cfg` onto the fields the functional pass reads.
    pub fn of(cfg: &'a MachineConfig) -> Self {
        // Exhaustive on purpose: a new machine field fails to compile
        // here until it is placed on one side of the key.
        let MachineConfig {
            predictor,
            indirect_predictor,
            btb_entries,
            ras_entries,
            caches,
            fetch_width: _,
            dispatch_width: _,
            issue_width: _,
            commit_width: _,
            frontend_depth: _,
            window_size: _,
            rob_size: _,
            fus: _,
            latencies: _,
        } = cfg;
        Self {
            predictor,
            indirect_predictor,
            btb_entries: *btb_entries,
            ras_entries: *ras_entries,
            caches,
        }
    }

    /// A 64-bit content fingerprint of the projected fields (see
    /// [`bmp_uarch::fp`]): two machines fingerprint equal iff their
    /// functional passes over any trace are the same computation.
    pub fn fingerprint(&self) -> u64 {
        bmp_uarch::fp::fingerprint_debug(self)
    }
}

/// Classification of one load, from the model's functional cache pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadClass {
    /// L1D hit.
    L1Hit,
    /// Short miss: served by the L2 — contributor (v).
    ShortMiss,
    /// Long miss: served by memory — an interval-terminating event.
    LongMiss,
}

impl LoadClass {
    /// The 2-bit code of the class in [`LoadClasses`] (0 is "not a load").
    fn code(self) -> u8 {
        match self {
            Self::L1Hit => 1,
            Self::ShortMiss => 2,
            Self::LongMiss => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::L1Hit),
            2 => Some(Self::ShortMiss),
            3 => Some(Self::LongMiss),
            _ => None,
        }
    }
}

/// The class of every load in a trace, packed at 2 bits per op, with the
/// latency of each class.
///
/// A load's latency is a function of its class and the hierarchy alone
/// (L1 hit; L1 + L2; L1 + L2 + memory), so storing the class is enough
/// to answer [`latency`](Self::latency) — a quarter of a byte per op
/// instead of the eight an `Option<u32>` takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadClasses {
    /// Four ops per byte, op `i` in bits `2 * (i % 4)..`; code 0 is a
    /// non-load, otherwise `LoadClass::code`.
    packed: Vec<u8>,
    len: usize,
    /// Latency by code: `None` for non-loads, then one per class.
    latency: [Option<u32>; 4],
}

impl LoadClasses {
    /// `len` ops, none of them a load yet, whose loads take
    /// `latencies[0]`, `[1]` and `[2]` cycles when they are an L1 hit, a
    /// short miss and a long miss.
    pub fn new(len: usize, latencies: [u32; 3]) -> Self {
        let [hit, short, long] = latencies;
        Self {
            packed: vec![0; len.div_ceil(4)],
            len,
            latency: [None, Some(hit), Some(short), Some(long)],
        }
    }

    /// `len` ops whose loads take the latencies `caches` gives each class.
    fn for_hierarchy(len: usize, caches: &HierarchyConfig) -> Self {
        let l1 = caches.l1d().hit_latency();
        let l2 = caches.l2().map_or(0, |l2| l2.hit_latency());
        Self::new(len, [l1, l1 + l2, l1 + l2 + caches.mem_latency()])
    }

    /// Records op `i` as a load of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, class: LoadClass) {
        assert!(i < self.len, "op {i} out of range for {} ops", self.len);
        let shift = (i & 3) * 2;
        let byte = &mut self.packed[i >> 2];
        *byte = (*byte & !(3 << shift)) | (class.code() << shift);
    }

    #[inline]
    fn code(&self, i: usize) -> u8 {
        debug_assert!(i < self.len, "op {i} out of range for {} ops", self.len);
        (self.packed[i >> 2] >> ((i & 3) * 2)) & 3
    }

    /// The class of op `i`, `None` for a non-load.
    pub fn class(&self, i: usize) -> Option<LoadClass> {
        LoadClass::from_code(self.code(i))
    }

    /// The latency of op `i` in cycles, `None` for a non-load.
    #[inline]
    pub fn latency(&self, i: usize) -> Option<u32> {
        self.latency[usize::from(self.code(i))]
    }

    /// The latency of every load of `class`.
    fn class_latency(&self, class: LoadClass) -> u32 {
        self.latency[usize::from(class.code())].expect("classes carry latencies")
    }
}

/// Everything the functional pass learns about a trace under a machine
/// configuration.
#[derive(Debug, Clone)]
pub struct FunctionalOutcome {
    /// Miss events in trace order (mispredicted branches, I-cache misses,
    /// long D-cache misses).
    pub events: Vec<IntervalEvent>,
    /// The class, and so the latency, of every load.
    pub loads: LoadClasses,
    /// Direction-prediction accounting from the pass.
    pub branch_stats: BranchStats,
}

impl FunctionalOutcome {
    /// Runs the functional pass of `cfg`'s predictor and caches over
    /// `trace`. The result depends on `cfg` only through
    /// [`FunctionalConfig::of`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn compute(trace: &Trace, cfg: &MachineConfig) -> Self {
        cfg.validate().expect("machine configuration must be valid");
        Self::run(trace, FunctionalConfig::of(cfg))
    }

    fn run(trace: &Trace, cfg: FunctionalConfig<'_>) -> Self {
        let mut predictor = build_predictor(cfg.predictor);
        let mut ras = ReturnAddressStack::new(cfg.ras_entries);
        // The BTB must see the same update stream as the simulator's so
        // indirect-target predictions (and their aliasing) agree.
        let mut btb = Btb::new(cfg.btb_entries);
        let mut indirect = IndirectPredictor::build(cfg.indirect_predictor);
        let mut mem = MemoryHierarchy::new(cfg.caches);
        let mut branch_stats = BranchStats::new();
        let line_mask = !u64::from(cfg.caches.l1i().line_bytes() - 1);
        let mut current_line = u64::MAX;

        let mut events = Vec::new();
        let mut loads = LoadClasses::for_hierarchy(trace.len(), cfg.caches);

        for (idx, op) in trace.iter().enumerate() {
            // Instruction side, per line.
            let line = op.pc() & line_mask;
            if line != current_line {
                current_line = line;
                let access = mem.fetch_access(op.pc());
                if access.l1i_miss {
                    events.push(IntervalEvent {
                        pos: idx,
                        kind: if access.long_miss {
                            IntervalEventKind::ICacheLongMiss
                        } else {
                            IntervalEventKind::ICacheMiss
                        },
                    });
                }
            }
            // Data side.
            match op.class() {
                OpClass::Load => {
                    let addr = op.mem_addr().expect("loads carry addresses");
                    let access = mem.data_access_at(op.pc(), addr);
                    let class = match access.outcome {
                        DataOutcome::L1Hit => LoadClass::L1Hit,
                        DataOutcome::ShortMiss => LoadClass::ShortMiss,
                        DataOutcome::LongMiss => {
                            events.push(IntervalEvent {
                                pos: idx,
                                kind: IntervalEventKind::LongDCacheMiss,
                            });
                            LoadClass::LongMiss
                        }
                    };
                    debug_assert_eq!(access.latency, loads.class_latency(class));
                    loads.set(idx, class);
                }
                OpClass::Store => {
                    let addr = op.mem_addr().expect("stores carry addresses");
                    let _ = mem.data_access_at(op.pc(), addr);
                }
                _ => {}
            }
            // Branch side.
            if let Some(info) = op.branch_info() {
                let mispredicted = match info.kind {
                    BranchKind::Conditional => {
                        let pred = predictor.predict(op.pc(), info.taken);
                        branch_stats.record(pred, info.taken);
                        predictor.update(op.pc(), info.taken);
                        if info.taken {
                            btb.update(op.pc(), info.target);
                        }
                        pred != info.taken
                    }
                    BranchKind::Call => {
                        ras.push(op.pc().wrapping_add(4));
                        btb.update(op.pc(), info.target);
                        false
                    }
                    BranchKind::Return => !matches!(ras.pop(), Some(t) if t == info.target),
                    BranchKind::Jump => {
                        btb.update(op.pc(), info.target);
                        false
                    }
                    BranchKind::IndirectJump => {
                        let btb_target = btb.lookup(op.pc());
                        let predicted = indirect.predict(op.pc(), btb_target);
                        indirect.update(op.pc(), info.target);
                        btb.update(op.pc(), info.target);
                        !matches!(predicted, Some(t) if t == info.target)
                    }
                };
                if mispredicted {
                    events.push(IntervalEvent {
                        pos: idx,
                        kind: IntervalEventKind::BranchMispredict,
                    });
                }
            }
        }
        // Several events can share a position ordering already in trace
        // order because the loop is in order; enforce it anyway.
        events.sort_by_key(|e| e.pos);
        // Outcomes are cached for the life of a run: drop the growth
        // slack (a quarter of the events' bytes on average).
        events.shrink_to_fit();
        Self {
            events,
            loads,
            branch_stats,
        }
    }

    /// The latency of op `i` in cycles, `None` for a non-load.
    #[inline]
    pub fn load_latency(&self, i: usize) -> Option<u32> {
        self.loads.latency(i)
    }

    /// Positions of the mispredicted branches.
    pub fn mispredict_positions(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::BranchMispredict)
            .map(|e| e.pos)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_uarch::{presets, PredictorConfig};
    use bmp_workloads::{micro, spec};

    fn tiny_perfect() -> MachineConfig {
        presets::test_tiny()
            .to_builder()
            .predictor(PredictorConfig::Perfect)
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_predictor_produces_no_branch_events() {
        let trace = micro::branch_resolution_kernel(5_000, 4, 0.5, 1);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        assert!(out.mispredict_positions().is_empty());
        assert_eq!(out.branch_stats.mispredictions(), 0);
    }

    #[test]
    fn always_wrong_predictor_flags_every_conditional() {
        let trace = micro::branch_resolution_kernel(5_000, 4, 1.0, 1);
        let cfg = tiny_perfect()
            .to_builder()
            .predictor(PredictorConfig::AlwaysNotTaken)
            .build()
            .unwrap();
        let out = FunctionalOutcome::compute(&trace, &cfg);
        assert_eq!(
            out.mispredict_positions(),
            trace.conditional_branch_indices()
        );
    }

    #[test]
    fn load_latencies_cover_exactly_the_loads() {
        let trace = micro::memory_kernel(5_000, 4096, 4, false, 2);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        for (idx, op) in trace.iter().enumerate() {
            assert_eq!(
                out.load_latency(idx).is_some(),
                op.class() == OpClass::Load,
                "latency presence mismatch at {idx}"
            );
        }
    }

    #[test]
    fn packed_classes_round_trip() {
        let classes = [LoadClass::L1Hit, LoadClass::ShortMiss, LoadClass::LongMiss];
        let mut loads = LoadClasses::new(11, [2, 14, 214]);
        let mut expect = [None; 11];
        // Every slot of a byte, overwritten with every class.
        for step in 0..3 {
            for i in (step..11).step_by(2) {
                let class = classes[(i + step) % 3];
                loads.set(i, class);
                expect[i] = Some(class);
            }
        }
        for (i, class) in expect.iter().enumerate() {
            assert_eq!(loads.class(i), *class, "op {i}");
            let latency = class.map(|c| [2, 14, 214][c.code() as usize - 1]);
            assert_eq!(loads.latency(i), latency, "op {i}");
        }
    }

    #[test]
    fn big_working_set_yields_long_miss_events() {
        let trace = micro::memory_kernel(5_000, 16 * 1024 * 1024, 4, false, 2);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        let long = out
            .events
            .iter()
            .filter(|e| e.kind == IntervalEventKind::LongDCacheMiss)
            .count();
        assert!(long > 500, "expected many long-miss events, got {long}");
    }

    #[test]
    fn small_working_set_is_mostly_hits() {
        let trace = micro::memory_kernel(20_000, 512, 4, false, 2);
        let out = FunctionalOutcome::compute(&trace, &tiny_perfect());
        let classes: Vec<LoadClass> = (0..trace.len())
            .filter_map(|i| out.loads.class(i))
            .collect();
        let hits = classes.iter().filter(|c| **c == LoadClass::L1Hit).count();
        let loads = classes.len();
        assert!(hits as f64 > loads as f64 * 0.95);
    }

    #[test]
    fn events_are_sorted_by_position() {
        let trace = spec::by_name("gcc").unwrap().generate(30_000, 9);
        let out = FunctionalOutcome::compute(&trace, &presets::baseline_4wide());
        assert!(out.events.windows(2).all(|w| w[0].pos <= w[1].pos));
        assert!(!out.events.is_empty(), "gcc-like trace should have events");
    }
}
