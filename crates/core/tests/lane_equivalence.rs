//! Equivalence of the lane kernel and the lean whole-trace schedule with
//! the straightforward implementations they replaced.
//!
//! The oracles below are the previous one-schedule-per-call
//! `schedule_interval` and the previous `SlotLedger`/`schedule_trace`,
//! kept verbatim apart from their names, rustfmt, `event_pos` in place
//! of the private `FrontendEvent::pos`, and the `load_latency` accessor
//! in place of an indexed vector. The properties check, on
//! random intervals, traces and machines, that
//!
//! * every lane of `schedule_lanes` equals one oracle schedule;
//! * `local_decomposition` (one four-lane call plus the cascade) equals
//!   four oracle schedules plus the same cascade, term for term;
//! * `schedule_trace` equals the oracle's `TraceSchedule`.

use bmp_branch::BranchStats;
use bmp_core::drain::{
    schedule_interval, schedule_lanes, schedule_trace, FrontendEvent, IntervalSchedule, Lane,
    LaneSchedule, LaneSet, MachineModel, TraceSchedule, WindowParams,
};
use bmp_core::penalty::{local_decomposition, LocalTerms};
use bmp_core::{
    segment, FunctionalOutcome, IntervalEvent, IntervalEventKind, LoadClass, LoadClasses,
};
use bmp_trace::{BranchKind, MicroOp, Trace};
use bmp_uarch::{
    CacheGeometry, HierarchyConfig, LatencyTable, MachineConfig, MachineConfigBuilder, OpClass,
    OP_CLASSES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Oracles: the previous implementations.
// ---------------------------------------------------------------------

fn oracle_schedule_interval<F>(
    ops: &[MicroOp],
    params: WindowParams,
    lat: &LatencyTable,
    mut load_latency: F,
    ignore_deps: bool,
) -> IntervalSchedule
where
    F: FnMut(usize) -> Option<u32>,
{
    let d = u64::from(params.dispatch_width.max(1));
    let w = params.window_size as usize;
    let n = ops.len();
    let mut enter = Vec::with_capacity(n);
    let mut issue = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    for (i, op) in ops.iter().enumerate() {
        // Dispatch-rate entry: D ops per cycle, starting at cycle 0.
        let mut e = i as u64 / d;
        // Window cap: op i waits for op i-W to have issued.
        if i >= w {
            e = e.max(issue[i - w]);
        }
        // Data-flow constraint. Issue is at least one cycle after entry
        // (dispatch-to-issue latency, matching the simulator's timing).
        let mut start = e + 1;
        if !ignore_deps {
            for dist in op.src_distances() {
                let dist = dist as usize;
                if dist <= i {
                    start = start.max(done[i - dist]);
                }
            }
        }
        let latency = match op.class() {
            OpClass::Load => {
                u64::from(load_latency(i).unwrap_or_else(|| lat.latency(OpClass::Load)))
            }
            c => u64::from(lat.latency(c)),
        }
        .max(1);
        enter.push(e);
        issue.push(start);
        done.push(start + latency);
    }
    IntervalSchedule { enter, issue, done }
}

struct OracleLedger {
    total: Vec<u8>,
    kinds: Vec<[u8; 5]>,
    issue_width: u8,
    fu_counts: [u8; 5],
}

impl OracleLedger {
    fn new(issue_width: u32, fu_counts: [u8; 5]) -> Self {
        Self {
            total: Vec::new(),
            kinds: Vec::new(),
            issue_width: issue_width.min(255) as u8,
            fu_counts,
        }
    }

    /// First cycle `>= start` where an issue slot is free and a unit of
    /// `kind` is free for `occupancy` consecutive cycles; books both.
    /// Pipelined classes use occupancy 1; non-pipelined divides hold
    /// their unit for the full latency, exactly as the simulator does.
    fn allocate(&mut self, start: u64, kind: usize, occupancy: u64) -> u64 {
        let occ = occupancy.max(1) as usize;
        let mut t = start as usize;
        'search: loop {
            let need = t + occ;
            if need >= self.total.len() {
                self.total.resize(need + 64, 0);
                self.kinds.resize(need + 64, [0; 5]);
            }
            if self.total[t] >= self.issue_width {
                t += 1;
                continue;
            }
            let mut conflict = None;
            for c in t..t + occ {
                if self.kinds[c][kind] >= self.fu_counts[kind] {
                    conflict = Some(c);
                    break;
                }
            }
            if let Some(c) = conflict {
                t = c + 1;
                continue 'search;
            }
            self.total[t] += 1;
            for c in t..t + occ {
                self.kinds[c][kind] += 1;
            }
            return t as u64;
        }
    }
}

fn oracle_schedule_trace<F>(
    ops: &[MicroOp],
    model: MachineModel,
    lat: &LatencyTable,
    mut load_latency: F,
    events: &[FrontendEvent],
    ignore_deps: bool,
) -> TraceSchedule
where
    F: FnMut(usize) -> Option<u32>,
{
    assert!(
        events
            .windows(2)
            .all(|w| event_pos(w[0]) <= event_pos(w[1])),
        "frontend events must be sorted by position"
    );
    let d = u64::from(model.dispatch_width.max(1));
    let w = model.window_size as usize;
    let r = model.rob_size as usize;
    let fe = u64::from(model.frontend_depth);
    let n = ops.len();
    let mut enter = Vec::with_capacity(n);
    let mut issue = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    let mut slots = OracleLedger::new(model.issue_width, model.fu_counts);

    // Entry cursor: `cursor` is the cycle the next op would enter;
    // `count` how many already entered that cycle.
    let mut cursor = 0u64;
    let mut count = 0u64;
    let mut next_event = 0usize;
    // Barrier waiting for a mispredicted branch to resolve: set when the
    // branch is scheduled, consumed before the next op enters.
    let mut pending_barrier: Option<u64> = None;

    for (i, op) in ops.iter().enumerate() {
        // Frontend events at this op.
        let mut mispredict_here = false;
        while next_event < events.len() && event_pos(events[next_event]) == i {
            match events[next_event] {
                FrontendEvent::FetchStall { extra, .. } => {
                    cursor += u64::from(extra);
                    count = 0;
                }
                FrontendEvent::Mispredict { .. } => mispredict_here = true,
            }
            next_event += 1;
        }
        if let Some(b) = pending_barrier.take() {
            if b > cursor {
                cursor = b;
                count = 0;
            }
        }
        // Window / ROB capacity.
        let mut floor = cursor;
        if i >= w {
            floor = floor.max(issue[i - w]);
        }
        if i >= r {
            floor = floor.max(done[i - r]);
        }
        if floor > cursor {
            cursor = floor;
            count = 0;
        }
        let e = cursor;
        count += 1;
        if count >= d {
            cursor += 1;
            count = 0;
        }

        // Data-flow start: at least one cycle after entry (dispatch-to-
        // issue latency, matching the simulator's timing).
        let mut start = e + 1;
        if !ignore_deps {
            for dist in op.src_distances() {
                let dist = dist as usize;
                if dist <= i {
                    start = start.max(done[i - dist]);
                }
            }
        }
        // Issue-slot allocation; divides occupy their unit for the full
        // latency (non-pipelined), everything else for one cycle.
        let kind = op.class().fu_kind().index();
        let latency = match op.class() {
            OpClass::Load => {
                u64::from(load_latency(i).unwrap_or_else(|| lat.latency(OpClass::Load)))
            }
            c => u64::from(lat.latency(c)),
        }
        .max(1);
        let occupancy = match op.class() {
            OpClass::IntDiv | OpClass::FpDiv => latency,
            _ => 1,
        };
        let s = slots.allocate(start, kind, occupancy);
        enter.push(e);
        issue.push(s);
        done.push(s + latency);

        // A misprediction at this op gates the next op's entry.
        if mispredict_here {
            pending_barrier = Some(done[i] + fe);
        }
    }
    TraceSchedule { enter, issue, done }
}

fn event_pos(e: FrontendEvent) -> usize {
    match e {
        FrontendEvent::Mispredict { pos } | FrontendEvent::FetchStall { pos, .. } => pos,
    }
}

/// The previous local decomposition: four oracle schedules per
/// mispredicted interval, then the cascade.
fn oracle_local_decomposition(
    cfg: &MachineConfig,
    trace: &Trace,
    outcome: &FunctionalOutcome,
) -> Vec<LocalTerms> {
    let params = WindowParams::from(cfg);
    let l1_hit = cfg.caches.l1d().hit_latency();
    let unit = LatencyTable::unit();
    segment(trace.len(), &outcome.events)
        .into_iter()
        .filter(|iv| iv.kind == Some(IntervalEventKind::BranchMispredict))
        .map(|interval| {
            let ops = &trace.ops()[interval.start..=interval.end];
            let b = ops.len() - 1;
            let real_load = |i: usize| outcome.load_latency(interval.start + i);
            let r_local = oracle_schedule_interval(ops, params, &cfg.latencies, real_load, false)
                .resolution(b);
            let r_l1 =
                oracle_schedule_interval(ops, params, &cfg.latencies, |_| Some(l1_hit), false)
                    .resolution(b);
            let r_unit =
                oracle_schedule_interval(ops, params, &unit, |_| Some(1), false).resolution(b);
            let r_base =
                oracle_schedule_interval(ops, params, &unit, |_| Some(1), true).resolution(b);
            let r_l1 = r_l1.min(r_local);
            let r_unit = r_unit.min(r_l1);
            let r_base = r_base.min(r_unit);
            LocalTerms {
                interval,
                local_resolution: r_local,
                base: r_base,
                ilp: r_unit - r_base,
                fu_latency: r_l1 - r_unit,
                short_dmiss: r_local - r_l1,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Random inputs, all drawn from one seed.
// ---------------------------------------------------------------------

/// Random ops of every class. Dependence distances reach up to
/// `max_dist`, so many point before the interval or trace start; loads
/// carry a latency from 1 to 300 cycles, or none.
fn random_ops(rng: &mut SmallRng, n: usize, max_dist: u32) -> (Vec<MicroOp>, Vec<Option<u32>>) {
    let mut ops = Vec::with_capacity(n);
    let mut load_latency = Vec::with_capacity(n);
    for i in 0..n {
        let mut src = || {
            if rng.gen_bool(0.3) {
                None
            } else if rng.gen_bool(0.6) {
                Some(rng.gen_range(1..=4))
            } else {
                Some(rng.gen_range(1..=max_dist))
            }
        };
        let srcs = [src(), src()];
        let class = OP_CLASSES[rng.gen_range(0..OP_CLASSES.len())];
        let pc = i as u64 * 4;
        let (op, lat) = match class {
            OpClass::Load => {
                let lat = if rng.gen_bool(0.9) {
                    Some([1u32, 2, 3, 12, 14, 120, 300][rng.gen_range(0..7usize)])
                } else {
                    None
                };
                (MicroOp::load(pc, 0x1000 + 8 * i as u64, srcs), lat)
            }
            OpClass::Store => (MicroOp::store(pc, 0x1000 + 8 * i as u64, srcs), None),
            OpClass::Branch => (
                MicroOp::branch(
                    pc,
                    BranchKind::Conditional,
                    rng.gen_bool(0.5),
                    pc + 64,
                    srcs,
                ),
                None,
            ),
            c => (MicroOp::alu(pc, c, srcs), None),
        };
        ops.push(op);
        load_latency.push(lat);
    }
    (ops, load_latency)
}

/// Random classes for the loads among `ops`, with random per-class
/// latencies from 1 to 300 cycles: nine loads in ten get a class, the
/// rest none (their latency then comes from the latency table).
fn random_load_classes(rng: &mut SmallRng, ops: &[MicroOp]) -> LoadClasses {
    let mut latency = || {
        if rng.gen_bool(0.5) {
            [1u32, 2, 3, 12, 14, 120, 300][rng.gen_range(0..7usize)]
        } else {
            rng.gen_range(1..=300)
        }
    };
    let latencies = [latency(), latency(), latency()];
    let classes = [LoadClass::L1Hit, LoadClass::ShortMiss, LoadClass::LongMiss];
    let mut loads = LoadClasses::new(ops.len(), latencies);
    for (i, op) in ops.iter().enumerate() {
        if op.class() == OpClass::Load && rng.gen_bool(0.9) {
            loads.set(i, classes[rng.gen_range(0..3usize)]);
        }
    }
    loads
}

/// A random latency table: the default scaled by 1–3×, or arbitrary
/// per-class latencies (long divides included).
fn random_latencies(rng: &mut SmallRng) -> LatencyTable {
    if rng.gen_bool(0.5) {
        let factor = [1.0, 1.5, 2.0, 3.0][rng.gen_range(0..4usize)];
        LatencyTable::default().scaled(factor)
    } else {
        LatencyTable::new(std::array::from_fn(|_| rng.gen_range(1..=30))).expect("non-zero")
    }
}

/// A random machine: dispatch width 1–8, windows from 1 to 512 entries
/// (shorter and longer than the intervals), scaled or arbitrary
/// latencies, and an L1D hit latency of 1–4 cycles.
fn random_machine(rng: &mut SmallRng) -> MachineConfig {
    let window = [1u32, 2, 3, 5, 8, 16, 32, 64, 128, 512][rng.gen_range(0..10usize)];
    let base = HierarchyConfig::default();
    let l1d = CacheGeometry::new(32 * 1024, 64, 4, rng.gen_range(1..=4)).expect("valid L1D");
    let caches = HierarchyConfig::new(base.l1i(), l1d, base.l2(), base.mem_latency())
        .expect("valid hierarchy");
    MachineConfigBuilder::new()
        .dispatch_width(rng.gen_range(1..=8))
        .window_size(window)
        .rob_size(window * 2)
        .latencies(random_latencies(rng))
        .caches(caches)
        .build()
        .expect("valid machine")
}

/// Random miss events over `n` ops, sorted, mispredictions most common,
/// with several events on one op now and then.
fn random_events(rng: &mut SmallRng, n: usize) -> Vec<IntervalEvent> {
    let kinds = [
        IntervalEventKind::BranchMispredict,
        IntervalEventKind::BranchMispredict,
        IntervalEventKind::ICacheMiss,
        IntervalEventKind::ICacheLongMiss,
        IntervalEventKind::LongDCacheMiss,
    ];
    let mut events: Vec<IntervalEvent> = (0..rng.gen_range(0..=n / 8 + 1))
        .map(|_| IntervalEvent {
            pos: rng.gen_range(0..n),
            kind: kinds[rng.gen_range(0..kinds.len())],
        })
        .collect();
    events.sort_by_key(|e| e.pos);
    events
}

fn random_lane(rng: &mut SmallRng) -> Lane {
    Lane {
        latencies: random_latencies(rng),
        load_latency: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(1..=20))
        },
        ignore_deps: rng.gen_bool(0.25),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every lane of the kernel is exactly the oracle's schedule under
    /// that lane's latencies, load rule and dependence rule; the one-lane
    /// `schedule_interval` is the oracle.
    #[test]
    fn every_lane_matches_one_oracle_schedule(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..300usize);
        let (ops, load_latency) = random_ops(&mut rng, n, 400);
        let params = WindowParams {
            dispatch_width: rng.gen_range(1..=8),
            window_size: rng.gen_range(1..=2 * n as u32 + 1),
        };
        let lanes = [(); 4].map(|_| random_lane(&mut rng));
        let mut out = LaneSchedule::new();
        // Schedule a longer interval first, so stale state would show.
        let (warm, warm_lat) = random_ops(&mut rng, 350, 8);
        schedule_lanes(&warm, params, &LaneSet::new(lanes), |i| warm_lat[i], &mut out);
        schedule_lanes(&ops, params, &LaneSet::new(lanes), |i| load_latency[i], &mut out);
        for (l, lane) in lanes.iter().enumerate() {
            let oracle: IntervalSchedule = oracle_schedule_interval(
                &ops,
                params,
                &lane.latencies,
                |i| lane.load_latency.or(load_latency[i]),
                lane.ignore_deps,
            );
            prop_assert_eq!(&out.lane(l), &oracle, "lane {} ({:?})", l, lane);
            for i in 0..n {
                prop_assert_eq!(out.resolution(i)[l], oracle.resolution(i));
            }
            if lane.load_latency.is_none() {
                let one = schedule_interval(
                    &ops, params, &lane.latencies, |i| load_latency[i], lane.ignore_deps,
                );
                prop_assert_eq!(&one, &oracle);
            }
        }
    }

    /// One four-lane call plus the cascade equals four oracle schedules
    /// plus the cascade, for every mispredicted interval.
    #[test]
    fn four_lane_cascade_matches_four_oracle_schedules(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = random_machine(&mut rng);
        let n = rng.gen_range(1..600usize);
        let (ops, _) = random_ops(&mut rng, n, 700);
        let loads = random_load_classes(&mut rng, &ops);
        let trace = Trace::from_ops_unchecked(ops);
        let outcome = FunctionalOutcome {
            events: random_events(&mut rng, n),
            loads,
            branch_stats: BranchStats::default(),
        };
        let (_, locals) = local_decomposition(&cfg, &trace, &outcome);
        let oracle = oracle_local_decomposition(&cfg, &trace, &outcome);
        prop_assert_eq!(locals, oracle);
    }

    /// The packed-ledger whole-trace schedule equals the oracle's on
    /// random traces and machines: issue width 1–8, FU kinds with a
    /// single unit, non-pipelined divides, coinciding frontend events.
    #[test]
    fn trace_schedule_matches_oracle(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..800usize);
        let (ops, load_latency) = random_ops(&mut rng, n, 900);
        let window = rng.gen_range(1..=160u32);
        let model = MachineModel {
            dispatch_width: rng.gen_range(1..=8),
            issue_width: rng.gen_range(1..=8),
            window_size: window,
            rob_size: window + rng.gen_range(0..=160u32),
            frontend_depth: rng.gen_range(1..=30),
            fu_counts: std::array::from_fn(|_| {
                if rng.gen_bool(0.5) { 1 } else { rng.gen_range(1..=4) }
            }),
        };
        let lat = random_latencies(&mut rng);
        let mut events: Vec<FrontendEvent> = random_events(&mut rng, n.max(1))
            .into_iter()
            .filter(|e| e.pos < n)
            .map(|e| match e.kind {
                IntervalEventKind::BranchMispredict => FrontendEvent::Mispredict { pos: e.pos },
                _ => FrontendEvent::FetchStall { pos: e.pos, extra: rng.gen_range(0..=40) },
            })
            .collect();
        events.sort_by_key(|&e| event_pos(e));
        let ignore_deps = rng.gen_bool(0.2);
        let lean: TraceSchedule =
            schedule_trace(&ops, model, &lat, |i| load_latency[i], &events, ignore_deps);
        let oracle =
            oracle_schedule_trace(&ops, model, &lat, |i| load_latency[i], &events, ignore_deps);
        prop_assert_eq!(lean, oracle);
    }
}

/// Real workloads on real machines: the cascade matches on traces from
/// the synthetic profiles through the functional pass.
#[test]
fn cascade_matches_on_profile_traces() {
    let machines = [
        bmp_uarch::presets::baseline_4wide(),
        bmp_uarch::presets::alpha21264_like(),
        bmp_uarch::presets::wide_8way(),
        bmp_uarch::presets::scaled_latencies(3.0),
    ];
    for name in ["gcc", "mcf", "twolf", "vortex"] {
        let trace = bmp_workloads::spec::by_name(name)
            .expect("known profile")
            .generate(20_000, 11);
        for cfg in &machines {
            let outcome = FunctionalOutcome::compute(&trace, cfg);
            let (_, locals) = local_decomposition(cfg, &trace, &outcome);
            assert!(!locals.is_empty(), "{name} mispredicts");
            assert_eq!(
                locals,
                oracle_local_decomposition(cfg, &trace, &outcome),
                "{name} on {cfg}"
            );
        }
    }
}
