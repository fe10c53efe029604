//! The analytical window model: dispatch-rate-limited, window-capped
//! data-flow scheduling.
//!
//! Interval analysis models the drain behaviour of the issue window
//! without simulating cycle-by-cycle. An interval's instructions enter the
//! window at the dispatch rate `D` (the steady-state throughput of a
//! balanced design), subject to the window-capacity constraint — op `i`
//! cannot enter before op `i - W` has issued — and then execute in data-
//! flow order with their class latencies. From the resulting schedule the
//! *branch resolution time* (window-entry to execution) is read off
//! directly.
//!
//! This captures the paper's mechanisms in one model:
//!
//! * long intervals fill the window, so instructions accumulate a queueing
//!   lag behind dispatch that saturates near `W / D` (Little's law) — the
//!   interval-length/burstiness contributor (ii);
//! * the lag itself is created by the program's dependence structure —
//!   the inherent-ILP contributor (iii);
//! * latencies scale every chain — contributor (iv);
//! * short D-cache misses locally stretch chains — contributor (v).
//!
//! The penalty decomposition schedules every mispredicted interval under
//! four knock-outs at once. [`schedule_lanes`] advances `L` *lanes* — each
//! a latency table, a load-latency rule and a dependence rule, compiled
//! once per machine into a [`LaneSet`] — in lockstep over the interval:
//! the ops are decoded and the dispatch counter advanced once for all
//! lanes, and the per-lane cycles go into a [`LaneSchedule`] the caller
//! reuses across intervals. [`schedule_interval`] is its one-lane form.
//! [`schedule_trace`] applies the same rules to the whole trace, adding
//! frontend events, the ROB cap and issue bandwidth.

use bmp_trace::MicroOp;
use bmp_uarch::{LatencyTable, MachineConfig, OpClass, OP_CLASSES};

/// Scheduling parameters extracted from a machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowParams {
    /// Dispatch width `D`.
    pub dispatch_width: u32,
    /// Window capacity `W`.
    pub window_size: u32,
}

impl From<&MachineConfig> for WindowParams {
    fn from(cfg: &MachineConfig) -> Self {
        Self {
            dispatch_width: cfg.dispatch_width,
            window_size: cfg.window_size,
        }
    }
}

/// The schedule of one interval under the window model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSchedule {
    /// Cycle each op enters the window.
    pub enter: Vec<u64>,
    /// Cycle each op issues (starts executing).
    pub issue: Vec<u64>,
    /// Cycle each op's result becomes available.
    pub done: Vec<u64>,
}

impl IntervalSchedule {
    /// The resolution time of op `i`: window entry to result, the drain
    /// component of a misprediction's penalty when `i` is the mispredicted
    /// branch.
    pub fn resolution(&self, i: usize) -> u64 {
        self.done[i] - self.enter[i]
    }

    /// The interval's total drain time: the last completion.
    pub fn drain_time(&self) -> u64 {
        self.done.iter().copied().max().unwrap_or(0)
    }
}

/// One lane of [`schedule_lanes`]: the latencies and dependence rule one
/// knock-out schedules an interval under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Per-class latencies; loads use the table's load latency only when
    /// neither `load_latency` nor the caller supplies one.
    pub latencies: LatencyTable,
    /// The latency every load takes in this lane; `None` takes the
    /// caller's per-load latency.
    pub load_latency: Option<u32>,
    /// Schedule without dependence constraints.
    pub ignore_deps: bool,
}

/// `L` lanes compiled into per-class latency rows. Build it once per
/// machine configuration and reuse it across intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSet<const L: usize> {
    /// `latency[class][lane]` in [`OP_CLASSES`] order, at least 1.
    latency: [[u64; L]; 9],
    /// Lanes whose loads take the caller's per-load latency.
    observed: [bool; L],
    /// All ones for lanes that honour dependences, zero for the others,
    /// so `start.max(done & mask)` applies a dependence only where it
    /// binds.
    dep_mask: [u64; L],
}

impl<const L: usize> LaneSet<L> {
    /// Compiles `lanes`.
    pub fn new(lanes: [Lane; L]) -> Self {
        Self {
            latency: std::array::from_fn(|c| {
                let class = OP_CLASSES[c];
                lanes.map(|lane| {
                    let cycles = match lane.load_latency {
                        Some(fixed) if class == OpClass::Load => fixed,
                        _ => lane.latencies.latency(class),
                    };
                    u64::from(cycles).max(1)
                })
            }),
            observed: lanes.map(|lane| lane.load_latency.is_none()),
            dep_mask: lanes.map(|lane| if lane.ignore_deps { 0 } else { u64::MAX }),
        }
    }
}

/// The schedules [`schedule_lanes`] computes, one per lane, op by op.
/// Reuse one across intervals: scheduling clears it but keeps its
/// buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneSchedule<const L: usize> {
    enter: Vec<[u64; L]>,
    issue: Vec<[u64; L]>,
    done: Vec<[u64; L]>,
}

impl<const L: usize> LaneSchedule<L> {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resolution time of op `i` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an op of the last scheduled interval.
    pub fn resolution(&self, i: usize) -> [u64; L] {
        std::array::from_fn(|l| self.done[i][l] - self.enter[i][l])
    }

    /// Lane `l`'s schedule on its own.
    ///
    /// # Panics
    ///
    /// Panics if `l >= L`.
    pub fn lane(&self, l: usize) -> IntervalSchedule {
        let column = |v: &[[u64; L]]| v.iter().map(|cycles| cycles[l]).collect();
        IntervalSchedule {
            enter: column(&self.enter),
            issue: column(&self.issue),
            done: column(&self.done),
        }
    }
}

/// Schedules `ops` (one interval, oldest first) under the window model
/// once per lane, all lanes in lockstep, into `out`.
///
/// `load_latency(i)` supplies the latency of the load at interval-relative
/// position `i` (from the functional cache pass) to the lanes without a
/// fixed load latency; `None` falls back to the lane's table. Dependences
/// whose distance reaches before the interval are treated as ready at
/// cycle 0 — the previous interval has drained past them.
///
/// Per op and lane: entry is the dispatch-rate cycle (`D` ops per cycle
/// from cycle 0), but not before op `i − W` has issued in that lane;
/// issue is one cycle after entry (dispatch-to-issue, matching the
/// simulator) and not before the op's producers are done; done is issue
/// plus the class latency.
pub fn schedule_lanes<const L: usize, F>(
    ops: &[MicroOp],
    params: WindowParams,
    lanes: &LaneSet<L>,
    mut load_latency: F,
    out: &mut LaneSchedule<L>,
) where
    F: FnMut(usize) -> Option<u32>,
{
    let d = u64::from(params.dispatch_width.max(1));
    let w = params.window_size as usize;
    let LaneSchedule { enter, issue, done } = out;
    enter.clear();
    issue.clear();
    done.clear();
    // Dispatch-rate entry as a running counter: `slot` ops have already
    // entered at `cycle`.
    let (mut cycle, mut slot) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let mut e = [cycle; L];
        if i >= w {
            let freed = issue[i - w];
            e = std::array::from_fn(|l| e[l].max(freed[l]));
        }
        let mut start = e.map(|c| c + 1);
        for dist in op.src_distances() {
            let dist = dist as usize;
            if dist <= i {
                let ready = done[i - dist];
                start = std::array::from_fn(|l| start[l].max(ready[l] & lanes.dep_mask[l]));
            }
        }
        let class = op.class();
        let mut latency = lanes.latency[class.index()];
        if class == OpClass::Load {
            if let Some(cycles) = load_latency(i) {
                let cycles = u64::from(cycles).max(1);
                latency = std::array::from_fn(|l| {
                    if lanes.observed[l] {
                        cycles
                    } else {
                        latency[l]
                    }
                });
            }
        }
        enter.push(e);
        issue.push(start);
        done.push(std::array::from_fn(|l| start[l] + latency[l]));
        slot += 1;
        if slot == d {
            slot = 0;
            cycle += 1;
        }
    }
}

/// Schedules `ops` (one interval, oldest first) under the window model:
/// [`schedule_lanes`] with one lane.
///
/// `load_latency(i)` supplies the latency of the load at interval-relative
/// position `i` (from the functional cache pass); non-loads use `lat`.
/// Dependences whose distance reaches before the interval are treated as
/// ready at cycle 0 — the previous interval has drained past them.
///
/// Set `ignore_deps` to schedule the same ops without dependence
/// constraints (the ILP knock-out of the penalty decomposition).
///
/// # Examples
///
/// ```
/// use bmp_core::drain::{schedule_interval, WindowParams};
/// use bmp_trace::MicroOp;
/// use bmp_uarch::{LatencyTable, OpClass};
///
/// let ops: Vec<_> = (0..8)
///     .map(|i| MicroOp::alu(i * 4, OpClass::IntAlu, [if i > 0 { Some(1) } else { None }, None]))
///     .collect();
/// let params = WindowParams { dispatch_width: 4, window_size: 32 };
/// let s = schedule_interval(&ops, params, &LatencyTable::unit(), |_| None, false);
/// // A serial chain: op 0 enters at 0 and issues at 1 (dispatch-to-issue
/// // takes a cycle), so op 7 completes at cycle 9 having entered at 1.
/// assert_eq!(s.done[7], 9);
/// assert_eq!(s.resolution(7), 8);
/// ```
pub fn schedule_interval<F>(
    ops: &[MicroOp],
    params: WindowParams,
    lat: &LatencyTable,
    load_latency: F,
    ignore_deps: bool,
) -> IntervalSchedule
where
    F: FnMut(usize) -> Option<u32>,
{
    let lanes = LaneSet::new([Lane {
        latencies: *lat,
        load_latency: None,
        ignore_deps,
    }]);
    let mut out = LaneSchedule::new();
    schedule_lanes(ops, params, &lanes, load_latency, &mut out);
    out.lane(0)
}

/// Full machine parameters for the whole-trace schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Dispatch width `D`.
    pub dispatch_width: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Issue-window capacity `W`.
    pub window_size: u32,
    /// Reorder-buffer capacity.
    pub rob_size: u32,
    /// Frontend pipeline depth `c_fe`.
    pub frontend_depth: u32,
    /// Functional-unit counts in `FU_KINDS` order.
    pub fu_counts: [u8; 5],
}

impl From<&MachineConfig> for MachineModel {
    fn from(cfg: &MachineConfig) -> Self {
        let fu_counts = std::array::from_fn(|i| cfg.fus.count(bmp_uarch::FU_KINDS[i]));
        Self {
            dispatch_width: cfg.dispatch_width,
            issue_width: cfg.issue_width,
            window_size: cfg.window_size,
            rob_size: cfg.rob_size,
            frontend_depth: cfg.frontend_depth,
            fu_counts,
        }
    }
}

/// A frontend disruption injected into the whole-trace schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendEvent {
    /// The op at `pos` is a mispredicted branch: ops after it enter the
    /// window no earlier than `done(pos) + frontend_depth`.
    Mispredict {
        /// Trace index of the branch.
        pos: usize,
    },
    /// Fetch of the op at `pos` stalled `extra` cycles (I-cache miss).
    FetchStall {
        /// Trace index of the stalled op.
        pos: usize,
        /// Extra delivery cycles.
        extra: u32,
    },
}

impl FrontendEvent {
    fn pos(&self) -> usize {
        match *self {
            FrontendEvent::Mispredict { pos } | FrontendEvent::FetchStall { pos, .. } => pos,
        }
    }
}

/// The whole-trace schedule — "interval simulation": every interval-
/// analysis mechanism applied across the full instruction stream, so
/// cross-interval state (a window still full from before a miss event,
/// chains reaching across events) is captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSchedule {
    /// Cycle each op enters the window.
    pub enter: Vec<u64>,
    /// Cycle each op issues.
    pub issue: Vec<u64>,
    /// Cycle each op's result is available.
    pub done: Vec<u64>,
}

impl TraceSchedule {
    /// Resolution time of op `i` (window entry to result).
    pub fn resolution(&self, i: usize) -> u64 {
        self.done[i] - self.enter[i]
    }

    /// Predicted total execution time: the last completion.
    pub fn total_cycles(&self) -> u64 {
        self.done.iter().copied().max().unwrap_or(0)
    }
}

/// Per-cycle issue-slot ledger. Each cycle is one 8-byte cell: byte 0
/// counts the ops issued that cycle, byte `1 + k` the busy units of FU
/// kind `k`. No count passes its limit (at most 255), so bytes never
/// carry into each other.
///
/// The ledger covers cycles `base..base + cells.len()`. Requests never
/// start before the entry cycle of the op being scheduled, which only
/// grows, so cycles below it are dropped when the ledger has to grow and
/// they make up at least half of it.
struct SlotLedger {
    cells: Vec<u64>,
    base: u64,
    /// No request will start before this cycle.
    floor: u64,
    issue_width: u64,
    fu_counts: [u64; 5],
}

impl SlotLedger {
    fn new(issue_width: u32, fu_counts: [u8; 5]) -> Self {
        Self {
            cells: Vec::new(),
            base: 0,
            floor: 0,
            issue_width: u64::from(issue_width.min(255)),
            fu_counts: fu_counts.map(u64::from),
        }
    }

    /// Promises that no later request starts before `cycle`.
    fn retire_before(&mut self, cycle: u64) {
        self.floor = cycle;
    }

    /// The index of cycle `t`, with cells through `t + span` present.
    #[inline]
    fn index(&mut self, t: u64, span: usize) -> usize {
        let i = (t - self.base) as usize;
        if i + span < self.cells.len() {
            i
        } else {
            self.grow(i, span)
        }
    }

    /// [`SlotLedger::index`] past the end: drops the retired cycles if
    /// they are at least half the ledger, then extends it.
    #[cold]
    fn grow(&mut self, mut i: usize, span: usize) -> usize {
        let dead = ((self.floor - self.base) as usize).min(self.cells.len());
        if dead >= self.cells.len() / 2 {
            self.cells.drain(..dead);
            self.base += dead as u64;
            i -= dead;
        }
        self.cells.resize(i + span + 64, 0);
        i
    }

    /// First cycle `>= start` where an issue slot is free and a unit of
    /// `kind` is free for `occupancy` consecutive cycles; books both.
    /// Pipelined classes use occupancy 1; non-pipelined divides hold
    /// their unit for the full latency, exactly as the simulator does.
    #[inline]
    fn allocate(&mut self, start: u64, kind: usize, occupancy: u64) -> u64 {
        if occupancy > 1 {
            return self.allocate_blocking(start, kind, occupancy as usize);
        }
        let shift = 8 * (1 + kind);
        let units = self.fu_counts[kind];
        let mut t = start;
        loop {
            let i = self.index(t, 1);
            let cell = self.cells[i];
            if cell & 0xff < self.issue_width && (cell >> shift) & 0xff < units {
                self.cells[i] = cell + (1 << shift) + 1;
                return t;
            }
            t += 1;
        }
    }

    /// [`SlotLedger::allocate`] for a unit held `occ > 1` cycles.
    #[inline(never)]
    fn allocate_blocking(&mut self, start: u64, kind: usize, occ: usize) -> u64 {
        let shift = 8 * (1 + kind);
        let units = self.fu_counts[kind];
        let mut t = start;
        'search: loop {
            let i = self.index(t, occ);
            if self.cells[i] & 0xff >= self.issue_width {
                t += 1;
                continue;
            }
            for (k, &cell) in self.cells[i..i + occ].iter().enumerate() {
                if (cell >> shift) & 0xff >= units {
                    t += k as u64 + 1;
                    continue 'search;
                }
            }
            self.cells[i] += 1;
            for cell in &mut self.cells[i..i + occ] {
                *cell += 1 << shift;
            }
            return t;
        }
    }
}

/// Per-class constants of the whole-trace schedule.
#[derive(Clone, Copy)]
struct ClassInfo {
    /// Latency (at least 1); loads take theirs from the caller first.
    latency: u64,
    /// FU kind index.
    kind: usize,
    /// Non-pipelined: holds its unit for the full latency.
    blocking: bool,
}

/// Schedules the whole trace under the interval model.
///
/// Mechanisms applied, in the spirit of the paper's framework:
///
/// * **dispatch-rate entry** — `D` ops per cycle;
/// * **frontend events** — mispredictions restart entry at
///   `done(branch) + c_fe`; I-cache misses add their delivery stall;
/// * **window and ROB caps** — op `i` waits for op `i − W` to issue and
///   op `i − R` to complete (the long-miss ROB-fill mechanism);
/// * **issue bandwidth** — at most `issue_width` ops per cycle, with
///   per-FU-kind capacity, allocated oldest-first;
/// * **data-flow dependences** with class latencies, loads resolved by
///   `load_latency` (pass the functional pass's per-load latencies).
///
/// `events` must be sorted by position.
///
/// # Panics
///
/// Panics if `events` is not sorted by position.
pub fn schedule_trace<F>(
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
        events.windows(2).all(|w| w[0].pos() <= w[1].pos()),
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
    let mut slots = SlotLedger::new(model.issue_width, model.fu_counts);
    let classes = OP_CLASSES.map(|c| ClassInfo {
        latency: u64::from(lat.latency(c)).max(1),
        kind: c.fu_kind().index(),
        blocking: matches!(c, OpClass::IntDiv | OpClass::FpDiv),
    });

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
        while next_event < events.len() && events[next_event].pos() == i {
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
        let class = classes[op.class().index()];
        let latency = match op.class() {
            OpClass::Load => load_latency(i).map_or(class.latency, |c| u64::from(c).max(1)),
            _ => class.latency,
        };
        let occupancy = if class.blocking { latency } else { 1 };
        slots.retire_before(e);
        let s = slots.allocate(start, class.kind, occupancy);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn params(d: u32, w: u32) -> WindowParams {
        WindowParams {
            dispatch_width: d,
            window_size: w,
        }
    }

    fn chain(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                MicroOp::alu(
                    i as u64 * 4,
                    OpClass::IntAlu,
                    [if i > 0 { Some(1) } else { None }, None],
                )
            })
            .collect()
    }

    fn independent(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntAlu, [None, None]))
            .collect()
    }

    #[test]
    fn independent_ops_track_dispatch_rate() {
        let ops = independent(16);
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        for i in 0..16 {
            assert_eq!(s.enter[i], i as u64 / 4);
            assert_eq!(
                s.resolution(i),
                2,
                "dispatch-to-issue plus execution when ILP is unbounded"
            );
        }
        assert_eq!(s.drain_time(), 5);
    }

    #[test]
    fn serial_chain_lag_grows_until_window_cap() {
        // ILP 1 against dispatch 4: the lag grows ~3 cycles per 4 ops
        // until the window constraint throttles entry.
        let ops = chain(256);
        let w = 32;
        let s = schedule_interval(&ops, params(4, w), &LatencyTable::unit(), |_| None, false);
        // Late in the interval the resolution saturates near W (the op
        // waits for the full window ahead of it to drain at 1/cycle).
        let late = s.resolution(255);
        assert!(
            (w as u64 - 4..=w as u64 + 5).contains(&late),
            "saturated resolution {late} should be near the window size {w}"
        );
        // Early ops have small resolution (ramp-up).
        assert!(s.resolution(4) < 8);
        // Monotone-ish growth from early to late.
        assert!(s.resolution(200) > s.resolution(10));
    }

    #[test]
    fn resolution_scales_with_latency() {
        let ops = chain(64);
        let unit = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        let mut lat3 = [1u32; 9];
        lat3[bmp_uarch::OpClass::IntAlu.index()] = 3;
        let table = LatencyTable::new(lat3).unwrap();
        let slow = schedule_interval(&ops, params(4, 64), &table, |_| None, false);
        assert!(
            slow.resolution(63) > unit.resolution(63) * 2,
            "3x latency should ~3x the chain drain: {} vs {}",
            slow.resolution(63),
            unit.resolution(63)
        );
    }

    #[test]
    fn load_latencies_are_injected() {
        // op1 is a load feeding op2.
        let ops = vec![
            MicroOp::alu(0, OpClass::IntAlu, [None, None]),
            MicroOp::load(4, 0x100, [Some(1), None]),
            MicroOp::alu(8, OpClass::IntAlu, [Some(1), None]),
        ];
        let fast = schedule_interval(
            &ops,
            params(4, 64),
            &LatencyTable::unit(),
            |_| Some(2),
            false,
        );
        let slow = schedule_interval(
            &ops,
            params(4, 64),
            &LatencyTable::unit(),
            |_| Some(14),
            false,
        );
        assert_eq!(slow.done[2] - fast.done[2], 12, "short-miss inflation");
    }

    #[test]
    fn ignore_deps_knocks_out_chains() {
        let ops = chain(64);
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, true);
        for i in 0..64 {
            assert_eq!(s.resolution(i), 2);
        }
    }

    #[test]
    fn out_of_interval_dependences_are_ready() {
        // distance 5 at position 0 reaches before the interval.
        let ops = vec![MicroOp::alu(0, OpClass::IntAlu, [Some(5), None])];
        let s = schedule_interval(&ops, params(4, 64), &LatencyTable::unit(), |_| None, false);
        assert_eq!(s.done[0], 2, "enter 0, issue 1, done 2");
    }

    #[test]
    fn empty_interval_is_fine() {
        let s = schedule_interval(&[], params(4, 64), &LatencyTable::unit(), |_| None, false);
        assert_eq!(s.drain_time(), 0);
    }

    #[test]
    fn window_params_from_config() {
        let cfg = bmp_uarch::presets::baseline_4wide();
        let p = WindowParams::from(&cfg);
        assert_eq!(p.dispatch_width, 4);
        assert_eq!(p.window_size, 64);
    }

    fn model4() -> MachineModel {
        MachineModel::from(&bmp_uarch::presets::baseline_4wide())
    }

    #[test]
    fn trace_schedule_ideal_code_runs_at_width() {
        // 4 independent streams of int ALU ops (4 units, width 4).
        let ops: Vec<MicroOp> = (0..4000)
            .map(|i| {
                MicroOp::alu(
                    i as u64 * 4,
                    OpClass::IntAlu,
                    [if i >= 4 { Some(4) } else { None }, None],
                )
            })
            .collect();
        let s = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::default(),
            |_| None,
            &[],
            false,
        );
        let cycles = s.total_cycles();
        assert!(
            (1000..=1020).contains(&cycles),
            "4000 ops at width 4 should take ~1000 cycles, got {cycles}"
        );
    }

    #[test]
    fn issue_width_caps_ready_bursts() {
        // All ops independent and ready at once — the issue ledger must
        // spread them at 4/cycle even though dependences allow 1 cycle.
        let ops = independent(64);
        let s = schedule_trace(&ops, model4(), &LatencyTable::unit(), |_| None, &[], false);
        // op 63 enters at cycle 15 and issues the cycle after.
        assert_eq!(s.issue[63], 16);
        // Force them ready early by ignoring entry pacing is not
        // possible; instead check no cycle got more than 4 issues.
        let mut per_cycle = std::collections::HashMap::new();
        for &t in &s.issue {
            *per_cycle.entry(t).or_insert(0u32) += 1;
        }
        assert!(per_cycle.values().all(|&c| c <= 4));
    }

    #[test]
    fn fu_capacity_binds_below_issue_width() {
        // Only 1 int mul/div unit: a burst of multiplies issues 1/cycle.
        let ops: Vec<MicroOp> = (0..16)
            .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntMul, [None, None]))
            .collect();
        let s = schedule_trace(&ops, model4(), &LatencyTable::unit(), |_| None, &[], false);
        let mut per_cycle = std::collections::HashMap::new();
        for &t in &s.issue {
            *per_cycle.entry(t).or_insert(0u32) += 1;
        }
        assert!(
            per_cycle.values().all(|&c| c <= 1),
            "one mul unit allows one multiply per cycle"
        );
    }

    #[test]
    fn mispredict_barrier_delays_following_ops() {
        let ops = independent(32);
        let events = [FrontendEvent::Mispredict { pos: 7 }];
        let s = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::unit(),
            |_| None,
            &events,
            false,
        );
        // done(7) = enter(7)+2 = 3; barrier = 3 + 5 = 8.
        assert_eq!(s.enter[8], s.done[7] + 5);
        // Ops before the barrier are unaffected.
        assert_eq!(s.enter[7], 1);
    }

    #[test]
    fn fetch_stall_shifts_entry() {
        let ops = independent(16);
        let events = [FrontendEvent::FetchStall { pos: 4, extra: 10 }];
        let s = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::unit(),
            |_| None,
            &events,
            false,
        );
        assert_eq!(s.enter[3], 0);
        assert_eq!(s.enter[4], 11, "1 cycle of pacing + 10 stall");
    }

    #[test]
    fn rob_cap_blocks_behind_long_miss() {
        // A long-miss load followed by >R independent ops: entry of op
        // load+R waits for the load's completion.
        let mut ops = vec![MicroOp::load(0, 0x100, [None, None])];
        ops.extend(independent(200));
        let s = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::unit(),
            |i| if i == 0 { Some(200) } else { None },
            &[],
            false,
        );
        let r = 128;
        assert!(
            s.enter[r] >= 200,
            "op R after the load must wait for ROB space: entered {}",
            s.enter[r]
        );
        assert!(s.enter[r - 1] < 200, "ops within ROB reach proceed");
    }

    #[test]
    fn coincident_stall_and_mispredict_apply_both() {
        let ops = independent(16);
        let events = [
            FrontendEvent::FetchStall { pos: 3, extra: 5 },
            FrontendEvent::Mispredict { pos: 3 },
        ];
        let s = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::unit(),
            |_| None,
            &events,
            false,
        );
        // Stall delays op 3 itself; the mispredict barrier gates op 4.
        assert!(s.enter[3] >= 5);
        assert_eq!(s.enter[4], s.done[3] + 5);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        let ops = independent(4);
        let events = [
            FrontendEvent::Mispredict { pos: 3 },
            FrontendEvent::Mispredict { pos: 1 },
        ];
        let _ = schedule_trace(
            &ops,
            model4(),
            &LatencyTable::unit(),
            |_| None,
            &events,
            false,
        );
    }

    #[test]
    fn empty_trace_schedule() {
        let s = schedule_trace(&[], model4(), &LatencyTable::unit(), |_| None, &[], false);
        assert_eq!(s.total_cycles(), 0);
    }
}
