//! Segmentation of the instruction stream into inter-miss intervals.

use bmp_uarch::HierarchyConfig;
use serde::{Deserialize, Serialize};

/// The miss-event kinds of interval analysis. They order as declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IntervalEventKind {
    /// Mispredicted branch (conditional direction or return target).
    BranchMispredict,
    /// L1 I-cache miss served by the L2.
    ICacheMiss,
    /// Instruction fetch that went to memory.
    ICacheLongMiss,
    /// Load served by memory.
    LongDCacheMiss,
}

impl IntervalEventKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            IntervalEventKind::BranchMispredict => "bmiss",
            IntervalEventKind::ICacheMiss => "il1",
            IntervalEventKind::ICacheLongMiss => "il2",
            IntervalEventKind::LongDCacheMiss => "dlong",
        }
    }

    /// The fetch stall an I-cache miss of this kind injects, in cycles:
    /// the short-miss latency when the L2 serves it, plus the memory
    /// latency when memory does. `None` for the other kinds.
    pub fn fetch_stall(self, caches: &HierarchyConfig) -> Option<u32> {
        match self {
            IntervalEventKind::ICacheMiss => Some(caches.short_dmiss_latency()),
            IntervalEventKind::ICacheLongMiss => {
                Some(caches.short_dmiss_latency() + caches.mem_latency())
            }
            IntervalEventKind::BranchMispredict | IntervalEventKind::LongDCacheMiss => None,
        }
    }
}

/// One miss event, positioned in the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalEvent {
    /// Dynamic-instruction index the event is attached to.
    pub pos: usize,
    /// What happened there.
    pub kind: IntervalEventKind,
}

/// One inter-miss interval: the instructions from just after the previous
/// miss event up to and including the instruction carrying this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interval {
    /// First instruction of the interval.
    pub start: usize,
    /// The instruction carrying the terminating event (inclusive).
    pub end: usize,
    /// Kind of the terminating event, or `None` for the final partial
    /// interval that runs to the end of the trace.
    pub kind: Option<IntervalEventKind>,
}

impl Interval {
    /// Number of instructions in the interval (including the event
    /// instruction). Never zero — an interval always contains at least
    /// its event instruction, so there is deliberately no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// `true` when the interval holds a single instruction (back-to-back
    /// events — maximal burstiness).
    pub fn is_single(&self) -> bool {
        self.len() == 1
    }
}

/// Splits a trace of `n_ops` instructions into intervals at `events`.
///
/// `events` must be sorted by position (as produced by
/// [`FunctionalOutcome`](crate::FunctionalOutcome) or by sorting a
/// simulator event log); consecutive events at the same position are
/// collapsed into one interval boundary, keeping the first kind. A final
/// partial interval (with `kind: None`) covers any tail after the last
/// event.
///
/// # Panics
///
/// Panics if `events` is not sorted or an event position is out of range.
///
/// # Examples
///
/// ```
/// use bmp_core::{segment, IntervalEvent, IntervalEventKind};
///
/// let events = [
///     IntervalEvent { pos: 9, kind: IntervalEventKind::BranchMispredict },
///     IntervalEvent { pos: 29, kind: IntervalEventKind::LongDCacheMiss },
/// ];
/// let ivs = segment(40, &events);
/// assert_eq!(ivs.len(), 3);
/// assert_eq!(ivs[0].len(), 10);
/// assert_eq!(ivs[1].len(), 20);
/// assert_eq!(ivs[2].kind, None);
/// ```
pub fn segment(n_ops: usize, events: &[IntervalEvent]) -> Vec<Interval> {
    let mut intervals = Vec::with_capacity(events.len() + 1);
    let mut start = 0usize;
    let mut last_pos: Option<usize> = None;
    for e in events {
        assert!(e.pos < n_ops, "event position {} out of range", e.pos);
        if let Some(lp) = last_pos {
            assert!(e.pos >= lp, "events must be sorted by position");
            if e.pos == lp {
                // Same instruction carries several events; one boundary.
                continue;
            }
        }
        intervals.push(Interval {
            start,
            end: e.pos,
            kind: Some(e.kind),
        });
        start = e.pos + 1;
        last_pos = Some(e.pos);
    }
    if start < n_ops {
        intervals.push(Interval {
            start,
            end: n_ops - 1,
            kind: None,
        });
    }
    intervals
}

/// Histogram of interval lengths with logarithmic-ish buckets, used by
/// the burstiness characterization (E-F4).
///
/// Bucket `i` covers lengths in `[BUCKETS[i], BUCKETS[i+1])`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalLengthHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Bucket boundaries for [`IntervalLengthHistogram`].
pub const LENGTH_BUCKETS: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

impl IntervalLengthHistogram {
    /// Builds the histogram from a set of intervals (the final partial
    /// interval, if present, is excluded — it has no terminating event).
    pub fn from_intervals(intervals: &[Interval]) -> Self {
        let mut counts = vec![0u64; LENGTH_BUCKETS.len() + 1];
        let mut total = 0;
        for iv in intervals.iter().filter(|iv| iv.kind.is_some()) {
            let len = iv.len();
            let bucket = LENGTH_BUCKETS
                .iter()
                .position(|&b| len < b)
                .map(|p| p.saturating_sub(1))
                .unwrap_or(LENGTH_BUCKETS.len());
            // position() gives the first boundary exceeding len; bucket
            // index is one less. len >= 1 always, so position 0 never
            // fires (boundary 1 <= len).
            counts[bucket] += 1;
            total += 1;
        }
        Self { counts, total }
    }

    /// Count in bucket `i` (see [`LENGTH_BUCKETS`]); the final bucket
    /// holds everything at or beyond the last boundary.
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts[bucket]
    }

    /// Number of buckets (boundaries + overflow).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total intervals recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of intervals in bucket `i`.
    pub fn fraction(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[bucket] as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pos: usize, kind: IntervalEventKind) -> IntervalEvent {
        IntervalEvent { pos, kind }
    }

    #[test]
    fn segments_with_tail() {
        let events = [
            ev(4, IntervalEventKind::BranchMispredict),
            ev(5, IntervalEventKind::BranchMispredict),
            ev(19, IntervalEventKind::ICacheMiss),
        ];
        let ivs = segment(30, &events);
        assert_eq!(ivs.len(), 4);
        assert_eq!((ivs[0].start, ivs[0].end, ivs[0].len()), (0, 4, 5));
        assert_eq!(ivs[1].len(), 1, "back-to-back events give a 1-interval");
        assert!(ivs[1].is_single());
        assert_eq!(ivs[2].len(), 14);
        assert_eq!(ivs[3].kind, None);
        assert_eq!(ivs[3].end, 29);
    }

    #[test]
    fn no_events_gives_one_partial_interval() {
        let ivs = segment(10, &[]);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].kind, None);
        assert_eq!(ivs[0].len(), 10);
    }

    #[test]
    fn event_on_last_instruction_leaves_no_tail() {
        let ivs = segment(10, &[ev(9, IntervalEventKind::LongDCacheMiss)]);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].kind, Some(IntervalEventKind::LongDCacheMiss));
    }

    #[test]
    fn coincident_events_collapse() {
        let ivs = segment(
            10,
            &[
                ev(3, IntervalEventKind::ICacheMiss),
                ev(3, IntervalEventKind::BranchMispredict),
            ],
        );
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].kind, Some(IntervalEventKind::ICacheMiss));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        let _ = segment(
            10,
            &[
                ev(5, IntervalEventKind::ICacheMiss),
                ev(3, IntervalEventKind::ICacheMiss),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_event_panics() {
        let _ = segment(5, &[ev(5, IntervalEventKind::ICacheMiss)]);
    }

    #[test]
    fn lengths_partition_the_trace() {
        let events = [
            ev(10, IntervalEventKind::BranchMispredict),
            ev(11, IntervalEventKind::BranchMispredict),
            ev(99, IntervalEventKind::LongDCacheMiss),
        ];
        let n = 250;
        let ivs = segment(n, &events);
        let total: usize = ivs.iter().map(|iv| iv.len()).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn histogram_buckets() {
        let ivs = [
            Interval {
                start: 0,
                end: 0,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 1
            Interval {
                start: 1,
                end: 3,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 3
            Interval {
                start: 4,
                end: 600,
                kind: Some(IntervalEventKind::BranchMispredict),
            }, // len 597
            Interval {
                start: 601,
                end: 700,
                kind: None,
            }, // excluded
        ];
        let h = IntervalLengthHistogram::from_intervals(&ivs);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0), 1, "len 1 in bucket [1,2)");
        assert_eq!(h.count(1), 1, "len 3 in bucket [2,4)");
        assert_eq!(h.count(LENGTH_BUCKETS.len()), 1, "len 597 in overflow");
        assert!((h.fraction(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_edges() {
        // len exactly at boundary 8 belongs to bucket [8,16) = index 3.
        let ivs = [Interval {
            start: 0,
            end: 7,
            kind: Some(IntervalEventKind::ICacheMiss),
        }];
        let h = IntervalLengthHistogram::from_intervals(&ivs);
        assert_eq!(h.count(3), 1);
    }
}
