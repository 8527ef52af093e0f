//! The general-event scheduler tier: a calendar queue behind a small
//! [`Scheduler`] abstraction.
//!
//! The kernel orders everything by the total order `(time, seq)` — timestamp
//! first, FIFO sequence number as the tie-break. Any correct priority queue
//! therefore pops the *identical* sequence, which is what lets a golden-trace
//! suite pin a whole data structure swap to bit-exactness.
//!
//! [`CalendarQueue`] is the implementation: R. Brown's calendar
//! queue (CACM 1988), an array of time-bucketed, sorted "days" scanned by a
//! rotating cursor. With the bucket count tracking the queue size and the
//! bucket width tracking the mean event spacing, enqueue and dequeue are
//! amortized O(1) — at thousands of components a simulation keeps hundreds of
//! concurrent events resident, where the heap's `log n` sift and its
//! pointer-chasing layout start to show up in profiles.
//!
//! Its equivalence with a `std::collections::BinaryHeap` reference over
//! arbitrary operation interleavings is property-tested at the bottom of this
//! file.

use crate::metrics::CalendarStats;
use crate::time::SimTime;

/// A priority-queue tier ordered by the kernel's `(time, seq)` total order.
///
/// `E` is the event payload. The scheduler never inspects it; ordering comes
/// solely from the `(time, seq)` key, and `seq` values are unique (the kernel
/// hands out monotonically increasing sequence numbers), so the pop order of
/// any two correct implementations is identical element for element.
pub trait Scheduler<E> {
    /// Insert an event at `(time, seq)`.
    fn schedule(&mut self, time: SimTime, seq: u64, event: E);
    /// The earliest `(time, seq)` key, if any. `&mut` because implementations
    /// may advance internal cursors while locating the minimum.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// Remove and return the earliest event.
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One scheduled entry.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// ---------------------------------------------------------------------------
// Production implementation: calendar queue
// ---------------------------------------------------------------------------

/// Smallest number of buckets the calendar ever uses (power of two).
const MIN_BUCKETS: usize = 16;
/// Occupancy above which the queue switches from the sorted-vector small
/// tier to the bucketed calendar.
const SMALL_MAX: usize = 48;
/// Occupancy below which a bucketed queue migrates back to the small tier
/// (hysteresis: well under `SMALL_MAX` so border workloads do not thrash).
const SMALL_REENTER: usize = 16;
/// Bucket-width bounds, as powers of two of nanoseconds: 2^10 ns ≈ 1 µs up to
/// 2^24 ns ≈ 16.8 ms (beyond the longest inter-event gap a MAC-scale model
/// produces outside second-scale housekeeping ticks, which the year check
/// handles anyway).
const MIN_WIDTH_SHIFT: u32 = 10;
const MAX_WIDTH_SHIFT: u32 = 24;
/// Initial bucket width: 2^13 ns = 8.192 µs.
const INIT_WIDTH_SHIFT: u32 = 13;

/// Brown's calendar queue over the `(time, seq)` total order, with a
/// sorted-vector tier for small occupancies.
///
/// **Small tier** (≤ `SMALL_MAX` entries): one vector sorted descending by
/// `(time, seq)` — a degenerate one-bucket calendar. A small simulation keeps
/// only a handful of general events in flight, and at that size a
/// binary-searched `memmove` of a few dozen bytes beats any bucketed scheme's
/// cursor machinery.
///
/// **Bucketed tier** (past the threshold, with hysteresis): the calendar
/// proper, for workloads that keep hundreds of concurrent events resident:
///
/// * Buckets are "days": an event with timestamp `t` lives in bucket
///   `(t >> width_shift) & (num_buckets - 1)`. Widths and bucket counts are
///   powers of two so indexing is a shift and a mask.
/// * Each bucket is kept sorted **descending** by `(time, seq)`, so the
///   bucket's earliest entry is `last()` and removal is an O(1) `pop()`;
///   insertion is a binary search plus an `insert`, O(1) amortized while the
///   width keeps bucket occupancy O(1).
/// * A cursor `(cursor, day_end)` rotates through the buckets one day at a
///   time. A bucket's head is popped only if it falls before `day_end`
///   (events of a later "year" wait for a later rotation). If a full
///   rotation finds nothing — the queue is sparse relative to its width —
///   the cursor long-jumps straight to the globally earliest entry.
/// * On every doubling/halving resize (and after streaks of long-jumps) the
///   width is re-estimated from the current span-per-event, keeping bucket
///   occupancy O(1) as the event population drifts.
///
/// The structure is exactly deterministic: no randomness, and every decision
/// depends only on the operation sequence.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The small tier (sorted descending); active while `bucketed` is false.
    small: Vec<Entry<E>>,
    /// Whether the bucketed calendar tier is active.
    bucketed: bool,
    buckets: Vec<Vec<Entry<E>>>,
    /// `num_buckets - 1`; bucket count is always a power of two.
    mask: usize,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    size: usize,
    /// Bucket the cursor currently scans.
    cursor: usize,
    /// Exclusive end of the cursor bucket's current day window (ns).
    day_end: u64,
    /// Consecutive pops that needed the long-jump fallback. A streak means
    /// the bucket width is far below the actual event spacing, so the width
    /// is re-estimated from the live span.
    rotation_misses: u32,
    /// Current long-jump streak for telemetry (unlike `rotation_misses`, not
    /// reset when a width retune fires, so the true streak length survives).
    long_jump_streak: u32,
    /// Lifetime adaptation tallies (cold paths only; see
    /// [`CalendarStats`]).
    tallies: CalendarTallies,
}

/// Lifetime counts of the calendar queue's adaptation events. All
/// increments sit on cold paths — a migration, resize, retune or long-jump
/// happens at most once per occupancy regime change or sparse streak, never
/// on an ordinary push or pop.
#[derive(Debug, Clone, Copy, Default)]
struct CalendarTallies {
    migrations_to_buckets: u64,
    migrations_to_small: u64,
    resizes: u64,
    width_retunes: u64,
    long_jumps: u64,
    max_long_jump_streak: u32,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Create an empty calendar queue.
    pub fn new() -> Self {
        let mut q = CalendarQueue {
            small: Vec::new(),
            bucketed: false,
            buckets: Vec::new(),
            mask: MIN_BUCKETS - 1,
            width_shift: INIT_WIDTH_SHIFT,
            size: 0,
            cursor: 0,
            day_end: 0,
            rotation_misses: 0,
            long_jump_streak: 0,
            tallies: CalendarTallies::default(),
        };
        q.buckets = (0..MIN_BUCKETS).map(|_| Vec::new()).collect();
        q.day_end = q.width();
        q
    }

    /// The small tier outgrew its threshold: pour it into the calendar,
    /// sizing the bucket count to the population and the width to the span.
    fn migrate_to_buckets(&mut self) {
        self.bucketed = true;
        self.tallies.migrations_to_buckets += 1;
        let entries = std::mem::take(&mut self.small);
        let nb = entries.len().next_power_of_two().max(MIN_BUCKETS);
        // Width from the live span (the entries are sorted descending, so
        // the span is last-to-first).
        if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
            let span = first.time.as_nanos().saturating_sub(last.time.as_nanos());
            if span > 0 {
                let gap = span / entries.len() as u64;
                self.width_shift =
                    (64 - gap.max(1).leading_zeros()).clamp(MIN_WIDTH_SHIFT, MAX_WIDTH_SHIFT);
            }
        }
        self.mask = nb - 1;
        self.buckets = (0..nb).map(|_| Vec::new()).collect();
        let mut floor = u64::MAX;
        for e in entries {
            floor = floor.min(e.time.as_nanos());
            let idx = self.bucket_of(e.time.as_nanos());
            Self::insert_sorted(&mut self.buckets[idx], e);
        }
        if floor != u64::MAX {
            self.seek_to(floor);
        }
    }

    /// The calendar drained below the re-entry threshold: fold it back into
    /// the sorted small tier.
    fn migrate_to_small(&mut self) {
        self.bucketed = false;
        self.tallies.migrations_to_small += 1;
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.size);
        for b in &mut self.buckets {
            entries.append(b);
        }
        // Descending by (time, seq): the minimum sits at the end.
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        self.small = entries;
        self.rotation_misses = 0;
    }

    #[inline]
    fn width(&self) -> u64 {
        1u64 << self.width_shift
    }

    #[inline]
    fn bucket_of(&self, t_ns: u64) -> usize {
        ((t_ns >> self.width_shift) as usize) & self.mask
    }

    /// Point the cursor at the day containing time `t_ns`.
    fn seek_to(&mut self, t_ns: u64) {
        self.cursor = self.bucket_of(t_ns);
        self.day_end = (t_ns >> self.width_shift)
            .saturating_add(1)
            .saturating_mul(self.width());
    }

    /// Insert into `bucket`, keeping it sorted descending by `(time, seq)`.
    fn insert_sorted(bucket: &mut Vec<Entry<E>>, entry: Entry<E>) {
        let key = entry.key();
        // Descending order: find the first element whose key is smaller.
        let pos = bucket.partition_point(|e| e.key() > key);
        bucket.insert(pos, entry);
    }

    /// Locate the bucket holding the globally earliest entry, advancing the
    /// cursor. Returns `None` when empty.
    fn find_min_bucket(&mut self) -> Option<usize> {
        if self.size == 0 {
            return None;
        }
        // Rotate at most one full year from the cursor.
        let nb = self.mask + 1;
        let mut cursor = self.cursor;
        let mut day_end = self.day_end;
        for _ in 0..nb {
            if let Some(head) = self.buckets[cursor].last() {
                if head.time.as_nanos() < day_end {
                    self.cursor = cursor;
                    self.day_end = day_end;
                    self.rotation_misses = 0;
                    self.long_jump_streak = 0;
                    return Some(cursor);
                }
            }
            cursor = (cursor + 1) & self.mask;
            day_end = day_end.saturating_add(self.width());
        }
        // A streak of misses: the width is badly below the event spacing.
        // Re-estimate it so subsequent scans hit within a day or two.
        self.rotation_misses += 1;
        self.tallies.long_jumps += 1;
        self.long_jump_streak += 1;
        self.tallies.max_long_jump_streak =
            self.tallies.max_long_jump_streak.max(self.long_jump_streak);
        if self.rotation_misses >= 4 {
            self.rotation_misses = 0;
            self.retune_width();
        }
        // Sparse queue: long-jump to the global minimum. Equal-time heads
        // always share a bucket (the bucket index is a function of the time),
        // so comparing head keys across buckets needs no seq tie-break.
        let mut best: Option<((u64, u64), usize)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(head) = b.last() {
                let k = (head.time.as_nanos(), head.seq);
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, i));
                }
            }
        }
        let ((t, _), i) = best.expect("size > 0 but no bucket head");
        self.seek_to(t);
        debug_assert_eq!(self.cursor, i);
        Some(i)
    }

    /// Width estimate: span of pending timestamps divided by their count,
    /// i.e. the mean gap, rounded up to a power of two and clamped. `None`
    /// with fewer than two distinct timestamps.
    fn estimated_width_shift(&self) -> Option<u32> {
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for b in &self.buckets {
            for e in b {
                let t = e.time.as_nanos();
                min_t = min_t.min(t);
                max_t = max_t.max(t);
            }
        }
        if self.size > 1 && max_t > min_t {
            let gap = (max_t - min_t) / self.size as u64;
            Some((64 - gap.max(1).leading_zeros()).clamp(MIN_WIDTH_SHIFT, MAX_WIDTH_SHIFT))
        } else {
            None
        }
    }

    /// Rebuild the bucket array (same or new count) under the current width
    /// and re-aim the cursor at the earliest pending entry.
    fn redistribute(&mut self, new_nb: usize) {
        let old = std::mem::take(&mut self.buckets);
        self.mask = new_nb - 1;
        self.buckets = (0..new_nb).map(|_| Vec::new()).collect();
        let mut floor = u64::MAX;
        for b in old {
            for e in b {
                floor = floor.min(e.time.as_nanos());
                let idx = self.bucket_of(e.time.as_nanos());
                Self::insert_sorted(&mut self.buckets[idx], e);
            }
        }
        if floor != u64::MAX {
            self.seek_to(floor);
        } else {
            self.cursor = 0;
            self.day_end = self.width();
        }
    }

    /// Re-estimate the width from the live span and redistribute if it
    /// changed. Called after a streak of long-jump fallbacks: the bucket
    /// count tracks occupancy, but only this adapts the *width* when the
    /// queue is sparse (a few events spread over hundreds of microseconds
    /// would otherwise long-jump on every single pop).
    fn retune_width(&mut self) {
        if let Some(shift) = self.estimated_width_shift() {
            if shift != self.width_shift {
                self.width_shift = shift;
                self.tallies.width_retunes += 1;
                self.redistribute(self.mask + 1);
            }
        }
    }

    /// A point-in-time structure snapshot plus the lifetime adaptation
    /// tallies. The occupancy scan is O(buckets) and runs only when a report
    /// is assembled, never during scheduling.
    pub fn stats(&self) -> CalendarStats {
        let (buckets, max_occupancy, len) = if self.bucketed {
            (
                (self.mask + 1) as u64,
                self.buckets.iter().map(Vec::len).max().unwrap_or(0) as u64,
                self.size as u64,
            )
        } else {
            (1, self.small.len() as u64, self.small.len() as u64)
        };
        CalendarStats {
            bucketed: self.bucketed,
            buckets,
            width_shift: self.width_shift,
            len,
            max_bucket_occupancy: max_occupancy,
            migrations_to_buckets: self.tallies.migrations_to_buckets,
            migrations_to_small: self.tallies.migrations_to_small,
            resizes: self.tallies.resizes,
            width_retunes: self.tallies.width_retunes,
            long_jumps: self.tallies.long_jumps,
            max_long_jump_streak: self.tallies.max_long_jump_streak,
        }
    }

    /// Double or halve the bucket array when the size leaves the sweet spot,
    /// re-estimating the width from the current event span.
    fn maybe_resize(&mut self) {
        let nb = self.mask + 1;
        let (grow, shrink) = (self.size > nb * 2, self.size < nb / 2 && nb > MIN_BUCKETS);
        if !grow && !shrink {
            return;
        }
        let new_nb = if grow { nb * 2 } else { nb / 2 };
        self.tallies.resizes += 1;
        if let Some(shift) = self.estimated_width_shift() {
            self.width_shift = shift;
        }
        self.redistribute(new_nb);
    }
}

impl<E: Clone> CalendarQueue<E> {
    /// Clone out every pending entry as `(time, seq, event)`, in no
    /// particular order.
    ///
    /// This is the checkpoint extraction path: because pop order is a pure
    /// function of the `(time, seq)` entry multiset, re-`schedule`-ing these
    /// entries (with their original sequence numbers) into a *fresh* queue
    /// reproduces the identical pop sequence — none of the cursor, width or
    /// migration state needs to round-trip.
    pub fn entries(&self) -> Vec<(SimTime, u64, E)> {
        let mut out = Vec::with_capacity(if self.bucketed {
            self.size
        } else {
            self.small.len()
        });
        if self.bucketed {
            for bucket in &self.buckets {
                out.extend(bucket.iter().map(|e| (e.time, e.seq, e.event.clone())));
            }
        } else {
            out.extend(self.small.iter().map(|e| (e.time, e.seq, e.event.clone())));
        }
        out
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn schedule(&mut self, time: SimTime, seq: u64, event: E) {
        if !self.bucketed {
            Self::insert_sorted(&mut self.small, Entry { time, seq, event });
            if self.small.len() > SMALL_MAX {
                self.size = self.small.len();
                self.migrate_to_buckets();
            }
            return;
        }
        let t_ns = time.as_nanos();
        let idx = self.bucket_of(t_ns);
        Self::insert_sorted(&mut self.buckets[idx], Entry { time, seq, event });
        self.size += 1;
        // A simulation only schedules at or after `now`, so new events
        // normally land at or after the cursor's day. Guard the general case
        // anyway (the property tests exercise it): an event earlier than the
        // current day pulls the cursor back so it is not skipped.
        if t_ns < self.day_end.saturating_sub(self.width()) {
            self.seek_to(t_ns);
        }
        self.maybe_resize();
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.bucketed {
            return self.small.last().map(Entry::key);
        }
        self.find_min_bucket()
            .map(|i| self.buckets[i].last().expect("min bucket non-empty").key())
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if !self.bucketed {
            return self.small.pop().map(|e| (e.time, e.seq, e.event));
        }
        let i = self.find_min_bucket()?;
        let e = self.buckets[i].pop().expect("min bucket non-empty");
        self.size -= 1;
        if self.size < SMALL_REENTER {
            self.migrate_to_small();
        } else {
            self.maybe_resize();
        }
        Some((e.time, e.seq, e.event))
    }

    fn len(&self) -> usize {
        if self.bucketed {
            self.size
        } else {
            self.small.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The executable specification the calendar queue is checked against:
    /// a binary heap popping the earliest `(time, seq)` first. `seq` is
    /// unique, so the payload never takes part in the ordering.
    struct BinaryHeapScheduler<E>(BinaryHeap<Reverse<(SimTime, u64, E)>>);

    impl<E: Ord> BinaryHeapScheduler<E> {
        fn new() -> Self {
            BinaryHeapScheduler(BinaryHeap::new())
        }
    }

    impl<E: Ord> Scheduler<E> for BinaryHeapScheduler<E> {
        fn schedule(&mut self, time: SimTime, seq: u64, event: E) {
            self.0.push(Reverse((time, seq, event)));
        }

        fn peek_key(&mut self) -> Option<(SimTime, u64)> {
            self.0.peek().map(|Reverse((time, seq, _))| (*time, *seq))
        }

        fn pop(&mut self) -> Option<(SimTime, u64, E)> {
            self.0.pop().map(|Reverse(entry)| entry)
        }

        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// Deterministic xorshift for the non-proptest smoke tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(SimTime::from_micros(30), 0, 0);
        q.schedule(SimTime::from_micros(10), 1, 1);
        q.schedule(SimTime::from_micros(10), 2, 2);
        q.schedule(SimTime::from_micros(20), 3, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn survives_growth_shrink_cycles() {
        let mut q: CalendarQueue<usize> = CalendarQueue::new();
        let mut heap: BinaryHeapScheduler<usize> = BinaryHeapScheduler::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut seq = 0u64;
        let mut floor = 0u64;
        for round in 0..6 {
            // Push a big burst, then drain most of it, forcing resizes.
            for i in 0..1000 {
                let t = floor + xorshift(&mut state) % 5_000_000;
                q.schedule(SimTime::from_nanos(t), seq, i);
                heap.schedule(SimTime::from_nanos(t), seq, i);
                seq += 1;
            }
            for _ in 0..(900 + round * 10) {
                let a = q.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _, _)) = a {
                    floor = t.as_nanos();
                }
            }
        }
        while let Some(b) = heap.pop() {
            assert_eq!(q.pop(), Some(b));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn sparse_far_future_events_long_jump() {
        // One event a full second away (a housekeeping tick) among
        // microsecond traffic: rotation finds nothing, the long-jump must
        // find it.
        let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
        q.schedule(SimTime::from_secs(1), 0, "tick");
        q.schedule(SimTime::from_micros(5), 1, "tx");
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("tx"));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("tick"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn entries_rescheduled_into_a_fresh_queue_pop_identically() {
        // Both tiers: small (a handful of events) and bucketed (hundreds).
        for n in [5usize, 500] {
            let mut q: CalendarQueue<usize> = CalendarQueue::new();
            let mut state = 0x0dd0_13a2_55aa_1234u64;
            for i in 0..n {
                let t = xorshift(&mut state) % 3_000_000;
                q.schedule(SimTime::from_nanos(t), i as u64, i);
            }
            // Drain a prefix so the cursor and size state are mid-flight.
            for _ in 0..n / 3 {
                q.pop();
            }
            let mut rebuilt: CalendarQueue<usize> = CalendarQueue::new();
            for (t, s, e) in q.entries() {
                rebuilt.schedule(t, s, e);
            }
            assert_eq!(rebuilt.len(), q.len());
            loop {
                let a = q.pop();
                let b = rebuilt.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The calendar queue and the reference heap pop identical
        /// `(time, seq)` sequences for arbitrary push/pop interleavings,
        /// including past-the-cursor pushes (delta 0 at a dense time base).
        #[test]
        fn calendar_matches_heap(
            ops in proptest::collection::vec((0u64..3, 0u64..200_000), 1..400),
        ) {
            let mut cq: CalendarQueue<u64> = CalendarQueue::new();
            let mut heap: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // kernel contract: schedule at or after `now`
            for (op, t) in ops {
                if op == 0 && cq.len() > 0 {
                    prop_assert_eq!(cq.peek_key(), heap.peek_key());
                    let a = cq.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    if let Some((t, _, _)) = a { floor = t.as_nanos(); }
                } else {
                    let time = SimTime::from_nanos(floor + t);
                    cq.schedule(time, seq, seq);
                    heap.schedule(time, seq, seq);
                    seq += 1;
                }
            }
            while let Some(b) = heap.pop() {
                prop_assert_eq!(cq.pop(), Some(b));
            }
            prop_assert!(cq.pop().is_none());
        }

        /// Same equivalence with no monotonicity contract at all: pushes may
        /// land arbitrarily far before the cursor's current day.
        #[test]
        fn calendar_matches_heap_unordered(
            ops in proptest::collection::vec((0u64..4, 0u64..50_000_000), 1..300),
        ) {
            let mut cq: CalendarQueue<u64> = CalendarQueue::new();
            let mut heap: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
            let mut seq = 0u64;
            for (op, t) in ops {
                if op == 0 && cq.len() > 0 {
                    let a = cq.pop();
                    prop_assert_eq!(a, heap.pop());
                } else {
                    let time = SimTime::from_nanos(t);
                    cq.schedule(time, seq, seq);
                    heap.schedule(time, seq, seq);
                    seq += 1;
                }
            }
            while let Some(b) = heap.pop() {
                prop_assert_eq!(cq.pop(), Some(b));
            }
        }
    }
}
