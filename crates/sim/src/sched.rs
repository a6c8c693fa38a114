//! Wakeup calendar for the wakeup-driven cycle scheduler.
//!
//! [`System::run`](crate::System::run) keeps a central calendar of *fill
//! wakeups*: every cache with an outstanding MSHR fill registers the cycle
//! its earliest fill lands, and a simulated cycle only walks the components
//! whose wakeup is due. The calendar is a lazy-deletion min-heap: re-arming
//! a component pushes a fresh entry and the stale one is discarded when it
//! surfaces, validated against the `armed` mirror. Component ids are dense
//! (`0..3 * cores + 1`) and any core count fits; in oracle mode
//! ([`crate::SimConfig::no_fastpath`]) the loop shadow-checks the calendar
//! against the polled fill heaps every cycle. See DESIGN.md §10 for the
//! full re-arm contract and the exactness argument.

use crate::cache::FILL_UNKNOWN;
use crate::config::Cycle;
use crate::telemetry::{FromJson, JsonValue, ToJson};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Calendar component id of the shared LLC fill heap.
pub const COMP_LLC: u32 = 0;

/// Calendar component id of core `ci`'s L2 fill heap.
#[inline]
pub const fn comp_l2(ci: usize) -> u32 {
    1 + 3 * ci as u32
}

/// Calendar component id of core `ci`'s L1D fill heap.
#[inline]
pub const fn comp_l1d(ci: usize) -> u32 {
    2 + 3 * ci as u32
}

/// Calendar component id of core `ci`'s L1I fill heap.
#[inline]
pub const fn comp_l1i(ci: usize) -> u32 {
    3 + 3 * ci as u32
}

/// Prefetch-queue bit for the shared LLC in the active-PQ bitset. Each
/// cache's PQ bit equals its fill component id.
pub const PQ_LLC: u32 = 0;

/// Prefetch-queue bit for core `ci`'s L2 PQ.
#[inline]
pub const fn pq_l2(ci: usize) -> u32 {
    1 + 3 * ci as u32
}

/// Prefetch-queue bit for core `ci`'s L1D PQ.
#[inline]
pub const fn pq_l1d(ci: usize) -> u32 {
    2 + 3 * ci as u32
}

/// Prefetch-queue bit for core `ci`'s L1I PQ (the I-side prefetcher slot).
#[inline]
pub const fn pq_l1i(ci: usize) -> u32 {
    3 + 3 * ci as u32
}

/// Scheduler observability counters, exported through the telemetry sidecar
/// when `IPCP_SCHED_STATS` is set (see [`crate::SimReport`]). Maintained
/// unconditionally — a few integer adds per cycle — so enabling the export
/// cannot perturb simulation behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Calendar entries that came due and were dispatched to a component.
    pub wakeups_fired: u64,
    /// Cycles the scheduler actually executed (touched at least one gate).
    pub executed_cycles: u64,
    /// Idle cycles jumped over without executing anything.
    pub skipped_cycles: u64,
    /// High-water mark of live entries in the wakeup heap (including stale
    /// lazy-deletion residue — it bounds memory, not logical pending work).
    pub heap_peak: u64,
}

impl ToJson for SchedStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("wakeups_fired", self.wakeups_fired)
            .set("executed_cycles", self.executed_cycles)
            .set("skipped_cycles", self.skipped_cycles)
            .set("heap_peak", self.heap_peak)
    }
}

impl FromJson for SchedStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("sched: missing or non-integer `{name}`"))
        };
        Ok(SchedStats {
            wakeups_fired: field("wakeups_fired")?,
            executed_cycles: field("executed_cycles")?,
            skipped_cycles: field("skipped_cycles")?,
            heap_peak: field("heap_peak")?,
        })
    }
}

/// Lazy-deletion min-heap of `(cycle, component)` wakeups.
///
/// `armed[id]` mirrors the most recent registration for each component
/// (`FILL_UNKNOWN` = disarmed); a heap entry is live iff it matches the
/// mirror, and stale entries are skipped when they reach the top. Re-arming
/// with an unchanged cycle is free (no duplicate push), which matters
/// because fill-heap minima are re-registered after every MSHR allocation.
#[derive(Debug, Clone)]
pub struct Calendar {
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    armed: Vec<Cycle>,
    heap_peak: u64,
}

impl Calendar {
    /// A calendar over `components` ids (`0..components`).
    pub fn new(components: usize) -> Self {
        Calendar {
            heap: BinaryHeap::with_capacity(components * 2),
            armed: vec![FILL_UNKNOWN; components],
            heap_peak: 0,
        }
    }

    /// Registers component `id`'s next wakeup at cycle `t`, replacing any
    /// previous registration. `FILL_UNKNOWN` disarms the component.
    #[inline]
    pub fn note(&mut self, id: u32, t: Cycle) {
        if self.armed[id as usize] == t {
            return;
        }
        self.armed[id as usize] = t;
        if t != FILL_UNKNOWN {
            self.heap.push(Reverse((t, id)));
            self.heap_peak = self.heap_peak.max(self.heap.len() as u64);
        }
    }

    /// Pops the earliest live wakeup due at or before `now`, disarming its
    /// component. Stale entries encountered on the way are discarded.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<u32> {
        while let Some(&Reverse((t, id))) = self.heap.peek() {
            if self.armed[id as usize] != t {
                self.heap.pop();
                continue;
            }
            if t > now {
                return None;
            }
            self.heap.pop();
            self.armed[id as usize] = FILL_UNKNOWN;
            return Some(id);
        }
        None
    }

    /// The earliest live wakeup, if any. Discards stale entries.
    #[inline]
    pub fn peek_min(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((t, id))) = self.heap.peek() {
            if self.armed[id as usize] != t {
                self.heap.pop();
                continue;
            }
            return Some(t);
        }
        None
    }

    /// High-water mark of heap entries, for [`SchedStats::heap_peak`].
    pub fn heap_peak(&self) -> u64 {
        self.heap_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wider than one 64-bit word, so a bitset over the ids spans words.
    const WIDE_CORES: usize = 32;

    #[test]
    fn component_ids_are_dense_and_disjoint() {
        let cores = WIDE_CORES;
        let mut seen = vec![false; 3 * cores + 1];
        seen[COMP_LLC as usize] = true;
        for ci in 0..cores {
            for id in [comp_l2(ci), comp_l1d(ci), comp_l1i(ci)] {
                assert!(!seen[id as usize], "id {id} collides");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "ids must be dense");
    }

    #[test]
    fn pq_bits_are_dense_and_disjoint() {
        // Dense and disjoint because each PQ bit is its cache's component id.
        assert_eq!(PQ_LLC, COMP_LLC);
        for ci in 0..WIDE_CORES {
            assert_eq!(pq_l2(ci), comp_l2(ci));
            assert_eq!(pq_l1d(ci), comp_l1d(ci));
            assert_eq!(pq_l1i(ci), comp_l1i(ci));
        }
    }

    #[test]
    fn pop_due_yields_ascending_ids_past_one_word() {
        let ids = 3 * WIDE_CORES as u32 + 1;
        let mut cal = Calendar::new(ids as usize);
        for id in (0..ids).rev() {
            cal.note(id, 9);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| cal.pop_due(9)).collect();
        assert_eq!(popped, (0..ids).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_orders_and_discards_stale() {
        let mut cal = Calendar::new(4);
        cal.note(2, 30);
        cal.note(0, 10);
        cal.note(1, 20);
        cal.note(0, 5); // re-arm earlier; the t=10 entry goes stale
        assert_eq!(cal.peek_min(), Some(5));
        assert_eq!(cal.pop_due(5), Some(0));
        assert_eq!(cal.pop_due(5), None); // t=10 stale entry must not fire
        assert_eq!(cal.pop_due(19), None);
        assert_eq!(cal.pop_due(20), Some(1));
        assert_eq!(cal.pop_due(100), Some(2));
        assert_eq!(cal.pop_due(100), None);
        assert_eq!(cal.peek_min(), None);
    }

    #[test]
    fn rearm_later_ignores_stale_earlier_entry() {
        let mut cal = Calendar::new(2);
        cal.note(0, 10);
        cal.note(0, 50); // pushed later but the t=10 entry is stale
        assert_eq!(cal.pop_due(10), None);
        assert_eq!(cal.peek_min(), Some(50));
        assert_eq!(cal.pop_due(50), Some(0));
    }

    #[test]
    fn disarm_drops_pending_wakeup() {
        let mut cal = Calendar::new(2);
        cal.note(1, 7);
        cal.note(1, FILL_UNKNOWN);
        assert_eq!(cal.pop_due(100), None);
        assert_eq!(cal.peek_min(), None);
    }

    #[test]
    fn unchanged_rearm_does_not_grow_heap() {
        let mut cal = Calendar::new(1);
        for _ in 0..100 {
            cal.note(0, 42);
        }
        assert_eq!(cal.heap_peak(), 1);
    }

    #[test]
    fn sched_stats_json_roundtrip() {
        let s = SchedStats {
            wakeups_fired: 3,
            executed_cycles: 17,
            skipped_cycles: 9000,
            heap_peak: 5,
        };
        let j = s.to_json();
        assert_eq!(SchedStats::from_json(&j).unwrap(), s);
        assert!(SchedStats::from_json(&JsonValue::obj()).is_err());
    }
}
