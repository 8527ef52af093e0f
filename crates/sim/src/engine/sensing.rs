//! Sensing classes: one carrier-sense state per group of stations with
//! identical closed sensing neighbourhoods ([`SensingClasses`]).
//!
//! Sensing is symmetric, so every member of a class senses exactly the same
//! transmissions apart from its own frame (and the ACK of its own frame).
//! A class therefore keeps one busy count, one `idle_since`, and a *clock*
//! of idle slots counted since the class last resumed. A contending member
//! that sees the medium exactly as its class does is an [`Entry`] of the
//! class heap: its countdown is a deadline on the clock, so freezing and
//! resuming the whole class is O(1) and only the earliest member (the
//! *head*) holds a backoff-tier timer. Everything else a member can be —
//! due at the instant the class froze, joined mid-idle off the slot grid,
//! transmitting, waiting for its ACK, observing the channel — is kept per
//! station by the MAC (see `station.rs`); this module only holds the shared
//! state and its checkpoint codec.
//!
//! [`SensingClasses`]: crate::topology::SensingClasses

use crate::time::SimTime;
use crate::topology::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wlan_des::snapshot::{SnapshotError, StateReader, StateWriter};

/// A member counting down on its class clock (16 bytes: the redraw loops
/// and heap sifts move these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The clock reading at which the member's countdown reaches zero.
    pub(crate) deadline: u64,
    node: u32,
    /// Cached `redraw_on_resume` of the member's policy.
    pub(crate) redraw: bool,
}

impl Entry {
    pub(crate) fn new(deadline: u64, node: NodeId, redraw: bool) -> Self {
        Entry {
            deadline,
            node: u32::try_from(node).expect("station id exceeds u32"),
            redraw,
        }
    }

    pub(crate) fn node(&self) -> NodeId {
        self.node as NodeId
    }
}

/// Reversed `(deadline, node)` order: `BinaryHeap` is a max-heap and the
/// head is the earliest deadline, ties to the lowest id — the order in
/// which timers armed by one resume walk (one sequence number per station,
/// ascending by id) pop.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline, other.node).cmp(&(self.deadline, self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The medium state one sensing class shares.
#[derive(Debug, Default)]
pub(crate) struct SensingClass {
    /// Transmissions on the air that the class senses (data frames of any
    /// station in its closed neighbourhood, members' own included, plus AP
    /// ACKs).
    pub(crate) busy: u32,
    /// When `busy` last fell to zero.
    pub(crate) idle_since: SimTime,
    /// Number of times `busy` has fallen to zero: a member whose own
    /// `idle_since` carries an older epoch has seen the class go idle since.
    pub(crate) idle_epoch: u64,
    /// Idle slots counted before the current idle period (while idle) or up
    /// to the freeze (while busy).
    pub(crate) clock: u64,
    /// First sequence number of the block reserved by the walk that last
    /// resumed the class: member `v` of that resume ties at `seq_base + v`.
    pub(crate) seq_base: u64,
    /// Whether the heap's head currently holds its backoff-tier timer.
    pub(crate) head_armed: bool,
    /// Whether any member's policy redraws on resume (fixed at build time):
    /// only then does a resume rebuild the heap.
    pub(crate) redraws: bool,
    /// Contending members counting down on the clock.
    pub(crate) heap: BinaryHeap<Entry>,
    /// Contending members with their own anchor and timer that still follow
    /// the class medium: joined mid-idle, or due at the instant the class
    /// froze.
    pub(crate) loose: Vec<NodeId>,
    /// Active members whose view is not the class's (a frame or ACK of
    /// their own on the air) or that observe every busy period.
    pub(crate) watchers: Vec<NodeId>,
}

impl SensingClass {
    /// The head, if any: the member whose countdown ends first.
    pub(crate) fn head(&self) -> Option<Entry> {
        self.heap.peek().copied()
    }

    /// When the current idle period's countdown starts (`idle_since +
    /// DIFS`, passed in as `difs`).
    pub(crate) fn anchor(&self, difs: crate::time::SimDuration) -> SimTime {
        self.idle_since + difs
    }

    /// Remove `node`'s entry from the heap (O(members); used only when a
    /// station leaves the network or its view departs from the class's).
    pub(crate) fn remove(&mut self, node: NodeId) -> Entry {
        let mut removed = None;
        self.heap.retain(|e| {
            if e.node() == node {
                removed = Some(*e);
                false
            } else {
                true
            }
        });
        removed.expect("station is not on its class clock")
    }

    /// Append the class state to a checkpoint.
    pub(crate) fn save(&self, writer: &mut StateWriter) {
        writer.put_u32(self.busy);
        writer.put_time(self.idle_since);
        writer.put_u64(self.idle_epoch);
        writer.put_u64(self.clock);
        writer.put_u64(self.seq_base);
        writer.put_bool(self.head_armed);
        writer.put_usize(self.heap.len());
        for e in self.heap.iter() {
            writer.put_u64(e.deadline);
            writer.put_usize(e.node());
            writer.put_bool(e.redraw);
        }
        for list in [&self.loose, &self.watchers] {
            writer.put_usize(list.len());
            for &node in list {
                writer.put_usize(node);
            }
        }
    }

    /// Restore state written by [`save`](Self::save) for a network of
    /// `stations` stations.
    pub(crate) fn load(
        &mut self,
        reader: &mut StateReader<'_>,
        stations: usize,
    ) -> Result<(), SnapshotError> {
        let station = |node: usize| {
            if node < stations {
                Ok(node)
            } else {
                Err(SnapshotError::custom(format!(
                    "sensing class names station {node} of {stations}"
                )))
            }
        };
        self.busy = reader.get_u32()?;
        self.idle_since = reader.get_time()?;
        self.idle_epoch = reader.get_u64()?;
        self.clock = reader.get_u64()?;
        self.seq_base = reader.get_u64()?;
        self.head_armed = reader.get_bool()?;
        let len = reader.get_usize()?;
        let mut entries = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let deadline = reader.get_u64()?;
            let node = station(reader.get_usize()?)?;
            entries.push(Entry::new(deadline, node, reader.get_bool()?));
        }
        self.heap = BinaryHeap::from(entries);
        for list in [&mut self.loose, &mut self.watchers] {
            let len = reader.get_usize()?;
            list.clear();
            for _ in 0..len {
                list.push(station(reader.get_usize()?)?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_pops_earliest_deadline_then_lowest_id() {
        let mut class = SensingClass::default();
        for (deadline, node) in [(5, 3), (2, 9), (5, 1), (2, 4)] {
            class.heap.push(Entry::new(deadline, node, false));
        }
        assert_eq!(class.remove(9).deadline, 2);
        let order: Vec<NodeId> =
            std::iter::from_fn(|| class.heap.pop().map(|e| e.node())).collect();
        assert_eq!(order, vec![4, 1, 3]);
    }
}
