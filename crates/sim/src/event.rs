//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number breaks
//! same-instant ties in insertion order, making every run a deterministic
//! function of the seed.
//!
//! The queue is a binary heap of 16-byte `(time, seq, slot)` keys over a
//! slab of event payloads, and it sits under every simulated message:
//!
//! * Broadcast payloads are **shared, not cloned**: a [`MsgPayload`] either
//!   owns its message (unicast) or holds an `Arc` refcount on one shared
//!   allocation (broadcast), so fanning a message out to `N` recipients
//!   costs `N` refcount bumps instead of `N` deep clones.
//! * The queue keeps an O(1) count of pending *control* events (boots and
//!   client submissions), so the simulator's completion check does not scan
//!   the heap per step.

use crate::time::SimTime;
use esync_core::types::{ProcessId, TimerId, Value};
use esync_core::wab::WabMessage;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A protocol message in flight: owned (unicast) or shared among the
/// recipients of one broadcast.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgPayload<M> {
    /// A unicast message, owned by its single delivery event.
    Owned(M),
    /// One broadcast payload, shared by every recipient's delivery event.
    Shared(Arc<M>),
}

impl<M> MsgPayload<M> {
    /// Borrows the message (what [`esync_core::outbox::Process::on_message`]
    /// consumes).
    pub fn get(&self) -> &M {
        match self {
            MsgPayload::Owned(m) => m,
            MsgPayload::Shared(m) => m,
        }
    }
}

impl<M> From<M> for MsgPayload<M> {
    fn from(m: M) -> Self {
        MsgPayload::Owned(m)
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind<M> {
    /// Start the process if it never ran, otherwise restart it.
    Boot {
        /// The (re)starting process.
        pid: ProcessId,
    },
    /// Crash the process (loses timers; state survives).
    Crash {
        /// The crashing process.
        pid: ProcessId,
    },
    /// Deliver a protocol message.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// The recipient.
        to: ProcessId,
        /// The message (owned or broadcast-shared).
        msg: MsgPayload<M>,
    },
    /// Fire a timer if its epoch is still current.
    TimerFire {
        /// The timer's owner.
        pid: ProcessId,
        /// The protocol-chosen timer id.
        timer: TimerId,
        /// The epoch at scheduling time; stale epochs are ignored.
        epoch: u64,
    },
    /// The idealized weak-ordering oracle w-delivers a message.
    WabDeliver {
        /// The recipient.
        to: ProcessId,
        /// The oracle message.
        msg: WabMessage,
    },
    /// The idealized election oracle computes and fans out its choice.
    LeaderAnnounce,
    /// The idealized election oracle informs one process.
    LeaderChange {
        /// The recipient.
        to: ProcessId,
        /// The elected leader.
        leader: ProcessId,
    },
    /// An application submits a command.
    ClientSubmit {
        /// The receiving process.
        pid: ProcessId,
        /// The command.
        value: Value,
    },
}

impl<M> EventKind<M> {
    /// Whether this event can wake further protocol activity on its own
    /// (a boot or a client submission): the completion check must wait for
    /// these even when every live process has decided.
    fn is_control(&self) -> bool {
        matches!(
            self,
            EventKind::Boot { .. } | EventKind::ClientSubmit { .. }
        )
    }
}

/// An event with its firing time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<M> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order; breaks same-instant ties.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind<M>,
}

/// A compact event key: 16 bytes regardless of the message type, so heap
/// sifts move small fixed-size entries instead of full event payloads
/// (which can be several cache lines for rich message enums). `slot`
/// addresses the payload in the queue's slab; `seq` is the tie-breaker,
/// truncated to 32 bits (a single run schedules far fewer than 2³² events
/// — enforced in `push`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u32,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-queue of [`ScheduledEvent`]s ordered by `(time, seq)`.
///
/// A binary heap of 16-byte keys over a payload slab: event payloads live
/// in the slab and are recycled through a free list, and the heap orders
/// only the keys that point at them. Pop order is exactly ascending
/// `(time, seq)` (`queue_matches_reference_heap` below checks this
/// differentially against a sorted map).
#[derive(Debug)]
pub struct EventQueue<M> {
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    heap: BinaryHeap<HeapKey>,
    next_seq: u64,
    control_pending: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue::with_capacity(0)
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue with pre-allocated space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slab: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            control_pending: 0,
        }
    }

    /// Empties the queue, **keeping every allocation**: the payload slab,
    /// the free list and the heap retain their capacity (grown to at least
    /// `cap`). This is the engine under `World::reset` — a sweep reuses one
    /// queue across thousands of runs instead of reallocating ~`24n²`
    /// slots per seed. Behavior after `reset(cap)` is indistinguishable
    /// from a fresh `with_capacity(cap)`.
    pub fn reset(&mut self, cap: usize) {
        self.slab.clear();
        self.free.clear();
        self.heap.clear();
        self.slab.reserve(cap);
        self.free.reserve(cap);
        self.heap.reserve(cap);
        self.next_seq = 0;
        self.control_pending = 0;
    }

    /// Schedules `kind` at `at`; returns the assigned sequence number.
    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) -> u64 {
        let seq64 = self.next_seq;
        self.next_seq += 1;
        let seq = u32::try_from(seq64).expect("fewer than 2^32 events per run");
        if kind.is_control() {
            self.control_pending += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 live events");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
        seq64
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        let key = self.heap.pop()?;
        let kind = self.slab[key.slot as usize]
            .take()
            .expect("key points at a live slab slot");
        self.free.push(key.slot);
        if kind.is_control() {
            self.control_pending -= 1;
        }
        Some(ScheduledEvent {
            at: key.at,
            seq: u64::from(key.seq),
            kind,
        })
    }

    /// The firing time of the earliest event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending control events (boots and client submissions),
    /// maintained incrementally in O(1).
    pub fn control_pending(&self) -> usize {
        self.control_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(pid: u32) -> EventKind<()> {
        EventKind::Boot {
            pid: ProcessId::new(pid),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), boot(3));
        q.push(SimTime::from_millis(1), boot(1));
        q.push(SimTime::from_millis(2), boot(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10u32 {
            q.push(t, boot(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Boot { pid } => pid.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_is_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(5), boot(0));
        q.push(SimTime::from_millis(2), boot(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn seq_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::<()>::new();
        let a = q.push(SimTime::ZERO, boot(0));
        let b = q.push(SimTime::ZERO, boot(1));
        assert!(b > a);
    }

    #[test]
    fn control_pending_tracks_boots_and_submits() {
        let mut q = EventQueue::<()>::new();
        assert_eq!(q.control_pending(), 0);
        q.push(SimTime::ZERO, boot(0));
        q.push(
            SimTime::ZERO,
            EventKind::ClientSubmit {
                pid: ProcessId::new(0),
                value: Value::new(1),
            },
        );
        q.push(
            SimTime::ZERO,
            EventKind::Crash {
                pid: ProcessId::new(0),
            },
        );
        assert_eq!(q.control_pending(), 2);
        while q.pop().is_some() {}
        assert_eq!(q.control_pending(), 0);
    }

    #[test]
    fn shared_payload_borrows_one_allocation() {
        let arc = Arc::new(vec![1u8, 2, 3]);
        let a = MsgPayload::Shared(Arc::clone(&arc));
        let b = MsgPayload::Shared(Arc::clone(&arc));
        assert_eq!(a.get(), b.get());
        assert_eq!(Arc::strong_count(&arc), 3);
        let owned: MsgPayload<u32> = 7u32.into();
        assert_eq!(*owned.get(), 7);
    }

    #[test]
    fn with_capacity_preallocates() {
        let q = EventQueue::<()>::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.control_pending(), 0);
    }

    #[test]
    fn reset_behaves_like_fresh_queue() {
        let mut q = EventQueue::<()>::with_capacity(32);
        for i in 0..50u32 {
            q.push(SimTime::from_micros(u64::from(i) * 37), boot(i));
        }
        for _ in 0..20 {
            q.pop();
        }
        q.reset(64);
        assert!(q.is_empty());
        assert_eq!(q.control_pending(), 0);
        // Sequence numbers restart at zero; order is exact again.
        let seq = q.push(SimTime::from_millis(2), boot(1));
        assert_eq!(seq, 0);
        q.push(SimTime::from_millis(1), boot(0));
        assert_eq!(q.pop().unwrap().at, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().at, SimTime::from_millis(2));
        assert!(q.pop().is_none());
    }

    /// Drives `ops` random pushes and pops through the queue and a
    /// reference sorted map, asserting identical `(time, seq)` pop order
    /// and payloads; `delay` maps a random word to a push delay in ns.
    fn check_against_reference(seed: u64, ops: usize, delay: impl Fn(u64) -> u64) {
        use std::collections::BTreeMap;
        let mut x = seed;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut reference: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut now = 0u64;
        let mut payload = 0u64;
        for _ in 0..ops {
            let r = rand();
            let do_push = reference.is_empty() || r % 5 < 3;
            if do_push {
                let at = SimTime::from_nanos(now + delay(r));
                payload += 1;
                let seq = q.push(
                    at,
                    EventKind::ClientSubmit {
                        pid: ProcessId::new(0),
                        value: Value::new(payload),
                    },
                );
                reference.insert((at, seq), payload);
            } else {
                let got = q.pop().expect("reference non-empty");
                let (&(at, seq), &val) = reference.iter().next().unwrap();
                assert_eq!((got.at, got.seq), (at, seq), "seed {seed:#x}");
                match got.kind {
                    EventKind::ClientSubmit { value, .. } => {
                        assert_eq!(value.get(), val, "seed {seed:#x}")
                    }
                    _ => unreachable!(),
                }
                reference.remove(&(at, seq));
                now = at.as_nanos();
            }
        }
        // Drain fully; order must stay exact.
        while let Some(got) = q.pop() {
            let (&(at, seq), _) = reference.iter().next().unwrap();
            assert_eq!((got.at, got.seq), (at, seq), "drain, seed {seed:#x}");
            reference.remove(&(at, seq));
        }
        assert!(reference.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Differential check: the queue pops in exactly the same `(time, seq)`
    /// order as a reference sorted structure, across many randomized
    /// interleavings of pushes and pops ("simulation-like" pushes relative
    /// to the last popped time): same-instant bursts, delays within δ, and
    /// multi-second horizons over long runs.
    #[test]
    fn queue_matches_reference_heap() {
        for trial in 0u64..20 {
            let seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(trial + 1);
            check_against_reference(seed, 3000, |r| match r % 7 {
                // Same instant, tiny, in-δ and far-horizon delays.
                0 => 0,
                1 => 1 + r % 100,
                2..=4 => r % (1 << 18),
                5 => r % (1 << 22),
                _ => r % (1 << 28),
            });
        }
        for trial in 0u64..4 {
            let seed = 0xd134_2543_de82_ef95u64.wrapping_mul(trial + 1);
            check_against_reference(seed, 30_000, |r| match r % 7 {
                // Long runs whose delays reach seconds.
                0 => 0,
                1 => 1 + r % 100,
                2..=4 => r % (1 << 18),
                5 => r % (1 << 30),
                _ => r % (1 << 34),
            });
        }
    }
}
