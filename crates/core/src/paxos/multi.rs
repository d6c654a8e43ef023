//! The slot log of one replicated-log shard: everything below phase 1.
//!
//! The paper's §4 "Reducing Message Complexity" observes that, as in
//! ordinary Paxos, "phase 1 is executed in advance for all instances of the
//! algorithm, and all nonfaulty processes decide within 3 message delays
//! when the system is stable" — and that the modified algorithm can be made
//! to behave the same way. The session machinery that executes that phase
//! 1 (gating, session timer, ε-retransmission, the 1a/1b exchange) runs
//! **once**, in the [log group](crate::paxos::group); a plain replicated
//! log is [`LogGroup::new(1)`](crate::paxos::group::LogGroup::new). This
//! module is the per-shard state machine the group drives: once the
//! group's ballot gathers a phase-1b majority, each shard is *anchored*
//! and commits each submitted command with a single 2a/2b exchange —
//! decision within 3 message delays of submission (forward → 2a → 2b) in
//! the stable period, as experiment E7 measures.
//!
//! Two throughput mechanisms sit on top of the paper's construction:
//!
//! * **Sharded, index-addressed log state**: the per-slot tables that
//!   grow with the log (acceptor votes, chosen entries, 2b counters) live
//!   in [`SlotMap`]s — O(1) slot
//!   addressing with a cache-resident hot tail, instead of a `BTreeMap`
//!   descent and rebalance per commit. (Bounded working sets — the live
//!   proposal pipeline, a phase-1b quorum's reported votes — stay in
//!   `BTreeMap`s.)
//! * **Proposer-side batching** ("group commit"): an anchored leader packs
//!   up to `max_batch` client commands into one slot, and pipelines at
//!   most `max_outstanding` unchosen slots (see
//!   [`LogGroup::with_batching`](crate::paxos::group::LogGroup::with_batching)).
//!   While the pipeline window is full, arriving commands accumulate and
//!   leave in batches as slots commit — so sustained throughput scales
//!   with `max_batch · max_outstanding` per round trip instead of being
//!   capped at one command per consensus instance. The defaults
//!   (`max_batch = 1`, unbounded window) reproduce the unbatched behavior
//!   exactly.
//!
//! Commands are applied **at-least-once**: a command submitted during a
//! leadership change may be proposed in two different slots. Deduplication
//! is an application concern (the replicated-log example and the
//! `esync-workload` generators tag commands with unique ids).

use crate::ballot::Ballot;
use crate::outbox::{Outbox, ShardLoad};
use crate::paxos::admitted::{Admitted, AdmittedSet};
use crate::paxos::slotlog::SlotMap;
use crate::quorum::QuorumTracker;
use crate::trace::TraceEvent;
use crate::types::{ProcessId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One slot's payload: one or more client commands chosen together
/// ("group commit"). Reference-counted so that the fan-out paths — an
/// acceptor echoing a 2a as a 2b, a leader re-proposing on the ε tick, a
/// phase-1b promise reporting a vote — bump a refcount instead of
/// deep-copying the command list.
pub type Batch = Arc<[Value]>;

/// Builds a batch from its commands.
pub fn batch_of(values: impl IntoIterator<Item = Value>) -> Batch {
    values.into_iter().collect()
}

/// A per-slot acceptor vote: the last ballot voted in, and its batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchVote {
    /// The ballot of the vote.
    pub bal: Ballot,
    /// The batch voted for.
    pub batch: Batch,
}

/// A per-slot vote reported in phase 1b.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotVote {
    /// The log slot.
    pub slot: u64,
    /// The last vote cast in that slot.
    pub vote: BatchVote,
}

/// Wire messages of one shard's slot log (the group tags them with their
/// shard; phase 1 is group-level).
#[derive(Debug, Clone, PartialEq)]
pub enum MultiMsg {
    /// Phase 2a for one slot.
    M2a {
        /// The ballot.
        mbal: Ballot,
        /// The log slot.
        slot: u64,
        /// The proposed batch.
        batch: Batch,
    },
    /// Phase 2b for one slot, broadcast to everyone.
    M2b {
        /// The ballot.
        mbal: Ballot,
        /// The log slot.
        slot: u64,
        /// The voted batch.
        batch: Batch,
    },
    /// A client command forwarded to the presumed leader.
    Forward {
        /// The command.
        value: Value,
    },
    /// A chosen log entry being announced.
    LogDecided {
        /// The log slot.
        slot: u64,
        /// The chosen batch.
        batch: Batch,
    },
}

impl MultiMsg {
    /// The ballot carried by this message, if any.
    pub fn ballot(&self) -> Option<Ballot> {
        match self {
            MultiMsg::M2a { mbal, .. } | MultiMsg::M2b { mbal, .. } => Some(*mbal),
            MultiMsg::Forward { .. } | MultiMsg::LogDecided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            MultiMsg::M2a { .. } => "2a",
            MultiMsg::M2b { .. } => "2b",
            MultiMsg::Forward { .. } => "forward",
            MultiMsg::LogDecided { .. } => "decided",
        }
    }
}

/// One acceptor's truncated phase-1b report for one shard: its all-chosen
/// prefix, the chosen entries the caller is missing, and its live votes.
/// Built by [`MultiPaxosProcess::vote_report`]; a
/// [`GroupPromise`](crate::paxos::group::GroupPromise) carries one per
/// shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VoteReport {
    /// The reporter's all-chosen log prefix. Slots below it are
    /// committed, so the new leader must never propose fresh batches
    /// there — the quorum's highest prefix is enforced as a `next_slot`
    /// floor at anchoring (normally implied by the shipped chosen
    /// entries; kept independent as defense in depth).
    pub prefix: u64,
    /// Chosen entries at or above the **caller's** prefix — the caller's
    /// catch-up material (empty when caller and reporter are equally
    /// caught up).
    pub chosen: Vec<(u64, Batch)>,
    /// Last votes at or above the reporter's prefix, for slots the
    /// reporter has not seen chosen.
    pub votes: Vec<SlotVote>,
}

/// 2b counts for one slot, per ballot. Nearly always a single entry (one
/// live ballot), so a linear scan beats any keyed structure.
#[derive(Debug, Clone, Default)]
struct Slot2b(Vec<(Ballot, QuorumTracker, Batch)>);

impl Slot2b {
    /// Records a 2b; returns the chosen batch if this crosses the
    /// majority threshold for `bal`.
    fn record(&mut self, n: usize, from: ProcessId, bal: Ballot, batch: &Batch) -> Option<Batch> {
        let entry = match self.0.iter_mut().find(|(b, ..)| *b == bal) {
            Some(e) => e,
            None => {
                self.0.push((bal, QuorumTracker::new(n), batch.clone()));
                self.0.last_mut().expect("just pushed")
            }
        };
        debug_assert_eq!(&entry.2, batch, "one batch per (slot, ballot)");
        let before = entry.1.reached();
        entry.1.insert(from);
        (!before && entry.1.reached()).then(|| entry.2.clone())
    }
}

/// One shard's replicated-log state machine: acceptor votes, the chosen
/// log, the proposal pipeline and the admitted dedup set. It owns no
/// timers and runs no phase 1: the [log group](crate::paxos::group) owns
/// the ballot, the session timer, the ε tick and the 1a/1b exchange, and
/// drives this machine through its `drive_*` methods and message
/// handlers.
#[derive(Debug, Clone)]
pub struct MultiPaxosProcess {
    id: ProcessId,
    /// The number of processes (the 2b majority and ballot ownership).
    n: usize,
    /// The group ballot, kept in sync by the group.
    mbal: Ballot,
    /// Per-slot acceptor votes.
    accepted: SlotMap<BatchVote>,
    /// Chosen entries.
    log: SlotMap<Batch>,
    /// 2b counts per slot (per ballot within the slot).
    decisions: SlotMap<Slot2b>,
    /// The ballot we are anchored at (phase 1 complete for all slots).
    anchored: Option<Ballot>,
    /// Batches we proposed and that are **not yet chosen** — the live
    /// pipeline, bounded by `max_outstanding` (plus anchoring
    /// re-completions). Entries leave on commit, so the ε re-propose scan
    /// and the unanchor requeue touch only in-flight work, never the
    /// ever-growing committed history (that lives in `log`). A bounded
    /// working set, so a plain `BTreeMap` beats the sharded store here.
    proposals: BTreeMap<u64, Batch>,
    max_batch: usize,
    max_outstanding: usize,
    next_slot: u64,
    /// The first slot not yet chosen locally — every slot below it is in
    /// `log`. Drives admitted-set compaction (and is the merged-view
    /// boundary the log group exposes).
    chosen_prefix: u64,
    /// Commands awaiting an anchored leader or pipeline-window space.
    pending: Vec<Value>,
    /// The command values this process has seen, mapped to their chosen
    /// slot once committed. Admission is idempotent: the ε re-forward
    /// path retries commands every tick, and without this set a leader
    /// whose pipeline is full would re-queue each retry into a fresh
    /// slot — duplicating every queued command. The slot lets a
    /// duplicate Forward of an already-chosen command be answered with
    /// its `LogDecided`, so a submitter whose decision broadcasts were
    /// all lost still converges and stops retrying. **Windowed** (see
    /// [`AdmittedSet`]): chosen entries are compacted once they fall
    /// below the all-chosen prefix by more than the configured window,
    /// so the set stays bounded instead of growing with the log;
    /// duplicates remain possible only across leadership changes or for
    /// resubmissions older than the window (the documented at-least-once
    /// paths).
    admitted: AdmittedSet,
    /// Cumulative load counters (commands dispatched / freshly admitted)
    /// for the imbalance instrumentation and the rebalancer's trigger.
    load: ShardLoad,
}

impl MultiPaxosProcess {
    /// A fresh shard of process `id` among `n`, at `id`'s initial ballot:
    /// up to `max_batch` commands per slot, at most `max_outstanding`
    /// unchosen slots in flight, chosen commands remembered for
    /// `admitted_window` slots below the all-chosen prefix.
    pub(crate) fn new(
        id: ProcessId,
        n: usize,
        max_batch: usize,
        max_outstanding: usize,
        admitted_window: u64,
    ) -> Self {
        MultiPaxosProcess {
            id,
            n,
            mbal: Ballot::initial(id),
            accepted: SlotMap::new(),
            log: SlotMap::new(),
            decisions: SlotMap::new(),
            anchored: None,
            proposals: BTreeMap::new(),
            max_batch,
            max_outstanding,
            next_slot: 0,
            chosen_prefix: 0,
            pending: Vec::new(),
            admitted: AdmittedSet::new(admitted_window),
            load: ShardLoad::default(),
        }
    }

    /// The shard's current ballot (always the group's).
    pub fn mbal(&self) -> Ballot {
        self.mbal
    }

    /// Whether this shard is anchored (leader with phase 1 pre-executed).
    pub fn is_anchored(&self) -> bool {
        self.anchored == Some(self.mbal) && self.mbal.owner(self.n) == self.id
    }

    /// The chosen log so far: one batch per chosen slot.
    pub fn log(&self) -> &SlotMap<Batch> {
        &self.log
    }

    /// The chosen batch in `slot`, if any.
    pub fn log_entry(&self, slot: u64) -> Option<&Batch> {
        self.log.get(slot)
    }

    /// All chosen commands, flattened in slot order (the order an
    /// application applies them in).
    pub fn log_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.log.values().flat_map(|b| b.iter().copied())
    }

    /// Commands waiting for an anchored leader or window space.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The first slot not yet chosen locally: every slot below it is
    /// committed (the *all-chosen log prefix* — the boundary the
    /// admitted-set compaction and the log group's merged view use).
    pub fn chosen_prefix(&self) -> u64 {
        self.chosen_prefix
    }

    /// Entries currently held by the admitted dedup set (bounded by the
    /// compaction window plus the in-flight pipeline; see [`AdmittedSet`]).
    pub fn admitted_len(&self) -> usize {
        self.admitted.len()
    }

    /// The admitted-set compaction window, in slots (see
    /// [`LogGroup::with_admitted_window`](crate::paxos::group::LogGroup::with_admitted_window)).
    /// The log group prunes its moved-command answers by the same rule.
    pub fn admitted_window(&self) -> u64 {
        self.admitted.window()
    }

    /// This shard's cumulative load counters.
    pub(crate) fn load(&self) -> ShardLoad {
        self.load
    }

    /// Drops leadership state, moving every proposed-but-uncommitted
    /// command back to `pending` so it is retried (re-forwarded, or
    /// re-assigned on a later anchoring) rather than silently dropped —
    /// without this, a command the *leader itself* admitted could vanish
    /// if no acceptor's vote survives into the next ballot's phase 1b.
    /// The filter is **value-level** (`admitted[v]` still `None`), not
    /// slot-level: a command whose slot was taken by a competing leader's
    /// batch needs the requeue, while one already committed in *any* slot
    /// must not re-enter `pending` (it would re-forward forever — commits
    /// never prune it again).
    fn unanchor(&mut self) {
        let requeue: Vec<Value> = self
            .proposals
            .values()
            .flat_map(|b| b.iter().copied())
            .filter(|v| self.admitted.is_unchosen(*v))
            .collect();
        self.pending.extend(requeue);
        self.anchored = None;
        self.proposals.clear();
    }

    fn propose(&mut self, slot: u64, batch: Batch, out: &mut Outbox<MultiMsg>) {
        debug_assert!(self.is_anchored());
        debug_assert!(!self.log.contains(slot), "never propose into a chosen slot");
        let bal = self.mbal;
        // Never propose two batches for the same (ballot, slot); a fresh
        // proposal occupies the pipeline until its slot commits.
        let batch = self.proposals.entry(slot).or_insert(batch).clone();
        for v in batch.iter() {
            out.observe(|| TraceEvent::Proposed {
                shard: 0,
                slot,
                value: v.get(),
            });
        }
        out.broadcast(MultiMsg::M2a { mbal: bal, slot, batch });
    }

    /// The truncated phase-1b payload, relative to the 1a caller's
    /// all-chosen prefix — this shard's slice of the
    /// [group promise](crate::paxos::group::GroupPromise).
    ///
    /// What travels (and why it is safe to drop the rest):
    ///
    /// * **Chosen entries** at or above `caller_prefix` — final by
    ///   agreement, they are the caller's catch-up material. Slots below
    ///   the caller's prefix are already committed at the caller.
    /// * **Live votes** at or above *our* prefix, for slots we have not
    ///   seen chosen. A vote below our prefix is superseded by the log
    ///   entry (sent above when the caller lacks it); a chosen slot's
    ///   classic-Paxos repair is preserved because any quorum intersects
    ///   the choosing majority, and that member either still reports the
    ///   vote (slot at or above its prefix) or ships the final entry.
    ///
    /// Steady-state cost is `O(in-flight window + prefix lag)` per reply
    /// — the ROADMAP "promise size" item — while a caller at prefix 0
    /// (a restarted process) receives the full log in one exchange.
    pub fn vote_report(&self, caller_prefix: u64) -> VoteReport {
        let chosen: Vec<(u64, Batch)> = self
            .log
            .tail(caller_prefix)
            .map(|(slot, batch)| (slot, batch.clone()))
            .collect();
        let votes: Vec<SlotVote> = self
            .accepted
            .tail(self.chosen_prefix)
            .filter(|(slot, _)| !self.log.contains(*slot))
            .map(|(slot, vote)| SlotVote {
                slot,
                vote: vote.clone(),
            })
            .collect();
        VoteReport {
            prefix: self.chosen_prefix,
            chosen,
            votes,
        }
    }

    /// Raises this shard's ballot to the group's, dropping leadership
    /// state if it was anchored at a lower ballot — the per-shard half of
    /// a **group unanchor event**. Emits nothing: the group owns every
    /// session-level side effect (timer resets, 1a announcements).
    pub(crate) fn drive_ballot(&mut self, b: Ballot) {
        if b <= self.mbal {
            return;
        }
        self.mbal = b;
        if self.anchored.is_some_and(|ab| ab < b) {
            self.unanchor();
        }
    }

    /// Anchors this shard: the group's shared phase 1 completed at ballot
    /// `b`; `floor` is the quorum's highest reported prefix for this
    /// shard, `chosen` holds the final entries the group-promise quorum
    /// reported for it and `best` its highest-ballot reported live vote
    /// per slot. Reported chosen entries are learned, reported votes
    /// re-complete under `b`, covered requeues are pruned, and pending
    /// commands drain into fresh slots.
    pub(crate) fn drive_anchor(
        &mut self,
        b: Ballot,
        floor: u64,
        chosen: &BTreeMap<u64, Batch>,
        best: &BTreeMap<u64, BatchVote>,
        out: &mut Outbox<MultiMsg>,
    ) {
        debug_assert!(b >= self.mbal, "anchors never move the ballot backwards");
        self.mbal = b;
        // Learn reported-chosen entries BEFORE declaring ourselves
        // anchored: they are final by agreement, so they are learned
        // directly (emitting their decides and a `LogDecided` each,
        // exactly like any other commit) instead of being re-proposed —
        // and `choose` flushes pending commands into fresh slots when
        // anchored, which must not happen until `next_slot` has been
        // fixed up past everything the quorum reported.
        for (slot, batch) in chosen {
            self.choose(*slot, batch.clone(), out);
        }
        self.anchored = Some(b);
        // Fresh slots start past the reported votes, our own log's
        // high-water mark (which now covers the quorum's reported chosen
        // entries, plus entries learned via `LogDecided` without any 1b
        // report covering them), and `floor` — the highest reporter
        // prefix of the quorum, below which every slot is chosen
        // somewhere (normally implied by the shipped chosen entries;
        // enforced independently as defense in depth). This is a
        // *reset*, not a max with the stale pre-election value: slots we
        // proposed under a dead ballot and that nobody reported must be
        // refilled, or the all-chosen prefix would never cross them.
        self.next_slot = best
            .keys()
            .next_back()
            .map_or(0, |m| m + 1)
            .max(self.log.max_slot().map_or(0, |m| m + 1))
            .max(floor);
        // Re-completions bypass the pipeline window: safety requires every
        // reported slot to finish under the new ballot regardless of load.
        let to_recomplete: Vec<(u64, Batch)> = best
            .iter()
            .filter(|(s, _)| !self.log.contains(**s))
            .map(|(s, v)| (*s, v.batch.clone()))
            .collect();
        for (slot, batch) in to_recomplete {
            self.propose(slot, batch, out);
        }
        // A requeued command that a surviving vote already covers (its
        // old 2a reached an acceptor in this quorum) was just re-proposed
        // above — assigning it a fresh slot too would commit it twice.
        if !self.pending.is_empty() {
            let covered: std::collections::BTreeSet<Value> = self
                .proposals
                .values()
                .flat_map(|b| b.iter().copied())
                .collect();
            self.pending.retain(|v| !covered.contains(v));
        }
        self.drain_pending(out);
    }

    /// Whether any proposed-but-unchosen slot is in flight (the live
    /// pipeline the ε tick re-proposes).
    pub fn has_live_proposals(&self) -> bool {
        !self.proposals.is_empty()
    }

    /// ε-retransmission for an anchored shard: re-proposes every
    /// in-flight (proposed-but-unchosen) slot. `proposals` holds only
    /// unchosen slots, so this is bounded by the pipeline window, not the
    /// log's history. The group falls back to a single group-level 1a
    /// when no shard has live proposals.
    pub(crate) fn drive_repropose(&mut self, out: &mut Outbox<MultiMsg>) {
        let undecided: Vec<(u64, Batch)> = self
            .proposals
            .iter()
            .map(|(s, b)| (*s, b.clone()))
            .collect();
        for (slot, batch) in undecided {
            self.propose(slot, batch, out);
        }
    }

    /// ε re-forward: retries every held command toward the group leader
    /// `owner` — the per-shard half of the group's unanchored ε tick (the
    /// group checks `owner != self` once). A Forward lost before `TS` (or
    /// stranded by a leadership change) retries every ε, so every
    /// submission to a live process commits within O(ε + δ) of
    /// stabilization; commits prune `pending` (see `choose`), terminating
    /// the retry.
    pub(crate) fn drive_reforward(&mut self, owner: ProcessId, out: &mut Outbox<MultiMsg>) {
        for v in &self.pending {
            out.observe(|| TraceEvent::ForwardSent { value: v.get() });
            out.send(owner, MultiMsg::Forward { value: *v });
        }
    }

    /// The admitted-set status of `value`: `None` if never admitted (or
    /// compacted away), `Unchosen` while queued or in flight, `Chosen`
    /// with its slot once committed. Read by the log group's rebalancer
    /// to decide whether a command crossing a moving key span can still
    /// be answered from the old owner's log.
    pub fn admitted_status(&self, value: Value) -> Option<Admitted> {
        self.admitted.status(value)
    }

    /// Whether any proposed-but-unchosen slot holds a batch with a value
    /// matching `pred` — the rebalancer's **drain** condition: a key span
    /// may only switch shards once no in-flight proposal of the old owner
    /// still references it. Bounded by the pipeline window.
    pub fn has_proposal_matching(&self, mut pred: impl FnMut(Value) -> bool) -> bool {
        self.proposals
            .values()
            .any(|b| b.iter().any(|v| pred(*v)))
    }

    /// Extracts every command matching `pred` from this shard's held
    /// state: pending entries leave the queue, and their admitted-set
    /// entries (plus those of matching *chosen* commands) are removed.
    /// Returns the unchosen values (for re-admission at the key span's
    /// new owner shard) and the chosen `(value, slot)` pairs (which
    /// become the group's moved-command answers). The per-shard half of
    /// a router-epoch switch; the caller re-routes the unchosen values.
    pub(crate) fn drive_extract_matching(
        &mut self,
        mut pred: impl FnMut(Value) -> bool,
    ) -> (Vec<Value>, Vec<(Value, u64)>) {
        let taken = self.admitted.take_matching(|v, _| pred(v));
        if taken.is_empty() {
            return (Vec::new(), Vec::new());
        }
        self.pending.retain(|v| !pred(*v));
        let mut unchosen = Vec::new();
        let mut chosen = Vec::new();
        for (v, slot) in taken {
            match slot {
                None => unchosen.push(v),
                Some(s) => chosen.push((v, s)),
            }
        }
        (unchosen, chosen)
    }

    /// [`Self::drive_extract_matching`] restricted to **pending**
    /// commands (admitted, unchosen, and *not* in a live proposal):
    /// they leave the queue and their admitted entries go with them.
    /// The migration **freeze** step — queued moving-key commands join
    /// the frozen buffer, while in-flight proposals are left to the
    /// drain (pulling their dedup entries early would let the frozen
    /// copy and the in-flight proposal both commit) and committed
    /// commands stay answerable from this shard's log until the epoch
    /// actually switches.
    pub(crate) fn drive_extract_pending(
        &mut self,
        mut pred: impl FnMut(Value) -> bool,
    ) -> Vec<Value> {
        let moving: std::collections::BTreeSet<Value> = self
            .pending
            .iter()
            .copied()
            .filter(|v| pred(*v))
            .collect();
        if moving.is_empty() {
            return Vec::new();
        }
        self.pending.retain(|v| !moving.contains(v));
        self.admitted.take_matching(|v, _| moving.contains(&v));
        moving.into_iter().collect()
    }

    /// Proposes `batch` directly into the next fresh slot, bypassing the
    /// pending queue, admission dedup and the pipeline window — the
    /// control-entry path of the rebalancer's router-epoch bump (the
    /// batch is protocol metadata, not a client command: it must occupy
    /// exactly one slot, exactly once, and never be requeued as a lost
    /// client command). Returns the slot proposed into.
    ///
    /// # Panics
    ///
    /// Debug-asserts that this shard is anchored.
    pub(crate) fn drive_propose_batch(&mut self, batch: Batch, out: &mut Outbox<MultiMsg>) -> u64 {
        debug_assert!(self.is_anchored(), "control entries need an anchored proposer");
        let slot = self.next_slot;
        self.next_slot += 1;
        self.propose(slot, batch, out);
        slot
    }

    /// Counts one router dispatch that never reaches this shard's
    /// handlers — the log group's moved-command answers, which satisfy a
    /// retry entirely at the group level but are load on this shard's
    /// span all the same.
    pub(crate) fn drive_note_submitted(&mut self) {
        self.load.submitted += 1;
    }

    /// Admits a command to the held set, idempotently: a value this
    /// process has already seen (an ε-retry duplicate, or a client
    /// resubmission of a committed command still inside the admitted
    /// window) is dropped. Returns whether the command was newly
    /// admitted.
    fn admit(&mut self, value: Value) -> bool {
        let fresh = self.admitted.admit(value);
        if fresh {
            self.load.admitted += 1;
            self.pending.push(value);
        }
        fresh
    }

    /// Moves pending commands into fresh slots, `max_batch` per slot, while
    /// the pipeline window has space.
    fn drain_pending(&mut self, out: &mut Outbox<MultiMsg>) {
        debug_assert!(self.is_anchored());
        while !self.pending.is_empty() && self.proposals.len() < self.max_outstanding {
            let take = self.pending.len().min(self.max_batch);
            let batch: Batch = self.pending.drain(..take).collect();
            let slot = self.next_slot;
            self.next_slot += 1;
            self.propose(slot, batch, out);
        }
    }

    fn choose(&mut self, slot: u64, batch: Batch, out: &mut Outbox<MultiMsg>) {
        if self.log.contains(slot) {
            return;
        }
        for v in batch.iter() {
            out.observe(|| TraceEvent::Decided {
                shard: 0,
                slot,
                value: v.get(),
            });
            out.decide(*v);
            // Record where each command landed: admission of a later copy
            // short-circuits, and a duplicate Forward gets answered with
            // this slot's `LogDecided`.
            self.admitted.mark_chosen(*v, slot);
        }
        // Committed commands need no further client-side retry: drop them
        // from the held set so the ε re-forward loop terminates.
        if !self.pending.is_empty() {
            self.pending.retain(|v| !batch.contains(v));
        }
        self.log.insert(slot, batch.clone());
        // Never assign a fresh proposal to a slot that is already chosen
        // (a higher-ballot leader we have not heard from may be filling
        // slots ahead of us — proposing there would strand the batch).
        self.next_slot = self.next_slot.max(slot + 1);
        // Advance the all-chosen prefix past every contiguously chosen
        // slot (amortized O(1): each slot is crossed once per run) and
        // let the admitted set drop entries that fell out of the window.
        while self.log.contains(self.chosen_prefix) {
            self.chosen_prefix += 1;
        }
        self.admitted.maybe_compact(self.chosen_prefix);
        out.broadcast(MultiMsg::LogDecided {
            slot,
            batch: batch.clone(),
        });
        if let Some(ours) = self.proposals.remove(&slot) {
            if ours != batch {
                // Our proposal lost this slot to a competing leader's
                // batch: requeue its still-uncommitted commands for a
                // fresh slot (the entry is gone, so neither the ε
                // re-propose path nor a later unanchor resurrects the
                // losing batch).
                let requeue: Vec<Value> = ours
                    .iter()
                    .copied()
                    .filter(|v| self.admitted.is_unchosen(*v))
                    .collect();
                self.pending.extend(requeue);
            }
        }
        // A committed slot frees pipeline space (and may have requeued a
        // losing batch): flush what piled up.
        if self.is_anchored() {
            self.drain_pending(out);
        }
    }

    /// Handles one shard-tagged message the group delivered. Session
    /// bookkeeping (suppression, session-heard, Start Phase 1) is the
    /// group's, done once per delivered message.
    pub(crate) fn on_message(
        &mut self,
        from: ProcessId,
        msg: &MultiMsg,
        out: &mut Outbox<MultiMsg>,
    ) {
        match msg {
            MultiMsg::M2a { mbal, slot, batch } => {
                // Ballots are group-level: the group adopts a higher 2a
                // ballot before dispatching, so a live 2a carries exactly
                // this shard's ballot.
                debug_assert!(*mbal <= self.mbal, "the group adopts before dispatch");
                if *mbal == self.mbal {
                    if let Some(prev) = self.accepted.get(*slot) {
                        debug_assert!(*mbal >= prev.bal, "slot votes are ballot-monotone");
                    }
                    self.accepted.insert(
                        *slot,
                        BatchVote {
                            bal: *mbal,
                            batch: batch.clone(),
                        },
                    );
                    out.broadcast(MultiMsg::M2b {
                        mbal: *mbal,
                        slot: *slot,
                        batch: batch.clone(),
                    });
                }
            }
            MultiMsg::M2b { mbal, slot, batch } => {
                let chosen = self
                    .decisions
                    .get_or_insert_with(*slot, Slot2b::default)
                    .record(self.n, from, *mbal, batch);
                if let Some(b) = chosen {
                    let s = *slot;
                    out.observe(|| TraceEvent::Chosen { shard: 0, slot: s });
                    self.choose(s, b, out);
                }
            }
            MultiMsg::Forward { value } => {
                self.load.submitted += 1;
                // A retry of an already-chosen command means the sender
                // missed the decision broadcasts (lost pre-TS): answer
                // with the chosen entry so its retry loop terminates.
                if let Some(Admitted::Chosen(slot)) = self.admitted.status(*value) {
                    let batch = self
                        .log
                        .get(slot)
                        .expect("chosen commands are logged")
                        .clone();
                    out.observe(|| TraceEvent::ReplySent {
                        shard: 0,
                        value: value.get(),
                    });
                    out.send(from, MultiMsg::LogDecided { slot, batch });
                } else if self.admit(*value) {
                    out.observe(|| TraceEvent::Admitted {
                        shard: 0,
                        value: value.get(),
                    });
                    if self.is_anchored() {
                        // Admission dedups ε-retry copies of queued
                        // commands; a newly admitted one is assigned (or
                        // held until we anchor — the submitter keeps its
                        // own retried copy).
                        self.drain_pending(out);
                    }
                }
            }
            MultiMsg::LogDecided { slot, batch } => {
                self.choose(*slot, batch.clone(), out);
            }
        }
    }

    /// Handles a client command routed to this shard: admitted once,
    /// proposed when anchored, otherwise held and forwarded to the
    /// presumed leader.
    pub(crate) fn on_client(&mut self, value: Value, out: &mut Outbox<MultiMsg>) {
        self.load.submitted += 1;
        out.observe(|| TraceEvent::submit(value));
        if !self.admit(value) {
            return;
        }
        out.observe(|| TraceEvent::Admitted {
            shard: 0,
            value: value.get(),
        });
        if self.is_anchored() {
            self.drain_pending(out);
        } else {
            // Hold it and forward to the presumed leader (the owner of
            // our current ballot); the ε tick retries the forward.
            let owner = self.mbal.owner(self.n);
            if owner != self.id {
                out.observe(|| TraceEvent::ForwardSent {
                    value: value.get(),
                });
                out.send(owner, MultiMsg::Forward { value });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;
    use crate::paxos::admitted::DEFAULT_ADMITTED_WINDOW;
    use crate::time::LocalInstant;

    /// An unbatched shard of process `id` among `n` (the group's defaults).
    fn spawn(n: usize, id: u32) -> MultiPaxosProcess {
        MultiPaxosProcess::new(
            ProcessId::new(id),
            n,
            1,
            usize::MAX,
            DEFAULT_ADMITTED_WINDOW,
        )
    }

    fn out() -> Outbox<MultiMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn one(v: u64) -> Batch {
        batch_of([Value::new(v)])
    }

    /// Anchors p (id 1 of 3) on ballot 4 from an empty promise quorum, as
    /// the group does once its shared phase 1 completes.
    fn anchor_p1(p: &mut MultiPaxosProcess, o: &mut Outbox<MultiMsg>) -> Ballot {
        let b = Ballot::new(4);
        p.drive_ballot(b);
        p.drive_anchor(b, 0, &BTreeMap::new(), &BTreeMap::new(), o);
        o.drain();
        b
    }

    #[test]
    fn client_command_proposed_when_anchored() {
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        assert!(p.is_anchored());
        p.on_client(Value::new(77), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { mbal, slot: 0, batch } }
                if *mbal == b && **batch == [Value::new(77)]
        )));
        p.on_client(Value::new(78), &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                if **batch == [Value::new(78)]
        )));
    }

    #[test]
    fn client_command_forwarded_when_not_leader() {
        let mut p = spawn(3, 2);
        let mut o = out();
        // p2's initial ballot is 2, owned by itself; the group adopts p1's
        // ballot 4.
        p.drive_ballot(Ballot::new(4));
        p.on_client(Value::new(9), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::Forward { value } }
                if *to == ProcessId::new(1) && *value == Value::new(9)
        )));
    }

    #[test]
    fn forwarded_command_assigned_by_anchored_leader() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(9)]
        )));
    }

    #[test]
    fn pending_commands_assigned_on_anchoring() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_client(Value::new(5), &mut o); // not anchored yet: pending
        o.drain();
        assert_eq!(p.pending_len(), 1);
        anchor_p1(&mut p, &mut o);
        // Anchoring flushed the held command into slot 0.
        assert_eq!(p.proposals.get(&0), Some(&one(5)));
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn acceptor_votes_and_broadcasts_2b() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.drive_ballot(Ballot::new(4));
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M2a {
                mbal: Ballot::new(4),
                slot: 3,
                batch: one(7),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2b { slot: 3, batch, .. } }
                if **batch == [Value::new(7)]
        )));
        // A 2a below the shard's ballot gets no vote.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M2a {
                mbal: Ballot::new(1),
                slot: 4,
                batch: one(8),
            },
            &mut o,
        );
        assert!(o.drain().is_empty(), "stale 2a ignored");
    }

    #[test]
    fn majority_2b_chooses_entry() {
        let mut p = spawn(3, 0);
        let mut o = out();
        let b = Ballot::new(4);
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 2,
                    batch: one(7),
                },
                &mut o,
            );
        }
        assert_eq!(p.log_entry(2), Some(&one(7)));
        assert_eq!(p.log_entry(0), None);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: MultiMsg::LogDecided { slot: 2, .. }
            }
        )));
    }

    #[test]
    fn log_decided_catchup() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 5,
                batch: one(50),
            },
            &mut o,
        );
        assert_eq!(p.log_entry(5), Some(&one(50)));
    }

    #[test]
    fn anchoring_recompletes_reported_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = Ballot::new(4);
        p.drive_ballot(b);
        // The quorum reported an old vote in slot 7.
        let best = BTreeMap::from([(
            7,
            BatchVote {
                bal: Ballot::new(1),
                batch: one(70),
            },
        )]);
        p.drive_anchor(b, 0, &BTreeMap::new(), &best, &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 7, batch, .. } }
                if **batch == [Value::new(70)]
        )));
        // Fresh slots start after the highest re-completed one.
        p.on_client(Value::new(1), &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: MultiMsg::M2a { slot: 8, .. }
            }
        )));
    }

    #[test]
    fn adoption_unanchors() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        assert!(p.is_anchored());
        p.drive_ballot(Ballot::new(8)); // session 2, owner p2
        assert!(!p.is_anchored());
        assert_eq!(p.mbal(), Ballot::new(8));
    }

    #[test]
    fn epsilon_reproposes_undecided_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(77), &mut o);
        o.drain();
        assert!(p.has_live_proposals());
        p.drive_repropose(&mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(77)]
        )));
    }

    #[test]
    fn full_window_accumulates_then_batches() {
        // W = 1, B = 3: the first command occupies the only pipeline slot;
        // the next three accumulate and leave as ONE batch when it commits.
        let mut p = MultiPaxosProcess::new(ProcessId::new(1), 3, 3, 1, DEFAULT_ADMITTED_WINDOW);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(10), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(10)]
        )));
        for v in [11, 12, 13] {
            p.on_client(Value::new(v), &mut o);
        }
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: MultiMsg::M2a { .. }
                }
            )),
            "window full: no new proposal"
        );
        assert_eq!(p.pending_len(), 3);
        // Slot 0 commits: the backlog flushes as one 3-command batch.
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 0,
                    batch: one(10),
                },
                &mut o,
            );
        }
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                if **batch == [Value::new(11), Value::new(12), Value::new(13)]
        )));
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn batch_commit_decides_every_command() {
        let mut p = spawn(3, 0);
        let mut o = out();
        let batch = batch_of([Value::new(1), Value::new(2), Value::new(3)]);
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: batch.clone(),
                },
                &mut o,
            );
        }
        let decides: Vec<Value> = o
            .drain()
            .iter()
            .filter_map(|a| match a {
                Action::Decide { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(decides, vec![Value::new(1), Value::new(2), Value::new(3)]);
        assert_eq!(p.log_values().count(), 3);
    }

    #[test]
    fn epsilon_reforwards_pending_at_followers() {
        let mut p = spawn(3, 2);
        let mut o = out();
        // Adopt leader p1's ballot 4, then submit: pending + one Forward.
        p.drive_ballot(Ballot::new(4));
        p.on_client(Value::new(9), &mut o);
        o.drain();
        // The group's idle ε tick retries the forward toward the leader.
        p.drive_reforward(ProcessId::new(1), &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::Forward { value } }
                if *to == ProcessId::new(1) && *value == Value::new(9)
        )));
        // Once the command commits, the retry stops.
        for from in [0u32, 1] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: one(9),
                },
                &mut o,
            );
        }
        o.drain();
        assert_eq!(p.pending_len(), 0, "commit prunes the held command");
        p.drive_reforward(ProcessId::new(1), &mut o);
        assert!(o.drain().is_empty(), "no retry after commit");
    }

    #[test]
    fn duplicate_forwards_are_admitted_once() {
        // W = 1 keeps the pipeline full, so retried forwards would pile up
        // in `pending` without admission dedup.
        let mut p = MultiPaxosProcess::new(ProcessId::new(1), 3, 1, 1, DEFAULT_ADMITTED_WINDOW);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(5), &mut o); // occupies the window
        for _ in 0..4 {
            p.on_message(
                ProcessId::new(2),
                &MultiMsg::Forward {
                    value: Value::new(6),
                },
                &mut o,
            );
        }
        o.drain();
        assert_eq!(p.pending_len(), 1, "retries of value 6 admitted once");
    }

    #[test]
    fn forward_of_chosen_command_is_answered_with_log_decided() {
        // A submitter whose decision broadcasts were all lost keeps
        // retrying its Forward; the leader must answer with the chosen
        // entry (not silently dedup) so the retry loop terminates.
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        o.drain();
        // Slot 0 commits at the leader.
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 0,
                    batch: one(9),
                },
                &mut o,
            );
        }
        o.drain();
        // The submitter retries: it gets the decided entry back.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::LogDecided { slot: 0, batch } }
                if *to == ProcessId::new(2) && **batch == [Value::new(9)]
        )));
    }

    #[test]
    fn next_slot_skips_slots_chosen_by_unseen_leaders() {
        // A `LogDecided` for a slot at/above our next_slot (from a
        // higher-ballot leader whose other traffic we lost) must push
        // next_slot forward; proposing into a chosen slot would strand
        // the batch (acceptors are past our ballot, and no retry path
        // covers a slot that is already in the log).
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 0,
                batch: one(50),
            },
            &mut o,
        );
        o.drain();
        p.on_client(Value::new(7), &mut o);
        assert!(
            o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                    if **batch == [Value::new(7)]
            )),
            "fresh proposal lands past the learned entry, not on slot 0"
        );
    }

    #[test]
    fn losing_a_slot_to_a_competing_batch_requeues_our_commands() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(7), &mut o); // proposed in slot 0
        o.drain();
        // A competing leader's different batch wins slot 0.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 0,
                batch: one(50),
            },
            &mut o,
        );
        // Our command is immediately re-proposed in a fresh slot.
        assert!(
            o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                    if **batch == [Value::new(7)]
            )),
            "losing batch re-proposed past the stolen slot"
        );
    }

    #[test]
    fn unanchoring_skips_commands_committed_in_other_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(7), &mut o); // proposed in slot 0, unchosen
        o.drain();
        // The same command commits elsewhere (slot 5) via another leader.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 5,
                batch: one(7),
            },
            &mut o,
        );
        o.drain();
        // Unanchoring must NOT requeue it: it is committed, and a requeue
        // would re-forward it every ε forever (commits never prune it
        // again).
        p.drive_ballot(Ballot::new(8));
        assert!(!p.is_anchored());
        assert_eq!(p.pending_len(), 0, "committed command not requeued");
    }

    #[test]
    fn unanchoring_requeues_unchosen_proposals() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(42), &mut o); // proposed in slot 0, unchosen
        o.drain();
        assert_eq!(p.pending_len(), 0);
        // A higher ballot takes over: the command must fall back to
        // pending, not vanish.
        p.drive_ballot(Ballot::new(8));
        assert!(!p.is_anchored());
        assert_eq!(p.pending_len(), 1, "unchosen proposal requeued");
    }
}
