//! # esync-core — consensus protocols for the eventual-synchrony model
//!
//! This crate implements the algorithms of Dutta, Guerraoui & Lamport,
//! *"How Fast Can Eventual Synchrony Lead to Consensus?"* (DSN 2005), together
//! with every algorithmic substrate they are defined against:
//!
//! * [`paxos::session`] — the paper's **modified Paxos** (§4): ballot numbers
//!   gated by *sessions* so that no process can run ahead of a majority, a
//!   session timer that fires between `4δ` and `σ` after entering a session,
//!   and an `ε`-periodic phase-1a retransmission rule. Every process that is
//!   nonfaulty at the stabilization time `TS` decides by `TS + ε + 3τ + 5δ`
//!   (`τ = max(2δ+ε, σ)`), i.e. `TS + O(δ)` — *independent of N*.
//! * [`paxos::group`] — the §4 construction for a replicated log: "phase
//!   1 is executed in advance for all instances". One session (ballot,
//!   session timer, ε tick, 1a/1b exchange) anchors every slot of `S`
//!   independent logs per process; `LogGroup::new(1)` is the plain
//!   replicated log. Each log's slots are a [`paxos::multi`] state
//!   machine the group drives, committing one command batch per 2a/2b
//!   round trip once anchored.
//! * [`paxos::traditional`] — classic Paxos driven by a leader-election
//!   oracle (§2), which the paper shows can take `O(Nδ)` after `TS` when
//!   obsolete messages carry anomalously high ballot numbers.
//! * [`round_based`] — a rotating-coordinator round-based algorithm (§3)
//!   with majority-gated round advancement, which needs `O(Nδ)` when the
//!   next `⌈N/2⌉−1` coordinators have crashed.
//! * [`bconsensus`] — the leaderless B-Consensus algorithm of Pedone,
//!   Schiper, Urbán & Cavin over a weak-ordering oracle, and the paper's
//!   **modified B-Consensus** (§5) which *implements* that oracle from
//!   Lamport clocks plus a `2δ` delivery wait.
//!
//! All protocols are written **sans-IO**: a [`outbox::Process`] is a
//! pure state machine that reacts to messages and timer expirations by
//! emitting [`outbox::Action`]s into an [`outbox::Outbox`].
//! The deterministic discrete-event simulator (`esync-sim`) and the threaded
//! real-time runtime (`esync-runtime`) both drive the same state machines.
//!
//! ## Quick example
//!
//! Drive a single modified-Paxos process by hand (the simulator normally does
//! this):
//!
//! ```
//! use esync_core::config::TimingConfig;
//! use esync_core::outbox::{Outbox, Process, Protocol};
//! use esync_core::paxos::session::SessionPaxos;
//! use esync_core::time::LocalInstant;
//! use esync_core::types::{ProcessId, Value};
//!
//! let cfg = TimingConfig::for_n_processes(3).expect("valid config");
//! let protocol = SessionPaxos::new();
//! let mut p0 = protocol.spawn(ProcessId::new(0), &cfg, Value::new(7));
//! let mut out = Outbox::new(LocalInstant::ZERO);
//! p0.on_start(&mut out);
//! // The process armed its session timer and (being in session 0 with
//! // nothing heard yet) is waiting for it to expire.
//! assert!(!out.drain().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ballot;
pub mod bconsensus;
pub mod config;
pub mod error;
pub mod lclock;
pub mod leader;
pub mod metrics;
pub mod outbox;
pub mod paxos;
pub mod quorum;
pub mod round_based;
pub mod time;
pub mod trace;
pub mod types;
pub mod wab;

pub use config::TimingConfig;
pub use outbox::{Action, Outbox, Process, Protocol};
pub use types::{ProcessId, TimerId, Value};
