//! Model-checking integration: safety of every protocol under exhaustive
//! small-world schedules and deep adversarial random walks — schedules far
//! outside what any timed network produces (arbitrary reordering, early
//! timers, lying leader oracles, adversarial weak-ordering oracles).

use esync::check::{Budgets, Explorer};
use esync::core::bconsensus::BConsensus;
use esync::core::paxos::group::LogGroup;
use esync::core::paxos::session::SessionPaxos;
use esync::core::paxos::traditional::TraditionalPaxos;
use esync::core::round_based::RotatingCoordinator;

#[test]
fn session_paxos_exhaustive_small_world() {
    let report = Explorer::new(SessionPaxos::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.states_seen > 5_000);
}

#[test]
fn traditional_paxos_safe_under_lying_leader_oracle() {
    // Leadership is only a progress hint; even an oracle that tells several
    // processes they lead must not break agreement.
    let report = Explorer::new(TraditionalPaxos::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 0,
            leader_lies: 2,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn rotating_coordinator_exhaustive_small_world() {
    let report = Explorer::new(RotatingCoordinator::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn bconsensus_modified_exhaustive_small_world() {
    let report = Explorer::new(BConsensus::modified(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn bconsensus_original_safe_under_adversarial_oracle() {
    // The checker's WAB oracle delivers w-broadcasts per process in ANY
    // order — far weaker than §5's spontaneous-order assumption. Liveness
    // is forfeit; agreement must survive.
    let report = Explorer::new(BConsensus::original(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 0,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn multipaxos_exhaustive_small_world() {
    let report = Explorer::new(LogGroup::new(1), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// The replicated log's state space is pinned: `LogGroup::new(1)` at
/// n = 2 explores exactly the states and transitions the standalone
/// single-log session did. Any state the group carries between events
/// beyond the protocol's own (say, a reused buffer's clock) would split
/// states and show up here.
#[test]
fn log_group_s1_state_space_is_pinned() {
    let report = Explorer::new(LogGroup::new(1), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(5)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.frontier_exhausted, "depth 5 explored completely");
    assert_eq!(report.states_seen, 30_049);
    assert_eq!(report.transitions, 69_396);
}

#[test]
fn deep_random_walks_three_processes_all_protocols() {
    let budgets = Budgets {
        drops: 4,
        crashes: 2,
        leader_lies: 2,
    };
    let r = Explorer::new(SessionPaxos::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 1);
    assert!(r.violation.is_none(), "session: {:?}", r.violation);
    let r = Explorer::new(TraditionalPaxos::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 2);
    assert!(r.violation.is_none(), "traditional: {:?}", r.violation);
    let r = Explorer::new(RotatingCoordinator::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 3);
    assert!(r.violation.is_none(), "rotating: {:?}", r.violation);
    let r = Explorer::new(BConsensus::modified(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 4);
    assert!(r.violation.is_none(), "bconsensus: {:?}", r.violation);
    let r = Explorer::new(LogGroup::new(1), 3)
        .budgets(budgets)
        .random_walks(25, 200, 5);
    assert!(r.violation.is_none(), "multipaxos: {:?}", r.violation);
}
