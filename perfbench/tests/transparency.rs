//! The traced run must reproduce the untraced run seed for seed: the
//! timing wrapper, the metering seam and the typed-trace seam observe a
//! drive without changing its events, messages or workload summary.

use perfbench::rt;
use perfbench::sim::{drive_plain, drive_traced, Seams, SimWorkload};

const WORKLOADS: [SimWorkload; 3] = [
    SimWorkload::Decide,
    SimWorkload::LogClosed,
    SimWorkload::LogChaos,
];

#[test]
fn traced_drives_reproduce_untraced_drives() {
    for w in WORKLOADS {
        for index in 0..2 {
            let seed = SimWorkload::drive_seed(7, index);
            let plain = drive_plain(w, seed, Seams::default());
            let (traced, handlers) = drive_traced(w, seed);
            assert_eq!(plain.failed, 0, "{w:?} seed {seed}: checks pass");
            assert_eq!(
                traced.fingerprint(),
                plain.fingerprint(),
                "{w:?} seed {seed}"
            );
            assert_eq!(
                traced.report, plain.report,
                "{w:?} seed {seed}: whole report"
            );
            assert!(
                handlers.all_calls() > 0,
                "{w:?}: the wrapper saw the handlers"
            );
            assert!(
                traced.spans.step_ns > 0 && traced.spans.loop_ns >= traced.spans.step_ns,
                "{w:?}: the loop was lapped"
            );
        }
    }
}

#[test]
fn seams_do_not_perturb_drives() {
    for w in WORKLOADS {
        let seed = SimWorkload::drive_seed(11, 0);
        let plain = drive_plain(w, seed, Seams::default());
        let metered = drive_plain(w, seed, Seams::METERED);
        let typed = drive_plain(w, seed, Seams::typed(1 << 16));
        assert_eq!(
            metered.fingerprint(),
            plain.fingerprint(),
            "{w:?}: metering"
        );
        assert_eq!(
            typed.fingerprint(),
            plain.fingerprint(),
            "{w:?}: typed trace"
        );
        assert!(metered
            .health
            .as_ref()
            .is_some_and(|(snaps, _)| !snaps.is_empty()));
        assert!(!typed.records.is_empty());
    }
}

#[test]
fn drives_are_deterministic_in_their_seed() {
    for w in WORKLOADS {
        let a = drive_plain(w, 3, Seams::default());
        let b = drive_plain(w, 3, Seams::default());
        let c = drive_plain(w, 4, Seams::default());
        assert_eq!(a.fingerprint(), b.fingerprint(), "{w:?}");
        assert_eq!(a.commit_lat_ns, b.commit_lat_ns, "{w:?}");
        assert_ne!(
            a.commit_lat_ns, c.commit_lat_ns,
            "{w:?}: the seed reaches the inputs"
        );
    }
}

#[test]
fn stable_sim_workloads_trip_no_watchdog() {
    for w in [SimWorkload::Decide, SimWorkload::LogClosed] {
        let out = drive_plain(w, 5, Seams::METERED);
        assert_eq!(out.health.map(|(_, f)| f.len()), Some(0), "{w:?}");
    }
}

#[test]
fn traced_runtime_session_applies_every_command_everywhere() {
    let s = rt::session_traced(1, 60);
    assert_eq!(s.failed, 0);
    assert_eq!(s.applied_everywhere, 60);
    assert_eq!(s.due_lat_ns.len(), 60);
    assert_eq!(s.late_ns.len(), 60);
    let (all, leader) = s.handlers.expect("traced session");
    assert!(all.calls[2] >= 60, "every submission reached on_client");
    assert!(leader.all_calls() > 0 && leader.all_calls() < all.all_calls());
}
