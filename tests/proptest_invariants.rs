//! Property-based invariants over randomized machine schedules.
//!
//! There is exactly ONE scenario-generation strategy in the tree:
//! `zen2_sim::torture::generate_case`. It subsumes the old ad-hoc
//! `Action` alphabet this suite used to carry — every action kind plus
//! probe attachment and `run_until` boundary shapes (zero-length
//! windows, probes ending exactly at the scenario end, `run_until`
//! below the last step) — so these properties draw `(root, index)`
//! pairs and let the generator build the timeline. The physics
//! invariants themselves live in `torture::Invariants`; this suite
//! checks them on every generated run, plus the machine-internal
//! invariants (package-sleep criterion, RAPL-below-wall) the checker
//! cannot see from a `Run` alone, plus worker/shard invariance and the
//! generator/validator/shrinker contracts.

use proptest::prelude::*;
use zen2_ee::prelude::*;
use zen2_ee::sim::torture::{
    check_case, generate_case, inject_fault, invalid_proposal, shrink_scenario, Fault,
    INVALID_PROPOSALS,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Every generated case validates, and its run upholds the full
    /// invariant catalog: residency conservation and filter agreement,
    /// power/energy/frequency envelopes, monotone in-window traces with
    /// request→apply pairing, counter monotonicity, and snapshot
    /// round-trip identity.
    #[test]
    fn generated_runs_uphold_every_invariant(root in 0u64..1000, index in 0u64..10_000) {
        let case = generate_case(root, index);
        prop_assert!(case.scenario.validate(&case.config).is_ok());
        let mut sys = System::new(case.config.clone(), case.seed);
        let run = sys.run_scenario(&case.scenario).expect("validated scenario");
        let violations = check_case(&case, &run);
        prop_assert!(violations.is_empty(), "case ({root}, {index}): {:?}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>());
    }

    /// Machine-internal physics the checker cannot audit from a `Run`:
    /// after any generated schedule, a package sleeps iff every thread
    /// of every package allows it (the global criterion), both sockets
    /// agree, and the RAPL estimate stays below wall power (the model
    /// has no DRAM, PSU, or platform terms).
    #[test]
    fn machine_state_stays_physical_after_any_schedule(root in 0u64..1000,
                                                       index in 0u64..10_000) {
        use zen2_ee::sim::cstate::ThreadState;
        let case = generate_case(root, index);
        let mut sys = System::new(case.config.clone(), case.seed);
        sys.run_scenario(&case.scenario).expect("validated scenario");
        let threads = case.config.topology.num_threads() as u32;
        let sockets = case.config.topology.num_sockets() as u32;
        let all_deep =
            (0..threads).all(|t| matches!(sys.thread_state(ThreadId(t)), ThreadState::C2));
        if case.config.global_package_c6 {
            for s in 0..sockets {
                prop_assert_eq!(!sys.package_awake(SocketId(s)), all_deep, "socket {}", s);
            }
        } else if all_deep {
            for s in 0..sockets {
                prop_assert!(!sys.package_awake(SocketId(s)), "socket {} awake, all deep", s);
            }
        }
        let est: f64 = sys.power_breakdown().pkg_est_w.iter().sum();
        let wall = sys.ac_power_w();
        prop_assert!(est < wall, "estimate {est:.1} W above wall {wall:.1} W");
    }

    /// Worker-count/shard-split invariance: the same generated case
    /// stream produces bit-identical `Run`s through a 1-worker session,
    /// a many-worker small-shard session, and direct `System` execution.
    #[test]
    fn runs_are_invariant_under_worker_and_shard_splits(root in 0u64..1000,
                                                        start in 0u64..10_000) {
        let cases: Vec<_> = (start..start + 5).map(|i| generate_case(root, i)).collect();
        let serial = Session::new().workers(1).run(&cases).expect("valid cases");
        let parallel = Session::new().workers(7).shard_size(2).run(&cases).expect("valid cases");
        prop_assert_eq!(&serial, &parallel, "worker/shard split changed results");
        for (case, from_session) in cases.iter().zip(&serial) {
            let direct = System::new(case.config.clone(), case.seed)
                .run_scenario(&case.scenario)
                .expect("validated scenario");
            prop_assert_eq!(&direct, from_session, "sessionless run diverged");
        }
    }

    /// `Scenario::validate` rejects every invalid timeline the generator
    /// can propose, each with its named error — on top of arbitrary
    /// generated base scenarios, not just hand-picked ones.
    #[test]
    fn validator_rejects_every_invalid_proposal(root in 0u64..1000, index in 0u64..10_000) {
        let case = generate_case(root, index);
        for kind in 0..INVALID_PROPOSALS {
            let (proposal, expected) = invalid_proposal(&case.config, &case.scenario, kind);
            let err = proposal.validate(&case.config);
            prop_assert!(err.is_err(), "proposal {kind} ({expected}) slipped through");
            prop_assert_eq!(
                zen2_ee::sim::torture::error_name(&err.unwrap_err()), expected,
                "proposal {}", kind
            );
        }
    }

    /// The shrinker's output still fails, still validates, and is never
    /// larger than its input — for every fault kind on any case.
    #[test]
    fn shrunk_reproducers_still_fail_and_never_grow(root in 0u64..1000,
                                                    index in 0u64..10_000,
                                                    which in 0u64..3) {
        let fault = [Fault::Residency, Fault::Trace, Fault::Power][which as usize];
        let case = generate_case(root, index);
        let mut fails = |sc: &Scenario| {
            let candidate = Case::new("shrink", case.config.clone(), sc.clone(), case.seed);
            if candidate.scenario.validate(&candidate.config).is_err() {
                return false;
            }
            let mut run = System::new(candidate.config.clone(), candidate.seed)
                .run_scenario(&candidate.scenario)
                .expect("validated scenario");
            inject_fault(&candidate, &mut run, fault);
            check_case(&candidate, &run).iter().any(|v| v.kind() == fault.kind())
        };
        prop_assert!(fails(&case.scenario), "fault {:?} did not trip on the full case", fault);
        let shrunk = shrink_scenario(&case.scenario, &mut fails);
        prop_assert!(fails(&shrunk), "shrunk scenario no longer fails");
        prop_assert!(shrunk.validate(&case.config).is_ok());
        prop_assert!(shrunk.steps().len() <= case.scenario.steps().len());
        prop_assert!(shrunk.probes().len() <= case.scenario.probes().len());
        prop_assert!(shrunk.run_until_ns() <= case.scenario.run_until_ns());
    }
}

/// The generator's boundary-shape coverage, asserted over a block of
/// cases rather than per-case (each shape is probabilistic per case but
/// must appear in any reasonable block): zero-length windows, span
/// probes ending exactly at the scenario end, and all three `run_until`
/// modes — absent, at the end, and *below* the end (steps after
/// `run_until` are legal; it is a minimum, not a cap).
#[test]
fn generator_covers_probe_and_run_until_boundaries() {
    let mut zero_len_at_end = false;
    let mut zero_len_at_start = false;
    let mut span_to_exact_end = false;
    let mut run_until_absent = false;
    let mut run_until_at_end = false;
    let mut run_until_below_end = false;
    for index in 0..200 {
        let case = generate_case(1, index);
        let end = case.scenario.end();
        for p in case.scenario.probes() {
            let w = p.window;
            zero_len_at_end |= w.is_instant() && w.to == end;
            zero_len_at_start |= w.is_instant() && w.from == 0;
            span_to_exact_end |= !w.is_instant() && w.to == end;
        }
        let ru = case.scenario.run_until_ns();
        run_until_absent |= ru == 0;
        run_until_at_end |= ru != 0 && ru == end;
        run_until_below_end |= ru != 0 && ru < end;
    }
    assert!(zero_len_at_end, "no zero-length window at the scenario end");
    assert!(zero_len_at_start, "no zero-length window at t = 0");
    assert!(span_to_exact_end, "no span probe ending exactly at the scenario end");
    assert!(run_until_absent, "run_until never absent");
    assert!(run_until_at_end, "run_until never coincides with the end");
    assert!(run_until_below_end, "run_until never sits below the furthest step/window");
}
