//! End-to-end regression tests: every headline number of the paper, from
//! the public API, at quick scale. Each test corresponds to one row of
//! EXPERIMENTS.md.

use zen2_ee::experiments as e;
use zen2_ee::experiments::Scale;
use zen2_ee::isa::KernelClass;
use zen2_ee::sim::Session;

#[test]
fn fig01_rome_leads_the_green500_x86_field() {
    let summaries = e::fig01_green500::run();
    let rome = summaries.iter().find(|s| s.arch.contains("Rome")).unwrap();
    assert!(rome.max > 5.0);
    for other in summaries.iter().filter(|s| !s.arch.contains("Rome")) {
        assert!(rome.median >= other.median, "{} outranks Rome", other.arch);
    }
}

#[test]
fn fig03_transition_delays_are_uniform_390_to_1390_us() {
    let cfg = e::fig03_transition::Config {
        samples: 1_500,
        ..e::fig03_transition::Config::fig3(Scale::Quick)
    };
    let r = e::fig03_transition::run(&cfg, 1001, &Session::new());
    assert!(r.down.min_us >= 389.0 && r.down.max_us <= 1393.0);
    assert!((r.down.mean_us - 890.0).abs() < 30.0);
    assert!(r.plateau_cv < 0.4, "uniform plateau, CV {}", r.plateau_cv);
}

#[test]
fn sec5b_anomaly_exists_only_for_the_25_22_pair_and_short_waits() {
    let quick = e::fig03_transition::run(
        &e::fig03_transition::Config::anomaly(Scale::Quick),
        1002,
        &Session::new(),
    );
    assert!(quick.up.fast_fraction > 0.05, "instantaneous returns must exist");
    assert!(quick.down.min_us < 250.0, "sub-390 us down-switches must exist");
    let long = e::fig03_transition::run(
        &e::fig03_transition::Config::anomaly_long_waits(Scale::Quick),
        1003,
        &Session::new(),
    );
    assert_eq!(long.up.fast_fraction, 0.0, "the effect disappears with >=5 ms waits");
}

#[test]
fn table1_mixed_frequency_matrix_reproduces() {
    let cfg = e::tab1_mixed_freq::Config { duration_s: 0.4, sample_interval_s: 0.1 };
    let r = e::tab1_mixed_freq::run(&cfg, 1004, &Session::new());
    assert!(r.worst_rel_err < 0.01, "worst cell deviation {:.3}%", r.worst_rel_err * 100.0);
    assert!((e::tab1_mixed_freq::coupling_penalty_ghz(&r) - 0.2).abs() < 0.01);
}

#[test]
fn fig04_l3_latency_matrix_reproduces() {
    let cfg = e::fig04_l3_latency::Config { repetitions: 2 };
    let r = e::fig04_l3_latency::run(&cfg, 1005, &Session::new());
    assert!(r.worst_rel_err < 0.04, "worst {:.3}", r.worst_rel_err);
}

#[test]
fn fig05_memory_matrices_reproduce() {
    let r = e::fig05_membw::run(1006, &Session::new());
    assert!(r.worst_bw_rel_err < 0.10, "bandwidth worst {:.3}", r.worst_bw_rel_err);
    assert!(r.worst_lat_rel_err < 0.08, "latency worst {:.3}", r.worst_lat_rel_err);
}

#[test]
fn fig06_firestarter_throttling_reproduces() {
    let cfg =
        e::fig06_firestarter::Config { duration_s: 1.0, sample_interval_s: 0.25, boost: false };
    let r = e::fig06_firestarter::run(&cfg, 1007, &Session::new());
    assert!((r.smt.freq_ghz - 2.03).abs() < 0.05);
    assert!((r.no_smt.freq_ghz - 2.10).abs() < 0.05);
    assert!((r.smt.ac_w - 509.0).abs() < 10.0);
    assert!((r.no_smt.ac_w - 489.0).abs() < 10.0);
    assert!((r.smt.rapl_pkg_w - 170.0).abs() < 5.0);
    assert!((r.smt.ipc - 3.56).abs() < 0.05);
    assert!((r.no_smt.ipc - 3.23).abs() < 0.05);
}

#[test]
fn fig07_idle_staircase_reproduces() {
    let cfg = e::fig07_idle_power::Config {
        duration_s: 0.2,
        thread_counts: vec![1, 2, 64, 128],
        freqs_mhz: vec![2500],
    };
    let r = e::fig07_idle_power::run(&cfg, 1008, &Session::new());
    assert!((r.baseline_w - 99.1).abs() < 1.5);
    let (first, slope) = e::fig07_idle_power::c1_staircase(&r);
    assert!((first - 180.3).abs() < 2.0);
    assert!((slope - 0.09).abs() < 0.02);
}

#[test]
fn fig08_wakeup_latencies_reproduce() {
    let r = e::fig08_wakeup::run(&e::fig08_wakeup::Config { samples: 80 }, 1009, &Session::new());
    let c1 = e::fig08_wakeup::find(&r, 1, 2500, false);
    assert!((c1.median_us - 1.0).abs() < 0.2);
    let c2 = e::fig08_wakeup::find(&r, 2, 2500, false);
    assert!((19.0..27.0).contains(&c2.median_us));
    let remote = e::fig08_wakeup::find(&r, 2, 2500, true);
    assert!((remote.median_us - c2.median_us - 1.0).abs() < 0.4);
}

#[test]
fn fig09_rapl_quality_reproduces() {
    let cfg = e::fig09_rapl_quality::Config {
        duration_s: 0.25,
        placements: vec![(16, false), (64, true)],
        freqs_mhz: vec![1500, 2500],
    };
    let r = e::fig09_rapl_quality::run(&cfg, 1010, &Session::new());
    assert!(r.worst_residual_w > 10.0, "RAPL is not a single function of AC");
    assert!(r.memory_residual_w > 5.0, "memory power is invisible to RAPL");
    for p in r.points.iter().filter(|p| p.workload != "idle") {
        assert!(p.rapl_pkg_w < p.ac_w);
    }
}

#[test]
fn fig10_hamming_weight_reproduces() {
    let cfg = e::fig10_hamming::Config { blocks: 45, block_s: 0.1 };
    let vx = e::fig10_hamming::run(&cfg, 1011, KernelClass::VXorps, &Session::new());
    assert!((vx.ac_w.mean_spread() - 21.0).abs() < 4.0, "AC spread {}", vx.ac_w.mean_spread());
    assert!(!vx.ac_w.distributions_overlap());
    let rel = vx.rapl_core0_w.mean_spread() / zen2_ee::sim::methodology::mean(&vx.rapl_core0_w.w05);
    assert!(rel < 0.005, "RAPL relative spread {rel}");
    let shr = e::fig10_hamming::run(&cfg, 1012, KernelClass::Shr, &Session::new());
    let shr_rel = shr.ac_w.mean_spread() / zen2_ee::sim::methodology::mean(&shr.ac_w.w05);
    assert!(shr_rel < 0.012, "shr AC spread {shr_rel}");
}

#[test]
fn sec5a_sibling_influence_reproduces() {
    let r = e::sec5a_sibling::run(1013, &Session::new());
    for o in &r.observations {
        match o.mode {
            e::sec5a_sibling::SiblingMode::IdleAtMinimum => {
                assert!((o.active_freq_ghz - 1.5).abs() < 0.01)
            }
            _ => assert!((o.active_freq_ghz - 2.5).abs() < 0.01),
        }
    }
}

#[test]
fn sec6b_offline_anomaly_reproduces() {
    let r = e::sec6b_offline::run(1014, &Session::new());
    assert!(r.offline_w > r.baseline_w + 75.0);
    assert!((r.reonline_w - r.baseline_w).abs() < 1.0);
}

#[test]
fn sec7_rapl_updates_every_millisecond() {
    let r =
        e::sec7_update_rate::run(&e::sec7_update_rate::Config::default(), 1015, &Session::new());
    assert!((r.mean_us - 1000.0).abs() < 60.0);
}
