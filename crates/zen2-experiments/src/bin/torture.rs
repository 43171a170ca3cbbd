//! Scenario-torture soak: streams seeded random cases through the
//! session worker pool and audits every run against the physics
//! invariants (`zen2_sim::torture`), optionally re-running each case
//! through `System::run_scenario` directly and asserting bit-identical
//! `Run`s (differential mode). The session runs every case whose
//! scenario reads no RAPL counter without RAPL accounting, every case
//! with the performance counters of only the threads its probes read,
//! and trims every case's AC trace behind its open windows; the direct
//! runs keep all of them, so the differential check covers every path.
//! The summary counts the runs without RAPL accounting, the runs without
//! performance counters, the runs that kept their probed threads'
//! counters only, the runs that trimmed segments an earlier window
//! read, the runs whose PPT loop moved a cap, the runs that read one
//! socket's energy counter twice inside one 1 ms publication period, and
//! the runs whose session side advanced a slot in the held loop, which the
//! direct runs, keeping counters, never enter, and of those the runs that
//! kept RAPL accounting, the runs whose scenario stores a run of like
//! actions as one entry, and the runs with a sampled window, whose
//! samples the audit counts.
//!
//! ```text
//! torture [--seed N] [--cases N] [--differential]
//!         [--workers N] [--shard-size N] [--obs PATH] [--progress]
//!         [--report PATH] [--inject-fault residency|trace|power [--inject-at I]]
//! ```
//!
//! Stdout carries only the deterministic audit summary, byte-identical
//! for any `--workers`/`--shard-size` split; throughput and telemetry
//! go to stderr. On a violation the offending case is re-run under
//! `--workers 1`, shrunk to a minimal scenario, and written to the
//! `--report` path (default `torture-reproducer.txt`) as a
//! self-contained reproducer; the process exits 1. `--inject-fault`
//! deliberately tampers one run (case `--inject-at`, default 0) to
//! drill exactly that pipeline. See `docs/TORTURE.md`.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use zen2_experiments::SessionCli;
use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId, CTR_PPT_HELD_LOOP_SLOTS, SPAN_CASE};
use zen2_sim::torture::{
    check_case, generate_case, inject_fault, keeps_counters, keeps_rapl_accounting,
    reads_energy_twice_per_period, render_reproducer, samples_windows, shrink_scenario,
    stores_runs, throttled, trims_ac_trace, Fault, Violation,
};
use zen2_sim::{Case, Run, Scenario, Session, System};

struct Cli {
    session: SessionCli,
    seed: u64,
    cases: u64,
    differential: bool,
    report: PathBuf,
    fault: Option<Fault>,
    inject_at: u64,
}

fn usage(message: &str) -> ! {
    eprintln!("torture: {message}");
    eprintln!(
        "usage: torture [--seed N] [--cases N] [--differential] [--workers N] \
         [--shard-size N] [--obs PATH] [--progress] [--report PATH] \
         [--inject-fault residency|trace|power [--inject-at I]]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        session: SessionCli::default(),
        seed: 1,
        cases: 1000,
        differential: false,
        report: PathBuf::from("torture-reproducer.txt"),
        fault: None,
        inject_at: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed");
                cli.seed =
                    v.parse().unwrap_or_else(|_| usage(&format!("--seed {v:?}: not a number")));
            }
            "--cases" => {
                let v = value("--cases");
                cli.cases =
                    v.parse().unwrap_or_else(|_| usage(&format!("--cases {v:?}: not a count")));
            }
            "--differential" => cli.differential = true,
            "--report" => cli.report = PathBuf::from(value("--report")),
            "--inject-fault" => {
                let v = value("--inject-fault");
                cli.fault = Some(Fault::parse(&v).unwrap_or_else(|| {
                    usage(&format!("--inject-fault {v:?}: expected residency, trace, or power"))
                }));
            }
            "--inject-at" => {
                let v = value("--inject-at");
                cli.inject_at = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--inject-at {v:?}: not an index")));
            }
            other => {
                let shared = cli.session.take(other, &mut args).unwrap_or_else(|m| usage(&m));
                if !shared {
                    usage(&format!("unknown flag {other:?}"));
                }
            }
        }
    }
    if cli.fault.is_some() && cli.inject_at >= cli.cases {
        usage("--inject-at must be below --cases");
    }
    cli
}

/// One case's audit: invariant check (on the possibly tampered run)
/// plus the differential comparison (always on the pristine run).
fn audit(cli: &Cli, index: u64, mut run: Run, case: &Case) -> (Vec<Violation>, usize) {
    let mut violations = Vec::new();
    if cli.differential {
        let direct = System::new(case.config.clone(), case.seed)
            .run_scenario(&case.scenario)
            .unwrap_or_else(|e| usage(&format!("case {index} failed validation: {e}")));
        if direct != run {
            violations.push(Violation::Differential {
                detail: format!(
                    "System::run_scenario and the streaming path disagree on case {index} \
                     (direct: {} measurements ending {} ns; streamed: {} ending {} ns)",
                    direct.measurements.len(),
                    direct.end_ns,
                    run.measurements.len(),
                    run.end_ns,
                ),
            });
        }
    }
    if cli.fault.is_some() && index == cli.inject_at {
        if let Some(fault) = cli.fault {
            inject_fault(case, &mut run, fault);
        }
    }
    let measured = run.measurements.len();
    violations.extend(check_case(case, &run));
    (violations, measured)
}

/// Re-runs one failing case alone (workers = 1), shrinks its scenario
/// to a minimal still-failing one, and renders the reproducer.
fn reproduce(cli: &Cli, index: u64, violations: &[Violation]) -> String {
    let case = generate_case(cli.seed, index);
    let single = Session::new().workers(1);
    let rerun = single
        .run(std::slice::from_ref(&case))
        .ok()
        .and_then(|mut runs| runs.pop())
        .map(|run| audit(cli, index, run, &case).0);
    let confirmed = rerun.as_deref().unwrap_or(violations);
    let mut fails = |sc: &Scenario| {
        let candidate = Case::new("shrink", case.config.clone(), sc.clone(), case.seed);
        if candidate.scenario.validate(&candidate.config).is_err() {
            return false;
        }
        let Ok(mut runs) = single.run(std::slice::from_ref(&candidate)) else { return false };
        let Some(run) = runs.pop() else { return false };
        !audit(cli, index, run, &candidate).0.is_empty()
    };
    let shrunk = shrink_scenario(&case.scenario, &mut fails);
    render_reproducer(cli.seed, index, &case, confirmed, &shrunk)
}

thread_local! {
    /// Whether the `case` span last opened on this thread runs on a
    /// machine that keeps RAPL accounting.
    static CASE_KEEPS_RAPL: Cell<bool> = const { Cell::new(false) };
}

/// Counts the runs that entered the held loop, and those of them whose
/// machine kept RAPL accounting. A case reports its held-loop slots once,
/// when nonzero, on its worker's thread while its `case` span is open,
/// and that span's `rapl_accounting` attribute names the machine's
/// choice, so the counts hold for any worker or shard split.
#[derive(Default)]
struct HeldLoopRuns {
    all: AtomicUsize,
    with_rapl: AtomicUsize,
}

impl Recorder for HeldLoopRuns {
    fn span_open(&self, _: SpanId, _: Option<SpanId>, name: &'static str, attrs: &[Attr<'_>]) {
        if name == SPAN_CASE {
            let keeps = attrs.contains(&("rapl_accounting", AttrValue::Bool(true)));
            CASE_KEEPS_RAPL.with(|case| case.set(keeps));
        }
    }

    fn span_close(&self, _: SpanId) {}

    fn counter(&self, name: &'static str, _: u64) {
        if name == CTR_PPT_HELD_LOOP_SLOTS {
            self.all.fetch_add(1, Ordering::Relaxed);
            if CASE_KEEPS_RAPL.with(Cell::get) {
                self.with_rapl.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn gauge(&self, _: &'static str, _: f64) {}

    fn observe(&self, _: &'static str, _: f64) {}

    fn event(&self, _: &'static str, _: &[Attr<'_>]) {}
}

fn main() {
    let cli = parse_cli();
    let held = Arc::new(HeldLoopRuns::default());
    let (session, stack) =
        cli.session.session_with(vec![held.clone()]).unwrap_or_else(|message| usage(&message));

    let start_ns = zen2_obs::clock::now_ns();
    let mut failures: Vec<(u64, Vec<Violation>)> = Vec::new();
    let mut measured = 0usize;
    let mut without_rapl = 0usize;
    let mut without_counters = 0usize;
    let mut probed_counters = 0usize;
    let mut trimmed = 0usize;
    let mut throttled_runs = 0usize;
    let mut same_period_reads = 0usize;
    let mut run_entries = 0usize;
    let mut sampled = 0usize;
    let outcome = session.run_streaming(zen2_sim::torture::cases(cli.seed, cli.cases), |i, run| {
        let index = i as u64;
        // Regeneration is cheap and deterministic, so the sink needs no
        // side channel to know which scenario produced this run.
        let case = generate_case(cli.seed, index);
        throttled_runs += usize::from(throttled(&run));
        let (violations, m) = audit(&cli, index, run, &case);
        measured += m;
        without_rapl += usize::from(!keeps_rapl_accounting(&case));
        let keeps = keeps_counters(&case);
        without_counters += usize::from(!keeps);
        probed_counters += usize::from(keeps);
        trimmed += usize::from(trims_ac_trace(&case));
        same_period_reads += usize::from(reads_energy_twice_per_period(&case));
        run_entries += usize::from(stores_runs(&case));
        sampled += usize::from(samples_windows(&case));
        if !violations.is_empty() {
            failures.push((index, violations));
        }
    });
    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("torture: {message}");
            std::process::exit(1);
        }
    }
    let delivered = match outcome {
        Ok(n) => n,
        Err(error) => {
            eprintln!("torture: {error}");
            std::process::exit(1);
        }
    };
    let elapsed = zen2_obs::clock::secs_since(start_ns);
    eprintln!(
        "torture: {delivered} cases in {elapsed:.2} s ({:.0} cases/s incl. checking)",
        delivered as f64 / elapsed.max(1e-9)
    );

    // The deterministic audit summary — stdout only, no timing, so the
    // output is byte-identical for any --workers/--shard-size split.
    println!("torture soak: seed {}, {} cases", cli.seed, cli.cases);
    println!(
        "checked: {delivered} runs, {measured} measurements, differential {}",
        if cli.differential { "on" } else { "off" }
    );
    println!("without RAPL accounting: {without_rapl} runs");
    println!("without performance counters: {without_counters} runs");
    println!("counters of probed threads: {probed_counters} runs");
    println!("trimmed AC trace: {trimmed} runs");
    println!("throttled: {throttled_runs} runs");
    println!("same-period energy reads: {same_period_reads} runs");
    println!("held loop: {} runs", held.all.load(Ordering::Relaxed));
    println!("held loop with RAPL accounting: {} runs", held.with_rapl.load(Ordering::Relaxed));
    println!("runs of like actions: {run_entries} runs");
    println!("sampled windows: {sampled} runs");
    match cli.fault {
        Some(fault) => println!("injected: {} fault at case {}", fault.kind(), cli.inject_at),
        None => println!("injected: none"),
    }
    println!("violations: {}", failures.iter().map(|(_, v)| v.len()).sum::<usize>());
    for (index, violations) in &failures {
        for v in violations {
            println!("  case {index}: {v}");
        }
    }

    if let Some((index, violations)) = failures.first() {
        let report = reproduce(&cli, *index, violations);
        if let Err(e) = std::fs::write(&cli.report, &report) {
            eprintln!("torture: writing {}: {e}", cli.report.display());
        } else {
            eprintln!("torture: reproducer written to {}", cli.report.display());
        }
        std::process::exit(1);
    }
}
