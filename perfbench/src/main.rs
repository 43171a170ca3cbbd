//! The repository benchmark: paper-reproduction wall time and simulator
//! speed over two workloads, and per-layer timings of the public
//! simulator calls.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig07_grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` re-executes this binary once per repetition, each a fresh
//! process running the workload end to end, until `--seconds` are used,
//! and prints the median of every end-to-end metric. `--trace 1` runs one
//! fresh process that repeats the workload untraced and with a span
//! recorder on its `Session`, then times the layers' public calls, and
//! prints the per-layer metrics. The last stdout line is the result
//! object; the line before it records the host, the checks and a digest
//! of the workload's rendered `--json` tables.

mod layers;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use zen2_obs::clock;
use zen2_sim::Session;

use layers::{median, time_median_ns, Metric, SpanRecorder};
use workloads::{Job, Workload};

/// End-to-end metrics and units, printed by `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("wall_ns_per_sim_ms", "ns/ms"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, printed by `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("system.boot_us", "us"),
    ("system.fork_us", "us"),
    ("system.run_idle_ns_per_sim_ms", "ns/ms"),
    ("system.run_loaded_ns_per_sim_ms", "ns/ms"),
    ("system.pstate_request_us", "us"),
    ("system.dvfs_settle_us", "us"),
    ("system.rapl_read_us", "us"),
    ("system.set_workload_us", "us"),
    ("system.trace_mean_w_us", "us"),
    ("power.evaluate_idle_us", "us"),
    ("power.evaluate_loaded_us", "us"),
    ("scenario.validate_ms", "ms"),
    ("scenario.steps", "count"),
    ("scenario.probes", "count"),
    ("scenario.sim_ms", "ms"),
    ("session.case_ms_p50", "ms"),
    ("session.case_ms_tail", "ms"),
    ("session.case_tail_pct", "%"),
    ("session.case_samples", "count"),
    ("session.sim_ms_total", "ms"),
    ("session.fork_us", "us"),
    ("session.reduce_us", "us"),
    ("session.worker_util", "frac"),
    ("session.cache_misses", "count"),
    ("session.workers", "count"),
    ("sweep.case_gen_us", "us"),
    ("checkpoint.save_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_ms", "ms"),
    ("report.render_ms", "ms"),
    ("trace_overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Repetitions a timed run always makes, whatever `--seconds` says.
const MIN_REPEATS: usize = 2;
/// A run stops starting repetitions once this much time has passed, so it
/// ends well within three minutes on a slow host.
const HARD_STOP_S: f64 = 120.0;
/// Set-up is timed this many times per repetition, at least.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Set in a re-executed child: `timed` or `traced`.
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut child = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag} {v:?}: not a number"));
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(&value).ok_or(format!(
                        "unknown workload {value:?}; one of {}",
                        names.join(", ")
                    ))?);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace {value:?}: 0 or 1")),
            },
            "--child" => child = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        tiny,
        child,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("perfbench: {message}");
        std::process::exit(2);
    });
    let job = Job { workload: args.workload, seed: args.seed, tiny: args.tiny };
    match args.child.as_deref() {
        Some("timed") => child_timed(&job),
        Some("traced") => child_traced(&job),
        Some(other) => {
            eprintln!("perfbench: unknown child mode {other:?}");
            std::process::exit(2);
        }
        None => {
            if let Err(message) = parent(&args) {
                eprintln!("perfbench: {message}");
                std::process::exit(1);
            }
        }
    }
}

// ---- child processes ---------------------------------------------------------
//
// A child prints `metric <name> <value>`, `check <name> <ok|fail>
// <detail>` and `digest <hex>` lines on stdout for the parent to
// collect.

/// A directory for the checkpoint layer's files, next to the executable
/// (inside the build directory of the checkout), private to this process.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("benchmark locates itself");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The host's available parallelism: `nproc`, and the worker count
/// `Session::new()` sizes its pool to.
fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, 64 bit: a digest stable across hosts and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn print_checks(checks: &[workloads::Check]) {
    for c in checks {
        println!("check {} {} {}", c.name, if c.ok { "ok" } else { "fail" }, c.detail);
    }
}

fn median_setup_s(job: &Job) -> f64 {
    time_median_ns(SETUP_REPS, 2000, 0.5, |_| (), |()| job.setup()) / 1e9
}

/// One end-to-end repetition: the user-visible path (set-up, run,
/// reduction, `--json` rendering), then the set-up alone, repeatedly.
fn child_timed(job: &Job) {
    let t = clock::now_ns();
    let outcome = job.run(&Session::new());
    let json = (outcome.render)();
    let wall_s = clock::secs_since(t);
    let rss = peak_rss_mb();

    let setup_s = median_setup_s(job);
    let extent = job.extent();
    let sim_s = (outcome.run_ns as f64 / 1e9 - setup_s).max(1e-9);
    println!("metric wall_s {wall_s}");
    println!("metric setup_s {setup_s}");
    println!("metric wall_ns_per_sim_ms {}", sim_s * 1e9 / extent.sim_ms);
    println!("metric cases_per_s {}", extent.cases as f64 / sim_s);
    println!("metric peak_rss_mb {rss}");
    println!("digest {:016x}", fnv1a(format!("{json}\n").as_bytes()));
    print_checks(&outcome.checks);
}

/// One traced pass: the workload untraced and with a span recorder, then
/// the layers' public calls.
fn child_traced(job: &Job) {
    let untraced = job.run(&Session::new());
    let json = (untraced.render)();
    let render_ms = time_median_ns(5, 200, 0.25, |_| (), |()| (untraced.render)()) / 1e6;

    let recorder = std::sync::Arc::new(SpanRecorder::default());
    let traced = job.run(&Session::new().recorder(recorder.clone()));
    let recorder = std::sync::Arc::into_inner(recorder).expect("session released its recorder");
    let mut metrics: Vec<Metric> = recorder.metrics();

    let extent = job.extent();
    metrics.extend([
        ("scenario.steps", extent.steps as f64),
        ("scenario.probes", extent.probes as f64),
        ("scenario.sim_ms", extent.sim_ms),
        ("session.workers", workers() as f64),
        ("report.render_ms", render_ms),
        ("trace_overhead_frac", traced.run_ns as f64 / untraced.run_ns as f64 - 1.0),
    ]);
    let scratch = scratch_dir();
    metrics.extend(layers::workload_layers(job, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    metrics.extend(layers::system_layer());
    metrics.extend(layers::power_layer());

    for (name, value) in metrics {
        println!("metric {name} {value}");
    }
    println!("digest {:016x}", fnv1a(format!("{json}\n").as_bytes()));
    print_checks(&untraced.checks);
    print_checks(&traced.checks);
}

// ---- the parent --------------------------------------------------------------

#[derive(Default)]
struct ChildReport {
    metrics: Vec<(String, f64)>,
    /// `(name, ok, detail)`.
    checks: Vec<(String, bool, String)>,
    digest: String,
}

fn run_child(args: &Args, mode: &str) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| format!("starting the {mode} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {mode} child failed: {}", output.status));
    }
    let mut report = ChildReport::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut parts = line.splitn(4, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                let value: f64 =
                    value.parse().map_err(|_| format!("child metric {name}: {value:?}"))?;
                if !value.is_finite() {
                    return Err(format!("child metric {name} is not finite"));
                }
                report.metrics.push((name.to_string(), value));
            }
            (Some("check"), Some(name), Some(status)) => report.checks.push((
                name.to_string(),
                status == "ok",
                parts.next().unwrap_or("").to_string(),
            )),
            (Some("digest"), Some(hex), None) => report.digest = hex.to_string(),
            _ => return Err(format!("unexpected child output line {line:?}")),
        }
    }
    Ok(report)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Output of a short-lived tool, or `"unavailable"`.
fn tool_output(program: &str, args: &[&str], root: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(root)
        // Never let git look above the checkout for a repository.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a over the simulator's sources (every `.rs` and `.toml` under
/// `crates/`, plus the lock file), in path order: identifies the code
/// measured where no git commit is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend(file.strip_prefix(root).unwrap_or(file).to_string_lossy().bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&bytes))
}

fn host_json() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits in the repo");
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\":{},\"workers\":{},\"git_commit\":{},\"source_digest\":{},\"rustc\":{},\
         \"profile\":{}}}",
        workers(),
        workers(),
        json_str(&tool_output("git", &["rev-parse", "HEAD"], root)),
        json_str(&source_digest(root)),
        json_str(&tool_output("rustc", &["--version"], root)),
        json_str(profile),
    )
}

fn parent(args: &Args) -> Result<(), String> {
    let start = clock::now_ns();
    let (names, reports) = if args.trace {
        (PER_LAYER, vec![run_child(args, "traced")?])
    } else {
        let mut reports = Vec::new();
        loop {
            reports.push(run_child(args, "timed")?);
            let elapsed = clock::secs_since(start);
            let next_done = elapsed + elapsed / reports.len() as f64;
            if elapsed > HARD_STOP_S || (reports.len() >= MIN_REPEATS && next_done > args.seconds) {
                break;
            }
        }
        (END_TO_END, reports)
    };

    let mut checks: Vec<(String, bool, String)> =
        reports.iter().flat_map(|r| r.checks.iter().cloned()).collect();
    let digest = &reports[0].digest;
    checks.push((
        "tables_identical_across_repeats".into(),
        reports.iter().all(|r| &r.digest == digest),
        format!("{} repetitions", reports.len()),
    ));
    let attempted = checks.len();
    let failed = checks.iter().filter(|c| !c.1).count();

    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let mut values: Vec<f64> = if *name == "failed_frac" {
            vec![failed as f64 / attempted as f64]
        } else {
            reports
                .iter()
                .flat_map(|r| r.metrics.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
                .collect()
        };
        if values.is_empty() {
            return Err(format!("no value for metric {name}"));
        }
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            median(&mut values),
            json_str(unit)
        );
    }

    // One entry per check name: passes over repetitions, and the detail
    // of the last failure (or of the last pass).
    let mut by_name: Vec<(&str, usize, usize, &str)> = Vec::new();
    for (name, ok, detail) in &checks {
        let i = match by_name.iter().position(|e| e.0 == name) {
            Some(i) => i,
            None => {
                by_name.push((name, 0, 0, detail));
                by_name.len() - 1
            }
        };
        let entry = &mut by_name[i];
        entry.1 += usize::from(*ok);
        entry.2 += 1;
        if !ok || entry.1 == entry.2 {
            entry.3 = detail;
        }
    }
    let check_list: Vec<String> = by_name
        .iter()
        .map(|(name, passed, of, detail)| {
            format!(
                "{{\"name\":{},\"passed\":{passed},\"of\":{of},\"detail\":{}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"repetitions\":{},\"host\":{},\
         \"tables_digest\":{},\"checks\":[{}]}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        reports.len(),
        host_json(),
        json_str(digest),
        check_list.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0
    );
    Ok(())
}
