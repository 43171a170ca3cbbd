//! The paper's experiments, one module per table/figure, and the one
//! table every experiment binary runs them from.
//!
//! Every experiment follows the same shape:
//!
//! * a `Config` with the paper's full parameters ([`Scale::Paper`]) and a
//!   cheaper variant for CI and quick runs ([`Scale::Quick`]),
//! * a `run(config, seed, &Session)` function that drives `zen2-sim`
//!   through the paper's methodology on the caller's session and
//!   returns a plain result struct,
//! * a `render()` producing the paper-style text table, including the
//!   published reference values next to the measured ones, and a
//!   `tables()` giving the same report as [`report::Table`]s for
//!   `--json`.
//!
//! Grids are expressed declaratively: a [`Sweep`](zen2_sim::Sweep) is
//! its axes plus one function from a grid point's axis indices to its
//! `(SimConfig, Scenario)`, each case with a deterministic child seed,
//! and the batch executes through the binary's [`Session`] worker pool —
//! no experiment module spawns threads itself, and results are
//! byte-identical regardless of parallelism.
//! The wide-grid modules additionally expose a `run_checkpointed`
//! entry point taking a [`CheckpointSpec`]; `docs/SWEEPS.md` documents
//! that workflow end to end.
//!
//! One table lists every experiment: the bin that runs it, its seed
//! under that bin and under `all`, and how to run it into a text report
//! and `--json` tables, either narrow or as the bin's one checkpointed
//! grid. Each figure bin's `main` is one call to [`main`], which prints
//! what [`render`] renders: it parses the shared flags once and runs the
//! bin's rows, and `all` runs every row. The tier-1 golden test renders
//! through [`render`] too.
//!
//! | Module | Paper item |
//! |--------|-----------|
//! | [`fig01_green500`]   | Fig. 1 — Green500 efficiency by µarch |
//! | [`fig03_transition`] | Fig. 3 — frequency transition delays (+ §V-B anomaly) |
//! | [`tab1_mixed_freq`]  | Table I — mixed frequencies on one CCX |
//! | [`fig04_l3_latency`] | Fig. 4 — L3 latency under mixed frequencies |
//! | [`fig05_membw`]      | Fig. 5 — I/O-die P-states vs DRAM bandwidth/latency |
//! | [`fig06_firestarter`]| Fig. 6 — FIRESTARTER throttling ± SMT |
//! | [`fig07_idle_power`] | Fig. 7 — idle/C-state power staircase |
//! | [`fig08_wakeup`]     | Fig. 8 — C-state wakeup latencies |
//! | [`fig09_rapl_quality`]| Fig. 9 — RAPL vs AC reference scatter |
//! | [`fig10_hamming`]    | Fig. 10 — operand-weight power ECDFs |
//! | [`sec5a_sibling`]    | §V-A — idle/offline sibling raises core frequency |
//! | [`sec6b_offline`]    | §VI-B — offline threads block package C6 |
//! | [`sec7_update_rate`] | §VII — RAPL counter update interval |
//! | [`ext_manycore`]     | §VIII future work — many-core throttling prediction |
//! | [`ext_cstate_breakeven`] | extension — informed C-state break-even analysis |

pub mod ext_cstate_breakeven;
pub mod ext_manycore;
pub mod fig01_green500;
pub mod fig03_transition;
pub mod fig04_l3_latency;
pub mod fig05_membw;
pub mod fig06_firestarter;
pub mod fig07_idle_power;
pub mod fig08_wakeup;
pub mod fig09_rapl_quality;
pub mod fig10_hamming;
pub mod report;
pub mod sec5a_sibling;
pub mod sec6b_offline;
pub mod sec7_update_rate;
pub mod tab1_mixed_freq;

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use crate::report::{tables_to_json, Report};
use crate::{
    ext_cstate_breakeven as breakeven, fig01_green500 as fig01, fig03_transition as fig03,
    fig04_l3_latency as fig04, fig05_membw as fig05, fig06_firestarter as fig06,
    fig07_idle_power as fig07, fig08_wakeup as fig08, fig09_rapl_quality as fig09,
    fig10_hamming as fig10, sec5a_sibling as sec5a, sec6b_offline as sec6b,
    sec7_update_rate as sec7, tab1_mixed_freq as tab1,
};
use zen2_isa::KernelClass;
use zen2_obs::{Heartbeat, JsonlSink, Multi, Recorder, SummarySink};
use zen2_sim::{CheckpointError, CheckpointSpec, Session};
use Run::{Grid, Narrow};

/// Experiment size: the paper's full parameters or a CI-friendly subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts / durations; minutes of total runtime.
    Quick,
    /// The paper's published parameters.
    Paper,
}

impl Scale {
    /// Picks between the two scale values.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// A grid's report, or `None` after a `--halt-after` halt.
type Outcome = Result<Option<Report>, CheckpointError>;

/// One experiment as the binaries run it.
struct Experiment {
    /// The figure bin that runs it (`src/bin/<bin>.rs`).
    bin: &'static str,
    /// Its seed under its own bin.
    seed: u64,
    /// Its seed under `all`, or `None` for the two §V-B sections that
    /// only `fig03 --anomaly` runs.
    all_seed: Option<u64>,
    /// How it runs at a scale under a seed.
    run: Run,
}

/// How a row runs, at a scale under a seed.
enum Run {
    /// A narrow experiment: it runs on the binary's session and has no
    /// grid to checkpoint.
    Narrow(fn(Scale, u64, &Session) -> Report),
    /// The bin's one checkpointed grid, run on the binary's session. It
    /// checkpoints to its bin's `--checkpoint` path, and to that path
    /// plus `-<bin>` under `all`.
    Grid(fn(Scale, u64, &Session, &CheckpointSpec) -> Outcome),
}

/// The [`Run::Grid`] of a module of the standard shape:
/// `run_checkpointed(&Config::new(scale), seed, session, spec)`.
macro_rules! grid {
    ($module:ident) => {
        Grid(|scale, seed, session, spec| {
            let r = $module::run_checkpointed(&$module::Config::new(scale), seed, session, spec)?;
            Ok(r.map(|r| Report::of(&r, $module::render, $module::tables)))
        })
    };
}

/// Every experiment, in the order `all` runs them. The two seed columns
/// differ only because the bins and `all` grew apart; collapsing them
/// changes results, so it waits for the fidelity ledger.
const EXPERIMENTS: &[Experiment] = &[
    // Fig. 1 replots published Green500 data and draws nothing random.
    Experiment {
        bin: "fig01",
        seed: 0,
        all_seed: Some(0),
        run: Narrow(|_, _, _| Report::of(&fig01::run()[..], fig01::render, fig01::tables)),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163,
        all_seed: Some(1),
        run: Narrow(|scale, seed, session| {
            let r = fig03::run(&fig03::Config::fig3(scale), seed, session);
            Report::of(&r, fig03::render, fig03::tables)
        }),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163A,
        all_seed: None,
        run: Narrow(|scale, seed, session| {
            let r = fig03::run(&fig03::Config::anomaly(scale), seed, session);
            let title = "SS V-B anomaly: 2.5 <-> 2.2 GHz, waits 0-10 ms";
            Report::of(&r, |r| format!("\n--- {title} ---\n{}", fig03::render(r)), fig03::tables)
        }),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163B,
        all_seed: None,
        run: Narrow(|scale, seed, session| {
            let r = fig03::run(&fig03::Config::anomaly_long_waits(scale), seed, session);
            let title = "SS V-B anomaly control: waits >= 5 ms (effect must vanish)";
            Report::of(&r, |r| format!("\n--- {title} ---\n{}", fig03::render(r)), fig03::tables)
        }),
    },
    Experiment { bin: "tab1", seed: 0x7AB1, all_seed: Some(2), run: grid!(tab1) },
    Experiment {
        bin: "fig04",
        seed: 0xF164,
        all_seed: Some(3),
        run: Narrow(|scale, seed, session| {
            let r = fig04::run(&fig04::Config::new(scale), seed, session);
            Report::of(&r, fig04::render, fig04::tables)
        }),
    },
    Experiment {
        bin: "fig05",
        seed: 0xF165,
        all_seed: Some(4),
        run: Narrow(|_, seed, session| {
            Report::of(&fig05::run(seed, session), fig05::render, fig05::tables)
        }),
    },
    Experiment { bin: "fig06", seed: 0xF166, all_seed: Some(5), run: grid!(fig06) },
    Experiment { bin: "fig07", seed: 0xF167, all_seed: Some(6), run: grid!(fig07) },
    Experiment {
        bin: "fig08",
        seed: 0xF168,
        all_seed: Some(7),
        run: Narrow(|scale, seed, session| {
            let r = fig08::run(&fig08::Config::new(scale), seed, session);
            Report::of(&r, fig08::render, fig08::tables)
        }),
    },
    Experiment { bin: "fig09", seed: 0xF169, all_seed: Some(8), run: grid!(fig09) },
    // One grid of two cases: vxorps at the row's seed, shr at the next.
    Experiment {
        bin: "fig10",
        seed: 0xF1610,
        all_seed: Some(9),
        run: Grid(|scale, seed, session, spec| {
            let pairs = [(KernelClass::VXorps, seed), (KernelClass::Shr, seed + 1)];
            let r = fig10::run_grid(&fig10::Config::new(scale), &pairs, session, spec)?;
            Ok(r.map(|r| Report {
                text: r.iter().map(fig10::render).collect(),
                tables: r.iter().flat_map(fig10::tables).collect(),
            }))
        }),
    },
    Experiment {
        bin: "sec5a",
        seed: 0x5EC5A,
        all_seed: Some(11),
        run: Narrow(|_, seed, session| {
            Report::of(&sec5a::run(seed, session), sec5a::render, sec5a::tables)
        }),
    },
    Experiment {
        bin: "sec6b",
        seed: 0x5EC6B,
        all_seed: Some(12),
        run: Narrow(|_, seed, session| {
            Report::of(&sec6b::run(seed, session), sec6b::render, sec6b::tables)
        }),
    },
    Experiment {
        bin: "sec7",
        seed: 0x5EC7,
        all_seed: Some(13),
        run: Narrow(|_, seed, session| {
            let r = sec7::run(&sec7::Config::default(), seed, session);
            Report::of(&r, sec7::render, sec7::tables)
        }),
    },
    Experiment { bin: "ext_manycore", seed: 0xE87, all_seed: Some(14), run: grid!(ext_manycore) },
    Experiment {
        bin: "ext_breakeven",
        seed: 0xB4EA,
        all_seed: Some(15),
        run: Narrow(|_, seed, session| {
            let r = breakeven::run(seed, session);
            Report::of(&r, breakeven::render, breakeven::tables)
        }),
    },
];

/// The rows binary `target` runs, in order, each with its seed there:
/// its own rows (the §V-B sections only with `--anomaly`), or every
/// `all` row for `all`.
fn rows(target: &str, anomaly: bool) -> impl Iterator<Item = (&'static Experiment, u64)> + '_ {
    EXPERIMENTS.iter().filter_map(move |row| match target {
        "all" => Some((row, row.all_seed?)),
        bin => (row.bin == bin && (row.all_seed.is_some() || anomaly)).then_some((row, row.seed)),
    })
}

/// The suffix `row`'s checkpoint file adds to binary `target`'s
/// `--checkpoint` path, or `None` when the row checkpoints nothing.
fn suffix(target: &str, row: &Experiment) -> Option<String> {
    let Grid(_) = row.run else { return None };
    Some(if target == "all" { format!("-{}", row.bin) } else { String::new() })
}

/// The spec one grid runs under: `spec` with `suffix` appended to its
/// path. `--halt-after`, a testing aid for a binary with a single
/// checkpoint file, passes only to a grid at the exact `--checkpoint`
/// path — `all` drops it, so its runs always finish.
fn spec_for(spec: &CheckpointSpec, suffix: &str) -> CheckpointSpec {
    let path = spec.path.as_ref().map(|p| {
        let mut name = p.as_os_str().to_os_string();
        name.push(suffix);
        PathBuf::from(name)
    });
    let halt_after = if suffix.is_empty() { spec.halt_after } else { None };
    CheckpointSpec { path, resume: spec.resume, halt_after, shard: spec.shard }
}

const USAGE: &str = "[--paper] [--json] [--anomaly] [--checkpoint PATH [--resume] \
[--halt-after N]] [--workers N] [--shard-size N] [--obs PATH] [--progress]";

/// The command line of every figure bin and of `all`, parsed once. Any
/// flag outside this set is a usage error.
///
/// * `--paper` — the paper's full parameters instead of [`Scale::Quick`].
/// * `--json` — the summary tables as one JSON array instead of text.
/// * `--anomaly` — `fig03` adds the two §V-B sections.
/// * `--checkpoint <path>` — persist each grid's cells at every shard
///   boundary (atomic replace; a kill at any instant leaves a valid
///   checkpoint).
/// * `--resume` — pick the run back up from the checkpoint (a missing
///   file starts fresh, so restart scripts are idempotent).
/// * `--halt-after <n>` — testing aid: halt cleanly after `n`
///   checkpoint saves, exactly as a kill right after the save would.
/// * the [`SessionCli`] flags.
///
/// `docs/SWEEPS.md` documents the checkpoint workflow end to end.
#[derive(Debug)]
struct Cli {
    scale: Scale,
    json: bool,
    anomaly: bool,
    checkpoint: CheckpointSpec,
    session: SessionCli,
}

impl Cli {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            json: false,
            anomaly: false,
            checkpoint: CheckpointSpec::none(),
            session: SessionCli::default(),
        };
        let spec = &mut cli.checkpoint;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => cli.scale = Scale::Paper,
                "--json" => cli.json = true,
                "--anomaly" => cli.anomaly = true,
                "--checkpoint" => {
                    let path = args.next().ok_or("--checkpoint needs a file path")?;
                    spec.path = Some(PathBuf::from(path));
                }
                "--resume" => spec.resume = true,
                "--halt-after" => {
                    let n = args.next().ok_or("--halt-after needs a shard count")?;
                    spec.halt_after =
                        Some(n.parse().map_err(|_| format!("--halt-after {n:?}: not a count"))?);
                }
                other => {
                    if !cli.session.take(other, &mut args)? {
                        return Err(format!("unknown flag {other:?}"));
                    }
                }
            }
        }
        if spec.path.is_none() {
            if spec.resume {
                return Err("--resume requires --checkpoint <path>".into());
            }
            if spec.halt_after.is_some() {
                return Err("--halt-after requires --checkpoint <path>".into());
            }
        }
        Ok(cli)
    }
}

/// What one invocation of a figure bin or of `all` prints: its whole
/// stdout, and the closing stderr message and exit code, if any.
#[derive(Debug)]
pub struct Rendered {
    /// Everything the invocation writes to stdout.
    pub stdout: String,
    /// The last line for stderr, after the bin's name: a usage error, a
    /// checkpoint or telemetry failure, or the hint a deliberate halt
    /// leaves.
    pub stderr: Option<String>,
    /// The exit code: 2 for a usage error, 1 for a failure, else 0.
    pub code: i32,
}

/// Runs `bin`'s rows of the experiment table under the flags in `args`
/// on one session and renders what the bin prints: each report's text
/// in order, or with `--json` one array of every report's tables. `all`
/// runs every row under its own seeds and prints a header first.
///
/// Usage errors exit 2 and checkpoint failures 1, keeping the reports of
/// the rows before the failure; a deliberate `--halt-after` halt exits 0
/// with a resume hint. `--obs` / `--progress` telemetry goes to the trace
/// file and stderr as the rows run, never into the rendered stdout.
pub fn render(bin: &str, args: impl IntoIterator<Item = String>) -> Rendered {
    let mut stdout = String::new();
    let usage = |message: String| Rendered {
        stdout: String::new(),
        stderr: Some(format!("{message}\nusage: {bin} {USAGE}")),
        code: 2,
    };
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(message) => return usage(message),
    };
    let (session, stack) = match cli.session.session() {
        Ok(built) => built,
        Err(message) => return usage(message),
    };
    if bin == "all" && !cli.json {
        stdout.push_str(&format!(
            "=== zen2-ee: full experiment suite ({:?} scale) ===\n\n",
            cli.scale
        ));
    }
    let mut tables = Vec::new();
    let mut halted = false;
    let mut failure = None;
    for (row, seed) in rows(bin, cli.anomaly) {
        if cli.session.progress {
            eprintln!("{bin}: running {}", row.bin);
        }
        let spec = spec_for(&cli.checkpoint, &suffix(bin, row).unwrap_or_default());
        let outcome = match row.run {
            Narrow(run) => Ok(Some(run(cli.scale, seed, &session))),
            Grid(run) => run(cli.scale, seed, &session, &spec),
        };
        match outcome {
            Ok(Some(report)) => {
                if cli.json {
                    tables.extend(report.tables);
                } else {
                    stdout.push_str(&report.text);
                }
            }
            Ok(None) => {
                halted = true;
                break;
            }
            Err(error) => {
                failure = Some(error);
                break;
            }
        }
    }
    let (stderr, code) = if let Some(Err(message)) = stack.as_ref().map(ObsStack::finish) {
        (Some(message), 1)
    } else if let Some(error) = failure {
        (Some(error.to_string()), 1)
    } else if halted {
        let path = cli.checkpoint.path.unwrap_or_default();
        let hint = format!(
            "halted mid-sweep (--halt-after); resume with --checkpoint {} --resume",
            path.display()
        );
        (Some(hint), 0)
    } else {
        if cli.json {
            stdout.push_str(&tables_to_json(&tables));
            stdout.push('\n');
        }
        (None, 0)
    };
    Rendered { stdout, stderr, code }
}

/// The `main` of every figure bin and of `all`: prints what [`render`]
/// renders for the process's arguments, then the closing stderr line,
/// and exits with its code.
pub fn main(bin: &str) {
    let rendered = render(bin, std::env::args().skip(1));
    print!("{}", rendered.stdout);
    if let Some(message) = rendered.stderr {
        eprintln!("{bin}: {message}");
    }
    if rendered.code != 0 {
        // `exit` skips the flush a normal return would make.
        let _ = std::io::stdout().flush();
        std::process::exit(rendered.code);
    }
}

/// The session and telemetry flags of every sweep-running binary (the
/// figure bins, `all` and `torture`):
///
/// * `--workers <n>` / `--shard-size <n>` — size the worker pool and
///   the streaming shards. Results never depend on either (the
///   determinism contract); they control parallelism and — because
///   checkpoints are cut at shard boundaries, every
///   `workers × shard_size` cases — checkpoint granularity.
/// * `--obs <path>` — write the run's telemetry as a JSONL trace to
///   `<path>` and print an aggregate summary table (span durations,
///   counters, worker utilization) to stderr at the end.
/// * `--progress` — print rate-limited `done/total … cases/s … eta`
///   heartbeat lines to stderr while the sweep runs.
///
/// Telemetry is out-of-band by construction: results (stdout, `--json`,
/// checkpoints) are byte-identical with or without these flags. See
/// `docs/OBSERVABILITY.md`.
#[derive(Debug, Default, PartialEq)]
pub struct SessionCli {
    workers: Option<usize>,
    shard_size: Option<usize>,
    obs: Option<PathBuf>,
    progress: bool,
}

impl SessionCli {
    /// Consumes `flag` (and its value, from `args`) when it is one of
    /// these flags; `Ok(false)` leaves any other flag to the caller.
    ///
    /// # Errors
    /// Errors with a usage message on a missing or malformed value.
    pub fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        let mut count = || {
            let n = value("a count")?;
            n.parse().map(Some).map_err(|_| format!("{flag} {n:?}: not a count"))
        };
        match flag {
            "--workers" => self.workers = count()?,
            "--shard-size" => self.shard_size = count()?,
            "--obs" => self.obs = Some(PathBuf::from(value("a file path")?)),
            "--progress" => self.progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the session these flags ask for, with the telemetry stack
    /// attached when there is one.
    ///
    /// # Errors
    /// Errors when the `--obs` trace file cannot be created.
    pub fn session(&self) -> Result<(Session, Option<ObsStack>), String> {
        self.session_with(Vec::new())
    }

    /// [`session`](Self::session), with `sinks` in the telemetry stack
    /// after the ones the flags ask for.
    ///
    /// # Errors
    /// Errors when the `--obs` trace file cannot be created.
    pub fn session_with(
        &self,
        sinks: Vec<Arc<dyn Recorder>>,
    ) -> Result<(Session, Option<ObsStack>), String> {
        let mut session = Session::new();
        if let Some(n) = self.workers {
            session = session.workers(n);
        }
        if let Some(n) = self.shard_size {
            session = session.shard_size(n);
        }
        let stack = self.stack(sinks)?;
        if let Some(stack) = &stack {
            session = session.recorder(stack.recorder.clone());
        }
        Ok((session, stack))
    }

    /// The sink stack `--obs` / `--progress` ask for, followed by
    /// `extra` — `None` when there is no sink at all (the session then
    /// runs with zero telemetry overhead).
    fn stack(&self, extra: Vec<Arc<dyn Recorder>>) -> Result<Option<ObsStack>, String> {
        let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
        let mut jsonl = None;
        let mut summary = None;
        if let Some(path) = &self.obs {
            let sink = Arc::new(
                JsonlSink::create(path).map_err(|e| format!("--obs {}: {e}", path.display()))?,
            );
            sinks.push(sink.clone());
            jsonl = Some(sink);
            let agg = Arc::new(SummarySink::new());
            sinks.push(agg.clone());
            summary = Some(agg);
        }
        if self.progress {
            sinks.push(Arc::new(Heartbeat::new()));
        }
        sinks.extend(extra);
        if sinks.is_empty() {
            return Ok(None);
        }
        Ok(Some(ObsStack { recorder: Arc::new(Multi::new(sinks)), jsonl, summary }))
    }
}

/// The live sink stack behind one `--obs` / `--progress` invocation,
/// attached to the session [`SessionCli::session`] builds:
/// [`ObsStack::finish`] it after the run.
pub struct ObsStack {
    recorder: Arc<Multi>,
    jsonl: Option<Arc<JsonlSink>>,
    summary: Option<Arc<SummarySink>>,
}

impl ObsStack {
    /// Flushes the JSONL trace and prints the summary table to stderr,
    /// followed by the process's peak RSS where the host reports it.
    ///
    /// # Errors
    /// Errors when the trace file failed to write.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(jsonl) = &self.jsonl {
            jsonl.finish().map_err(|e| format!("writing telemetry trace: {e}"))?;
        }
        if let Some(summary) = &self.summary {
            eprint!("{}", summary.render());
            if let Some(mb) = peak_rss_mb() {
                eprintln!("peak RSS: {mb:.1} MB");
            }
        }
        Ok(())
    }
}

/// This process's peak resident set so far, MB: `VmHWM` in
/// `/proc/self/status`, or `None` on a host without that file. Unlike a
/// child's `ru_maxrss`, it counts no page of the process that started
/// this one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Asserts that `sweep` builds exactly `reference`'s cases, case by
/// case: the same config, scenario and seed (labels may differ).
#[cfg(test)]
fn assert_same_cases(sweep: &zen2_sim::Sweep, reference: &[zen2_sim::Case]) {
    assert_eq!(sweep.len(), reference.len(), "{}: case count", sweep.label());
    for (index, want) in reference.iter().enumerate() {
        let case = sweep.case(index);
        assert_eq!(case.config, want.config, "{}: config", case.label);
        assert_eq!(case.scenario, want.scenario, "{}: scenario", case.label);
        assert_eq!(case.seed, want.seed, "{}: seed", case.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Paper.pick(1, 100), 100);
    }

    fn parse_cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Result<CheckpointSpec, String> {
        parse_cli(args).map(|cli| cli.checkpoint)
    }

    #[test]
    fn checkpoint_flags_parse_the_flag_triple() {
        let spec = parse(&["--json", "--checkpoint", "ck.json", "--resume"]).unwrap();
        assert_eq!(spec.path.as_deref(), Some(Path::new("ck.json")));
        assert!(spec.resume);
        assert_eq!(spec.halt_after, None);
        let spec = parse(&["--checkpoint", "ck", "--halt-after", "3"]).unwrap();
        assert_eq!(spec.halt_after, Some(3));
        assert_eq!(parse(&["--paper"]).unwrap(), CheckpointSpec::none());
    }

    #[test]
    fn checkpoint_flags_reject_incomplete_sets() {
        assert!(parse(&["--checkpoint"]).is_err());
        assert!(parse(&["--resume"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--halt-after", "2"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--checkpoint", "ck", "--halt-after", "soon"]).is_err());
    }

    #[test]
    fn a_mistyped_flag_is_a_usage_error() {
        let err = parse_cli(&["--json", "--chekpoint", "run.ck"]).unwrap_err();
        assert!(err.contains("unknown flag \"--chekpoint\""), "{err}");
        assert!(parse_cli(&["fig09"]).unwrap_err().contains("unknown flag"));
        assert!(parse_cli(&["--quick"]).unwrap_err().contains("unknown flag"));
        let err = parse_cli(&["--checkpoint", "ck", "--shard-range", "0/2"]).unwrap_err();
        assert!(err.contains("unknown flag \"--shard-range\""), "{err}");
        // The accepted set: the union of every figure bin's flags.
        let every = "--paper --json --anomaly --checkpoint ck --resume --halt-after 1 \
                     --workers 2 --shard-size 3 --obs trace.jsonl --progress";
        let cli = parse_cli(&every.split_whitespace().collect::<Vec<_>>()).unwrap();
        assert_eq!((cli.scale, cli.json, cli.anomaly), (Scale::Paper, true, true));
        assert_eq!((cli.session.workers, cli.session.shard_size), (Some(2), Some(3)));
        assert!(parse_cli(&["--workers", "many"]).unwrap_err().contains("not a count"));
    }

    fn parse_obs(args: &[&str]) -> Result<SessionCli, String> {
        parse_cli(args).map(|cli| cli.session)
    }

    #[test]
    fn obs_cli_parses_the_flag_pair() {
        let cli = parse_obs(&["--json", "--obs", "trace.jsonl", "--progress"]).unwrap();
        assert_eq!(cli.obs.as_deref(), Some(Path::new("trace.jsonl")));
        assert!(cli.progress);
        assert_eq!(parse_obs(&["--paper"]).unwrap(), SessionCli::default());
        assert!(parse_obs(&["--obs"]).is_err(), "--obs needs a path");
    }

    #[test]
    fn obs_stack_is_absent_without_flags() {
        assert!(SessionCli::default().stack(Vec::new()).unwrap().is_none());
        let progress_only = SessionCli { progress: true, ..SessionCli::default() };
        let stack = progress_only.stack(Vec::new()).unwrap().expect("progress builds a stack");
        stack.finish().unwrap();
        // A caller's own sink builds a stack without any flag.
        let sink: Arc<dyn Recorder> = Arc::new(zen2_obs::MemorySink::new());
        let stack =
            SessionCli::default().stack(vec![sink]).unwrap().expect("a sink builds a stack");
        stack.finish().unwrap();
    }

    #[test]
    fn spec_for_appends_the_experiment_name() {
        let spec = parse(&["--checkpoint", "run/ck", "--resume", "--halt-after", "2"]).unwrap();
        let derived = spec_for(&spec, "-fig09");
        assert_eq!(derived.path.as_deref(), Some(Path::new("run/ck-fig09")));
        assert!(derived.resume);
        assert_eq!(derived.halt_after, None, "halt-after is not propagated to `all`");
        assert_eq!(spec.halt_after, Some(2));
        // A single-grid bin writes the exact path and honours it.
        assert_eq!(spec_for(&spec, ""), spec);
    }

    #[test]
    fn every_figure_bin_file_has_a_row_and_every_row_a_bin_file() {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).unwrap() {
            let path = entry.unwrap().path();
            let bin = path.file_stem().unwrap().to_str().unwrap().to_string();
            if ["ablations", "torture"].contains(&bin.as_str()) {
                continue; // not figure bins: they run no rows
            }
            // Each file runs its own rows: it calls `main` with its name.
            let source = std::fs::read_to_string(&path).unwrap();
            assert!(source.contains(&format!("zen2_experiments::main(\"{bin}\")")), "{bin}.rs");
            files.push(bin);
        }
        files.sort();
        let mut bins: Vec<&str> = EXPERIMENTS.iter().map(|row| row.bin).chain(["all"]).collect();
        bins.sort();
        bins.dedup();
        assert_eq!(files, bins);
    }

    #[test]
    fn narrow_rows_run_on_the_session_they_are_given() {
        // The binary's session reaches every narrow row: a recorder on
        // it sees a case for every row that simulates (fig04's nine
        // cells, ext_breakeven's and sec7's one case), and recording
        // changes no report.
        use zen2_obs::MemorySink;
        use zen2_sim::obs::SPAN_CASE;
        for (row, seed) in rows("all", false) {
            let Narrow(run) = row.run else { continue };
            let sink = Arc::new(MemorySink::new());
            let recorded = run(Scale::Quick, seed, &Session::new().recorder(sink.clone()));
            let single = run(Scale::Quick, seed, &Session::new().workers(1));
            assert_eq!(recorded.text, single.text, "{}", row.bin);
            assert_eq!(tables_to_json(&recorded.tables), tables_to_json(&single.tables));
            let cases = sink.span_count(SPAN_CASE);
            match row.bin {
                "fig01" => assert_eq!(cases, 0, "fig01 replots published data"),
                "fig04" => assert_eq!(cases, 9),
                "ext_breakeven" | "sec7" => assert_eq!(cases, 1, "{}", row.bin),
                bin => assert!(cases >= 1, "{bin} simulates outside the session"),
            }
        }
    }

    #[test]
    fn rows_keep_their_seeds_and_all_its_order() {
        let seeds: Vec<u64> = rows("fig03", true).map(|(_, seed)| seed).collect();
        assert_eq!(seeds, [0xF163, 0xF163A, 0xF163B]);
        assert_eq!(rows("fig03", false).count(), 1, "--anomaly alone adds the §V-B rows");
        // fig10's row runs shr at its seed + 1, so `all` seeds shr with 10.
        let all: Vec<u64> = rows("all", true).map(|(_, seed)| seed).collect();
        let want: Vec<u64> = (0..=9).chain(11..=15).collect();
        assert_eq!(all, want, "`all` runs every row but §V-B, in order");
    }
}
