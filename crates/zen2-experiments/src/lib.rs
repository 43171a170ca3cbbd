//! The paper's experiments, one module per table/figure.
//!
//! Every experiment follows the same shape:
//!
//! * a `Config` with the paper's full parameters ([`Scale::Paper`]) and a
//!   cheaper variant for CI and quick runs ([`Scale::Quick`]),
//! * a `run(config, seed)` function that drives `zen2-sim` through the
//!   paper's methodology and returns a plain result struct,
//! * a `render()` producing the paper-style text table, including the
//!   published reference values next to the measured ones, and a
//!   `tables()` giving the same report as [`report::Table`]s for
//!   `--json`.
//!
//! Sweeps are expressed declaratively: each configuration is a
//! `(SimConfig, Scenario, seed)` [`Case`](zen2_sim::Case) with a
//! deterministic child seed, and the batch executes through a
//! [`Session`] worker pool — no experiment module spawns threads
//! itself, and results are byte-identical regardless of parallelism.
//! The wide-grid modules additionally expose a `run_checkpointed`
//! entry point wired to the uniform `--checkpoint` / `--resume` /
//! `--halt-after` flags ([`CheckpointCli`]); `docs/SWEEPS.md` documents
//! that workflow end to end.
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
pub mod methodology_bridge;
pub mod report;
pub mod sec5a_sibling;
pub mod sec6b_offline;
pub mod sec7_update_rate;
pub mod seeds;
pub mod tab1_mixed_freq;

use std::path::PathBuf;
use std::sync::Arc;
use zen2_obs::{Heartbeat, JsonlSink, Multi, Recorder, SummarySink};
use zen2_sim::{CheckpointError, CheckpointSpec, Session, ShardRange};

/// Experiment size: the paper's full parameters or a CI-friendly subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts / durations; minutes of total runtime.
    Quick,
    /// The paper's published parameters.
    Paper,
}

impl Scale {
    /// Parses `--paper` / `--quick` style CLI arguments (quick default).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }

    /// Picks between the two scale values.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// The uniform checkpoint/resume command-line flags of the wide-grid
/// binaries (`fig06`, `fig07`, `fig09`, `fig10`, `tab1`, `ext_manycore`,
/// `all`):
///
/// * `--checkpoint <path>` — persist the sweep's accumulators to
///   `<path>` at every shard boundary (atomic replace; a kill at any
///   instant leaves a valid checkpoint).
/// * `--resume` — pick the run back up from the checkpoint at `<path>`
///   (a missing file starts fresh, so restart scripts are idempotent).
/// * `--halt-after <n>` — testing aid: halt cleanly after `n`
///   checkpoint saves, exactly as a kill right after the save would.
/// * `--shard-range i/N` — fleet mode: run only shard `i` of an
///   `N`-way contiguous case partition, leaving a range checkpoint for
///   the coordinator (`zen2-fleet`) to merge. Requires `--checkpoint`
///   (the shard's only output is its checkpoint file).
///
/// `docs/SWEEPS.md` documents the workflow end to end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointCli {
    /// The `--checkpoint` path, when given.
    pub path: Option<PathBuf>,
    /// Whether `--resume` was passed.
    pub resume: bool,
    /// The `--halt-after` count, when given.
    pub halt_after: Option<usize>,
    /// The `--shard-range` partition slice, when given.
    pub shard: Option<ShardRange>,
}

impl CheckpointCli {
    /// Parses the process arguments (ignoring unrelated flags such as
    /// `--json` and `--paper`).
    ///
    /// # Errors
    /// Errors with a usage message on an incomplete or inconsistent
    /// flag set.
    pub fn from_args() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--checkpoint" => {
                    let path = args.next().ok_or("--checkpoint needs a file path")?;
                    cli.path = Some(PathBuf::from(path));
                }
                "--resume" => cli.resume = true,
                "--halt-after" => {
                    let n = args.next().ok_or("--halt-after needs a shard count")?;
                    cli.halt_after =
                        Some(n.parse().map_err(|_| format!("--halt-after {n:?}: not a count"))?);
                }
                "--shard-range" => {
                    let range = args.next().ok_or("--shard-range needs i/N")?;
                    cli.shard = Some(ShardRange::parse(&range)?);
                }
                _ => {}
            }
        }
        if cli.path.is_none() {
            if cli.resume {
                return Err("--resume requires --checkpoint <path>".into());
            }
            if cli.halt_after.is_some() {
                return Err("--halt-after requires --checkpoint <path>".into());
            }
            if cli.shard.is_some() {
                return Err("--shard-range requires --checkpoint <path> — \
                            a shard's only output is its checkpoint file"
                    .into());
            }
        }
        Ok(cli)
    }

    /// The [`CheckpointSpec`] a single-experiment binary hands its
    /// `run_checkpointed`.
    pub fn spec(&self) -> CheckpointSpec {
        CheckpointSpec {
            path: self.path.clone(),
            resume: self.resume,
            halt_after: self.halt_after,
            shard: self.shard,
        }
    }

    /// The per-experiment spec the `all` binary derives: the configured
    /// path with `-<experiment>` appended, so one `--checkpoint` prefix
    /// yields one file per wide-grid experiment. `--halt-after` is a
    /// single-binary testing aid and is not propagated.
    pub fn spec_for(&self, experiment: &str) -> CheckpointSpec {
        let path = self.path.as_ref().map(|p| {
            let mut name = p.as_os_str().to_os_string();
            name.push(format!("-{experiment}"));
            PathBuf::from(name)
        });
        CheckpointSpec { path, resume: self.resume, halt_after: None, shard: self.shard }
    }
}

/// The uniform observability flags of the wide-grid binaries (the same
/// set as [`CheckpointCli`], plus `all`):
///
/// * `--obs <path>` — write the run's telemetry as a JSONL trace to
///   `<path>` and print an aggregate summary table (span durations,
///   counters, worker utilization) to stderr at the end.
/// * `--progress` — print rate-limited `done/total … cases/s … eta`
///   heartbeat lines to stderr while the sweep runs.
///
/// Telemetry is out-of-band by construction: results (stdout, `--json`,
/// checkpoints) are byte-identical with or without these flags. See
/// `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsCli {
    /// The `--obs` trace path, when given.
    pub obs: Option<PathBuf>,
    /// Whether `--progress` was passed.
    pub progress: bool,
}

impl ObsCli {
    /// Parses the process arguments (ignoring unrelated flags).
    ///
    /// # Errors
    /// Errors with a usage message on an incomplete flag.
    pub fn from_args() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--obs" => {
                    let path = args.next().ok_or("--obs needs a file path")?;
                    cli.obs = Some(PathBuf::from(path));
                }
                "--progress" => cli.progress = true,
                _ => {}
            }
        }
        Ok(cli)
    }

    /// Builds the sink stack these flags ask for — `None` when neither
    /// flag was passed (the session then runs with zero telemetry
    /// overhead).
    ///
    /// # Errors
    /// Errors when the `--obs` trace file cannot be created.
    pub fn stack(&self) -> Result<Option<ObsStack>, String> {
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
        if sinks.is_empty() {
            return Ok(None);
        }
        Ok(Some(ObsStack { recorder: Arc::new(Multi::new(sinks)), jsonl, summary }))
    }
}

/// The live sink stack behind one `--obs` / `--progress` invocation:
/// attach it to the session before the run, [`ObsStack::finish`] it
/// after.
pub struct ObsStack {
    recorder: Arc<Multi>,
    jsonl: Option<Arc<JsonlSink>>,
    summary: Option<Arc<SummarySink>>,
}

impl ObsStack {
    /// Attaches the stack to a session.
    pub fn attach(&self, session: Session) -> Session {
        session.recorder(self.recorder.clone())
    }

    /// Flushes the JSONL trace and prints the summary table to stderr.
    ///
    /// # Errors
    /// Errors when the trace file failed to write.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(jsonl) = &self.jsonl {
            jsonl.finish().map_err(|e| format!("writing telemetry trace: {e}"))?;
        }
        if let Some(summary) = &self.summary {
            eprint!("{}", summary.render());
        }
        Ok(())
    }
}

/// Builds the session a wide-grid binary streams through, honoring the
/// optional `--workers <n>` / `--shard-size <n>` flags. Results never
/// depend on either (the determinism contract); the flags control
/// parallelism and — because checkpoints are cut at shard boundaries,
/// every `workers × shard_size` cases — checkpoint granularity.
///
/// # Errors
/// Errors with a usage message on a malformed flag.
pub fn session_from_args() -> Result<Session, String> {
    let mut session = Session::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let take = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            let n = args.next().ok_or(format!("{flag} needs a count"))?;
            n.parse::<usize>().map_err(|_| format!("{flag} {n:?}: not a count"))
        };
        match arg.as_str() {
            "--workers" => session = session.workers(take(&mut args, "--workers")?),
            "--shard-size" => session = session.shard_size(take(&mut args, "--shard-size")?),
            _ => {}
        }
    }
    Ok(session)
}

/// The `main` of every checkpointed wide-grid binary: parses the
/// checkpoint, observability, and session flags, runs the experiment,
/// and either emits the report (text or `--json`, via [`report::emit`])
/// or explains the outcome — usage errors exit 2, checkpoint failures
/// exit 1, and a deliberate `--halt-after` halt exits 0 with a resume
/// hint on stderr. `--obs` / `--progress` telemetry goes to the trace
/// file and stderr, never stdout, so report output is unaffected.
pub fn run_checkpointed_bin<R>(
    name: &str,
    run: impl FnOnce(&Session, &CheckpointSpec) -> Result<Option<R>, CheckpointError>,
    render: impl FnOnce(&R) -> String,
    tables: impl FnOnce(&R) -> Vec<report::Table>,
) {
    let usage = |message: String| -> ! {
        eprintln!("{name}: {message}");
        std::process::exit(2);
    };
    let cli = CheckpointCli::from_args().unwrap_or_else(|message| usage(message));
    let obs = ObsCli::from_args().unwrap_or_else(|message| usage(message));
    let mut session = session_from_args().unwrap_or_else(|message| usage(message));
    let stack = obs.stack().unwrap_or_else(|message| usage(message));
    if let Some(stack) = &stack {
        session = stack.attach(session);
    }
    let outcome = run(&session, &cli.spec());
    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("{name}: {message}");
            std::process::exit(1);
        }
    }
    match outcome {
        Ok(Some(result)) => report::emit(|| render(&result), || tables(&result)),
        Ok(None) => {
            let path = cli.path.as_deref().unwrap_or_else(|| std::path::Path::new("<path>"));
            match cli.shard {
                // A shard run reports nothing even when its own range is
                // done: only the merged whole renders (zen2-fleet).
                Some(shard) if cli.halt_after.is_none() => eprintln!(
                    "{name}: shard {shard} done; merge the range checkpoints \
                     (zen2-fleet) to produce the report"
                ),
                _ => eprintln!(
                    "{name}: halted mid-sweep (--halt-after); \
                     resume with --checkpoint {} --resume",
                    path.display()
                ),
            }
        }
        Err(error) => {
            eprintln!("{name}: {error}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Paper.pick(1, 100), 100);
    }

    fn parse(args: &[&str]) -> Result<CheckpointCli, String> {
        CheckpointCli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn checkpoint_cli_parses_the_flag_triple() {
        let cli = parse(&["--json", "--checkpoint", "ck.json", "--resume"]).unwrap();
        assert_eq!(cli.path.as_deref(), Some(std::path::Path::new("ck.json")));
        assert!(cli.resume);
        assert_eq!(cli.halt_after, None);
        let cli = parse(&["--checkpoint", "ck", "--halt-after", "3"]).unwrap();
        assert_eq!(cli.halt_after, Some(3));
        assert_eq!(parse(&["--paper"]).unwrap(), CheckpointCli::default());
    }

    #[test]
    fn checkpoint_cli_rejects_incomplete_flags() {
        assert!(parse(&["--checkpoint"]).is_err());
        assert!(parse(&["--resume"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--halt-after", "2"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--checkpoint", "ck", "--halt-after", "soon"]).is_err());
        assert!(parse(&["--shard-range", "0/3"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--checkpoint", "ck", "--shard-range", "3/3"])
            .unwrap_err()
            .contains("i/N"));
    }

    #[test]
    fn checkpoint_cli_parses_shard_ranges() {
        let cli = parse(&["--checkpoint", "ck", "--shard-range", "1/3"]).unwrap();
        assert_eq!(cli.shard, Some(ShardRange { index: 1, of: 3 }));
        assert_eq!(cli.spec().shard, Some(ShardRange { index: 1, of: 3 }));
        // `all` propagates the shard to every per-experiment spec.
        assert_eq!(cli.spec_for("fig09").shard, Some(ShardRange { index: 1, of: 3 }));
    }

    fn parse_obs(args: &[&str]) -> Result<ObsCli, String> {
        ObsCli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn obs_cli_parses_the_flag_pair() {
        let cli = parse_obs(&["--json", "--obs", "trace.jsonl", "--progress"]).unwrap();
        assert_eq!(cli.obs.as_deref(), Some(std::path::Path::new("trace.jsonl")));
        assert!(cli.progress);
        assert_eq!(parse_obs(&["--paper"]).unwrap(), ObsCli::default());
        assert!(parse_obs(&["--obs"]).is_err(), "--obs needs a path");
    }

    #[test]
    fn obs_stack_is_absent_without_flags() {
        assert!(ObsCli::default().stack().unwrap().is_none());
        let progress_only = ObsCli { obs: None, progress: true };
        let stack = progress_only.stack().unwrap().expect("progress builds a stack");
        stack.finish().unwrap();
    }

    #[test]
    fn spec_for_appends_the_experiment_name() {
        let cli = parse(&["--checkpoint", "run/ck", "--resume", "--halt-after", "2"]).unwrap();
        let spec = cli.spec_for("fig09");
        assert_eq!(spec.path.as_deref(), Some(std::path::Path::new("run/ck-fig09")));
        assert!(spec.resume);
        assert_eq!(spec.halt_after, None, "halt-after is not propagated to `all`");
        assert_eq!(cli.spec().halt_after, Some(2));
    }
}
