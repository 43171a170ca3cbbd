//! The paper's experiments, one module per table/figure, and the one
//! table every experiment binary runs them from.
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
//! entry point taking a [`CheckpointSpec`]; `docs/SWEEPS.md` documents
//! that workflow end to end.
//!
//! One table lists every experiment: the bin that runs it, the suffix
//! its checkpoint grid adds to the `--checkpoint` path (if it has a
//! grid), its seed under that bin and under `all`, and how to run it
//! into a text report and `--json` tables. Each figure bin's `main` is
//! one call to [`main`], which parses the shared flags once and runs
//! the bin's rows; `all` runs every row, and `zen2-fleet` derives each
//! target's checkpoint files from the table ([`checkpoint_suffixes`]).
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
use zen2_sim::{CheckpointError, CheckpointSpec, Session, ShardRange};
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

/// A grid's report, or `None` when it has nothing to report: a
/// `--halt-after` halt or a `--shard-range` slice.
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
    /// A narrow experiment: it keeps its own `Session::new()` and has no
    /// grid to checkpoint.
    Narrow(fn(Scale, u64) -> Report),
    /// A checkpointed grid, run on the binary's session. Its checkpoint
    /// file adds the suffix to its bin's `--checkpoint` path (`""` for a
    /// bin's only grid); under `all` it adds `-<bin><suffix>`.
    Grid(&'static str, fn(Scale, u64, &Session, &CheckpointSpec) -> Outcome),
}

/// The [`Run::Grid`] of a bin's only grid, for a module of the standard
/// shape: `run_checkpointed(&Config::new(scale), seed, session, spec)`.
macro_rules! grid {
    ($module:ident) => {
        Grid("", |scale, seed, session, spec| {
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
        run: Narrow(|_, _| Report::of(&fig01::run()[..], fig01::render, fig01::tables)),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163,
        all_seed: Some(1),
        run: Narrow(|scale, seed| {
            let r = fig03::run(&fig03::Config::fig3(scale), seed);
            Report::of(&r, fig03::render, fig03::tables)
        }),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163A,
        all_seed: None,
        run: Narrow(|scale, seed| {
            let r = fig03::run(&fig03::Config::anomaly(scale), seed);
            let title = "SS V-B anomaly: 2.5 <-> 2.2 GHz, waits 0-10 ms";
            Report::of(&r, |r| format!("\n--- {title} ---\n{}", fig03::render(r)), fig03::tables)
        }),
    },
    Experiment {
        bin: "fig03",
        seed: 0xF163B,
        all_seed: None,
        run: Narrow(|scale, seed| {
            let r = fig03::run(&fig03::Config::anomaly_long_waits(scale), seed);
            let title = "SS V-B anomaly control: waits >= 5 ms (effect must vanish)";
            Report::of(&r, |r| format!("\n--- {title} ---\n{}", fig03::render(r)), fig03::tables)
        }),
    },
    Experiment { bin: "tab1", seed: 0x7AB1, all_seed: Some(2), run: grid!(tab1) },
    Experiment {
        bin: "fig04",
        seed: 0xF164,
        all_seed: Some(3),
        run: Narrow(|scale, seed| {
            let r = fig04::run(&fig04::Config::new(scale), seed);
            Report::of(&r, fig04::render, fig04::tables)
        }),
    },
    Experiment {
        bin: "fig05",
        seed: 0xF165,
        all_seed: Some(4),
        run: Narrow(|_, seed| Report::of(&fig05::run(seed), fig05::render, fig05::tables)),
    },
    Experiment { bin: "fig06", seed: 0xF166, all_seed: Some(5), run: grid!(fig06) },
    Experiment { bin: "fig07", seed: 0xF167, all_seed: Some(6), run: grid!(fig07) },
    Experiment {
        bin: "fig08",
        seed: 0xF168,
        all_seed: Some(7),
        run: Narrow(|scale, seed| {
            let r = fig08::run(&fig08::Config::new(scale), seed);
            Report::of(&r, fig08::render, fig08::tables)
        }),
    },
    Experiment { bin: "fig09", seed: 0xF169, all_seed: Some(8), run: grid!(fig09) },
    Experiment {
        bin: "fig10",
        seed: 0xF1610,
        all_seed: Some(9),
        run: Grid("-vxorps", |scale, seed, session, spec| {
            let cfg = fig10::Config::new(scale);
            let r = fig10::run_checkpointed(&cfg, seed, KernelClass::VXorps, session, spec)?;
            Ok(r.map(|r| Report::of(&r, fig10::render, fig10::tables)))
        }),
    },
    Experiment {
        bin: "fig10",
        seed: 0xF1611,
        all_seed: Some(10),
        run: Grid("-shr", |scale, seed, session, spec| {
            let cfg = fig10::Config::new(scale);
            let r = fig10::run_checkpointed(&cfg, seed, KernelClass::Shr, session, spec)?;
            Ok(r.map(|r| Report::of(&r, fig10::render, fig10::tables)))
        }),
    },
    Experiment {
        bin: "sec5a",
        seed: 0x5EC5A,
        all_seed: Some(11),
        run: Narrow(|_, seed| Report::of(&sec5a::run(seed), sec5a::render, sec5a::tables)),
    },
    Experiment {
        bin: "sec6b",
        seed: 0x5EC6B,
        all_seed: Some(12),
        run: Narrow(|_, seed| Report::of(&sec6b::run(seed), sec6b::render, sec6b::tables)),
    },
    Experiment {
        bin: "sec7",
        seed: 0x5EC7,
        all_seed: Some(13),
        run: Narrow(|_, seed| {
            let r = sec7::run(&sec7::Config::default(), seed);
            Report::of(&r, sec7::render, sec7::tables)
        }),
    },
    Experiment { bin: "ext_manycore", seed: 0xE87, all_seed: Some(14), run: grid!(ext_manycore) },
    Experiment {
        bin: "ext_breakeven",
        seed: 0xB4EA,
        all_seed: Some(15),
        run: Narrow(|_, seed| {
            let r = breakeven::run(seed);
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
    let Grid(grid, _) = row.run else { return None };
    Some(if target == "all" { format!("-{}{grid}", row.bin) } else { grid.to_string() })
}

/// The checkpoint files binary `target` writes, as the suffixes it adds
/// to its `--checkpoint` path, in run order: `[""]` for a single-grid
/// bin, `["-vxorps", "-shr"]` for `fig10`, one `-<bin>…` entry per grid
/// for `all`, and none for a bin without a grid.
pub fn checkpoint_suffixes(target: &str) -> Vec<String> {
    rows(target, false).filter_map(|(row, _)| suffix(target, row)).collect()
}

/// The spec one grid runs under: `spec` with `suffix` appended to its
/// path. `--halt-after`, a testing aid for a binary with a single
/// checkpoint file, passes only to a grid at the exact `--checkpoint`
/// path — `fig10` and `all` drop it, so their runs always finish.
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
[--halt-after N] [--shard-range I/N]] [--workers N] [--shard-size N] [--obs PATH] [--progress]";

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
/// * `--shard-range i/N` — fleet mode: run only shard `i` of an `N`-way
///   contiguous case partition of each grid, leaving range checkpoints
///   for `zen2-fleet` to merge. Requires `--checkpoint` (the shard's
///   only output is its checkpoint file).
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
                "--shard-range" => {
                    let range = args.next().ok_or("--shard-range needs i/N")?;
                    spec.shard = Some(ShardRange::parse(&range)?);
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
            if spec.shard.is_some() {
                return Err("--shard-range requires --checkpoint <path> — \
                            a shard's only output is its checkpoint file"
                    .into());
            }
        }
        Ok(cli)
    }
}

/// The `main` of every figure bin and of `all`: parses the flags, runs
/// `bin`'s rows of the experiment table on one session, and prints each
/// report — text as soon as it finishes, `--json` as one array at the
/// end. `all` runs every row under its own seeds and prints a header
/// first. A `--shard-range` run skips the narrow rows and prints no
/// report: only the merged whole renders (`zen2-fleet`).
///
/// Usage errors exit 2 and checkpoint failures 1; a deliberate
/// `--halt-after` halt exits 0 with a resume hint on stderr. `--obs` /
/// `--progress` telemetry goes to the trace file and stderr, never
/// stdout, so report output is unaffected.
pub fn main(bin: &str) {
    let usage = |message: String| -> ! {
        eprintln!("{bin}: {message}\nusage: {bin} {USAGE}");
        std::process::exit(2);
    };
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|message| usage(message));
    let (session, stack) = cli.session.session().unwrap_or_else(|message| usage(message));
    let shard = cli.checkpoint.shard;
    if bin == "all" && shard.is_none() && !cli.json {
        println!("=== zen2-ee: full experiment suite ({:?} scale) ===\n", cli.scale);
    }
    let mut tables = Vec::new();
    let mut halted = false;
    let mut failure = None;
    for (row, seed) in rows(bin, cli.anomaly) {
        if shard.is_some() && matches!(row.run, Narrow(_)) {
            continue;
        }
        if cli.session.progress {
            eprintln!("{bin}: running {}{}", row.bin, suffix(row.bin, row).unwrap_or_default());
        }
        let spec = spec_for(&cli.checkpoint, &suffix(bin, row).unwrap_or_default());
        let outcome = match row.run {
            Narrow(run) => Ok(Some(run(cli.scale, seed))),
            Grid(_, run) => run(cli.scale, seed, &session, &spec),
        };
        match outcome {
            Ok(Some(report)) if shard.is_none() => {
                if cli.json {
                    tables.extend(report.tables);
                } else {
                    print!("{}", report.text);
                }
            }
            Ok(None) if spec.halt_after.is_some() => {
                halted = true;
                break;
            }
            Ok(_) => {}
            Err(error) => {
                failure = Some(error);
                break;
            }
        }
    }
    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("{bin}: {message}");
            std::process::exit(1);
        }
    }
    if let Some(error) = failure {
        eprintln!("{bin}: {error}");
        std::process::exit(1);
    }
    if halted {
        let path = cli.checkpoint.path.unwrap_or_default();
        eprintln!(
            "{bin}: halted mid-sweep (--halt-after); resume with --checkpoint {} --resume",
            path.display()
        );
    } else if let Some(shard) = shard {
        eprintln!(
            "{bin}: shard {shard} done; merge the range checkpoints (zen2-fleet) to produce \
             the report"
        );
    } else if cli.json {
        println!("{}", tables_to_json(&tables));
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
        let mut session = Session::new();
        if let Some(n) = self.workers {
            session = session.workers(n);
        }
        if let Some(n) = self.shard_size {
            session = session.shard_size(n);
        }
        let stack = self.stack()?;
        if let Some(stack) = &stack {
            session = session.recorder(stack.recorder.clone());
        }
        Ok((session, stack))
    }

    /// The sink stack `--obs` / `--progress` ask for — `None` when
    /// neither was passed (the session then runs with zero telemetry
    /// overhead).
    fn stack(&self) -> Result<Option<ObsStack>, String> {
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

/// The live sink stack behind one `--obs` / `--progress` invocation,
/// attached to the session [`SessionCli::session`] builds:
/// [`ObsStack::finish`] it after the run.
pub struct ObsStack {
    recorder: Arc<Multi>,
    jsonl: Option<Arc<JsonlSink>>,
    summary: Option<Arc<SummarySink>>,
}

impl ObsStack {
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
        assert!(parse(&["--shard-range", "0/3"]).unwrap_err().contains("--checkpoint"));
        assert!(parse(&["--checkpoint", "ck", "--shard-range", "3/3"])
            .unwrap_err()
            .contains("i/N"));
    }

    #[test]
    fn checkpoint_flags_parse_shard_ranges() {
        let spec = parse(&["--checkpoint", "ck", "--shard-range", "1/3"]).unwrap();
        assert_eq!(spec.shard, Some(ShardRange { index: 1, of: 3 }));
        // `all` propagates the shard to every per-experiment spec.
        assert_eq!(spec_for(&spec, "-fig09").shard, Some(ShardRange { index: 1, of: 3 }));
    }

    #[test]
    fn a_mistyped_flag_is_a_usage_error() {
        let err = parse_cli(&["--json", "--chekpoint", "run.ck"]).unwrap_err();
        assert!(err.contains("unknown flag \"--chekpoint\""), "{err}");
        assert!(parse_cli(&["fig09"]).unwrap_err().contains("unknown flag"));
        assert!(parse_cli(&["--quick"]).unwrap_err().contains("unknown flag"));
        // The accepted set: the union of every figure bin's flags.
        let every = "--paper --json --anomaly --checkpoint ck --resume --halt-after 1 \
                     --shard-range 0/2 --workers 2 --shard-size 3 --obs trace.jsonl --progress";
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
        assert!(SessionCli::default().stack().unwrap().is_none());
        let progress_only = SessionCli { progress: true, ..SessionCli::default() };
        let stack = progress_only.stack().unwrap().expect("progress builds a stack");
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
            if ["ablations", "torture", "zen2-fleet"].contains(&bin.as_str()) {
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
    fn rows_keep_their_seeds_and_all_its_order() {
        let seeds: Vec<u64> = rows("fig03", true).map(|(_, seed)| seed).collect();
        assert_eq!(seeds, [0xF163, 0xF163A, 0xF163B]);
        assert_eq!(rows("fig03", false).count(), 1, "--anomaly alone adds the §V-B rows");
        let all: Vec<u64> = rows("all", true).map(|(_, seed)| seed).collect();
        assert_eq!(all, (0..=15).collect::<Vec<_>>(), "`all` runs every row but §V-B, in order");
    }
}
