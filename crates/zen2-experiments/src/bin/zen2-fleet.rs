//! Multi-process fleet coordinator for the wide-grid sweeps.
//!
//! `zen2-fleet --bin fig09 -n 3 --checkpoint /tmp/f9` partitions the
//! target bin's grid into `N` contiguous `--shard-range i/N` slices,
//! spawns one OS process per slice, watches them (heartbeats are
//! relayed live from each worker's stderr, failed or incomplete shards
//! are retried with `--resume` under bounded backoff), merges the range
//! checkpoints with `Checkpoint::merge`, and finally re-emits the
//! report by resuming the merged checkpoint in a fresh worker process —
//! so the fleet's stdout is byte-identical to a single-process run of
//! the same bin (see `docs/SWEEPS.md` § Fleet runs).
//!
//! Supported targets are the bins with a checkpointed grid in the
//! experiment table, and `all`. Each target's checkpoint files come
//! from that table (`zen2_experiments::checkpoint_suffixes`): each
//! figure bin writes one file, and `all` six, one per grid. `all`'s
//! shard mode folds only the grids; the narrow experiments re-run
//! deterministically in the re-emit pass. `--drill-kill <i>` aborts
//! shard `i`'s first attempt after one checkpoint save — a fault drill
//! for the retry path; it needs a target whose bin forwards
//! `--halt-after` (every figure bin with a grid; `all` drops it).
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use zen2_experiments::checkpoint_suffixes;
use zen2_sim::{Checkpoint, ShardRange};

const USAGE: &str = "usage: zen2-fleet --bin <fig06|fig07|fig09|fig10|tab1|ext_manycore|all> \
-n <shards> --checkpoint <prefix> [--paper] [--json] [--workers N] [--shard-size N] \
[--progress] [--retries K] [--drill-kill <shard>]";

#[derive(Debug, PartialEq)]
struct FleetCli {
    bin: String,
    shards: usize,
    checkpoint: PathBuf,
    paper: bool,
    json: bool,
    workers: Option<String>,
    shard_size: Option<String>,
    progress: bool,
    retries: usize,
    drill_kill: Option<usize>,
}

impl FleetCli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut bin = None;
        let mut shards = None;
        let mut checkpoint = None;
        let mut paper = false;
        let mut json = false;
        let mut workers = None;
        let mut shard_size = None;
        let mut progress = false;
        let mut retries = 2usize;
        let mut drill_kill = None;
        let mut args = args;
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| -> Result<String, String> {
                args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
            };
            match arg.as_str() {
                "--bin" => bin = Some(value("--bin")?),
                "-n" | "--shards" => {
                    let n = value("-n")?;
                    let n: usize =
                        n.parse().map_err(|_| format!("-n wants a shard count, got {n:?}"))?;
                    if n == 0 {
                        return Err("-n wants at least one shard".into());
                    }
                    shards = Some(n);
                }
                "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--paper" => paper = true,
                "--json" => json = true,
                "--workers" => workers = Some(value("--workers")?),
                "--shard-size" => shard_size = Some(value("--shard-size")?),
                "--progress" => progress = true,
                "--retries" => {
                    let k = value("--retries")?;
                    retries =
                        k.parse().map_err(|_| format!("--retries wants a count, got {k:?}"))?;
                }
                "--drill-kill" => {
                    let i = value("--drill-kill")?;
                    drill_kill = Some(
                        i.parse()
                            .map_err(|_| format!("--drill-kill wants a shard index, got {i:?}"))?,
                    );
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        let bin = bin.ok_or_else(|| format!("--bin is required\n{USAGE}"))?;
        if checkpoint_suffixes(&bin).is_empty() {
            return Err(format!(
                "--bin {bin:?} has no wide grid to shard; pick one of \
                 fig06, fig07, fig09, fig10, tab1, ext_manycore, all"
            ));
        }
        let shards = shards.ok_or_else(|| format!("-n <shards> is required\n{USAGE}"))?;
        let checkpoint =
            checkpoint.ok_or_else(|| format!("--checkpoint <prefix> is required\n{USAGE}"))?;
        if let Some(kill) = drill_kill {
            if kill >= shards {
                return Err(format!("--drill-kill {kill} is outside the {shards}-shard fleet"));
            }
        }
        Ok(FleetCli {
            bin,
            shards,
            checkpoint,
            paper,
            json,
            workers,
            shard_size,
            progress,
            retries,
            drill_kill,
        })
    }

    /// `<prefix>.shard<i>` — the checkpoint base a shard worker writes.
    fn shard_base(&self, index: usize) -> PathBuf {
        path_with_suffix(&self.checkpoint, &format!(".shard{index}"))
    }

    /// `<prefix>.merged` — the checkpoint base the merged files live at.
    fn merged_base(&self) -> PathBuf {
        path_with_suffix(&self.checkpoint, ".merged")
    }
}

/// Appends `suffix` to the final path component (the bins do the same
/// when they add their per-grid suffixes).
fn path_with_suffix(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    base.with_file_name(name)
}

/// Locates the target bin next to the running coordinator — both live
/// in the same cargo target directory.
fn worker_exe(bin: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate zen2-fleet: {e}"))?;
    let dir = me.parent().ok_or("zen2-fleet has no parent directory")?;
    let exe = dir.join(bin);
    if !exe.exists() {
        return Err(format!("worker binary {} not found; build it first", exe.display()));
    }
    Ok(exe)
}

/// One worker process plus the thread relaying its stderr heartbeats.
struct Worker {
    shard: usize,
    child: Child,
    relay: JoinHandle<()>,
}

fn spawn_shard(cli: &FleetCli, exe: &Path, shard: usize, attempt: usize) -> Result<Worker, String> {
    let mut cmd = Command::new(exe);
    if cli.paper {
        cmd.arg("--paper");
    }
    cmd.arg("--checkpoint").arg(cli.shard_base(shard));
    cmd.arg("--shard-range").arg(format!("{shard}/{}", cli.shards));
    if attempt > 0 {
        cmd.arg("--resume");
    }
    if let Some(workers) = &cli.workers {
        cmd.args(["--workers", workers]);
    }
    if let Some(shard_size) = &cli.shard_size {
        cmd.args(["--shard-size", shard_size]);
    }
    if cli.progress {
        cmd.arg("--progress");
    }
    // The fault drill: the victim's first attempt halts after one
    // checkpoint save, leaving a partial range file behind — exactly
    // what a mid-shard crash leaves. The retry must finish it.
    if cli.drill_kill == Some(shard) && attempt == 0 {
        cmd.args(["--halt-after", "1"]);
    }
    // A shard's stdout is not the fleet's output (the merged re-emit
    // is); its stderr is the per-shard heartbeat channel.
    cmd.stdout(Stdio::null()).stderr(Stdio::piped());
    let mut child =
        cmd.spawn().map_err(|e| format!("cannot spawn {} shard {shard}: {e}", cli.bin))?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let tag = format!("[{} {shard}/{}] ", cli.bin, cli.shards);
    // zen2-lint: allow(no-thread-escape) — joined at reap; the relay only forwards heartbeats
    let relay = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            eprintln!("{tag}{line}");
        }
    });
    Ok(Worker { shard, child, relay })
}

/// Did shard `i` leave every one of its range checkpoints covering its
/// full slice? A worker that exits 0 without writing a file ran an
/// empty slice (possible on grids smaller than the fleet) — the merge
/// pass is the final authority on total coverage.
fn shard_is_complete(cli: &FleetCli, shard: usize) -> Result<bool, String> {
    let range = ShardRange { index: shard, of: cli.shards };
    for suffix in checkpoint_suffixes(&cli.bin) {
        let path = path_with_suffix(&cli.shard_base(shard), &suffix);
        if !path.exists() {
            continue;
        }
        let ck = Checkpoint::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if ck.covered() != range.bounds(ck.total()) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn reap(worker: Worker) -> Result<(usize, ExitStatus), String> {
    let Worker { shard, mut child, relay } = worker;
    let status = child.wait().map_err(|e| format!("waiting on shard {shard}: {e}"))?;
    let _ = relay.join();
    Ok((shard, status))
}

/// Runs all shards to completion, retrying failed or incomplete ones
/// with `--resume` under doubling (bounded) backoff.
fn run_fleet(cli: &FleetCli, exe: &Path) -> Result<(), String> {
    let mut pending: Vec<usize> = (0..cli.shards).collect();
    let mut attempt = vec![0usize; cli.shards];
    while !pending.is_empty() {
        let mut workers = Vec::new();
        for &shard in &pending {
            if attempt[shard] > 0 {
                let backoff = 100u64 << (attempt[shard] - 1).min(4);
                eprintln!(
                    "zen2-fleet: retrying shard {shard}/{} (attempt {}, backoff {backoff} ms)",
                    cli.shards,
                    attempt[shard] + 1
                );
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
            workers.push(spawn_shard(cli, exe, shard, attempt[shard])?);
        }
        let mut still_pending = Vec::new();
        for worker in workers {
            let (shard, status) = reap(worker)?;
            let complete = status.success() && shard_is_complete(cli, shard)?;
            if complete {
                continue;
            }
            attempt[shard] += 1;
            if attempt[shard] > cli.retries {
                return Err(format!(
                    "shard {shard}/{} still incomplete after {} attempts (last exit: {status})",
                    cli.shards, attempt[shard]
                ));
            }
            still_pending.push(shard);
        }
        pending = still_pending;
    }
    Ok(())
}

/// Merges the per-shard range checkpoints into `<prefix>.merged…`, one
/// complete checkpoint per wide grid the target bin runs.
fn merge_shards(cli: &FleetCli) -> Result<(), String> {
    let started = zen2_obs::clock::now_ns();
    let mut files = 0usize;
    for suffix in checkpoint_suffixes(&cli.bin) {
        let mut merged: Option<Checkpoint> = None;
        for shard in 0..cli.shards {
            let path = path_with_suffix(&cli.shard_base(shard), &suffix);
            if !path.exists() {
                continue; // empty slice of a small grid
            }
            let ck = Checkpoint::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files += 1;
            match &mut merged {
                None => merged = Some(ck),
                Some(into) => {
                    into.merge(&ck).map_err(|e| format!("merging {}: {e}", path.display()))?
                }
            }
        }
        let merged =
            merged.ok_or_else(|| format!("no shard produced a checkpoint for grid {suffix:?}"))?;
        if !merged.is_complete() {
            let (lo, hi) = merged.covered();
            return Err(format!(
                "merged checkpoint for grid {suffix:?} covers only {lo}..{hi} of {} cases",
                merged.total()
            ));
        }
        let out = path_with_suffix(&cli.merged_base(), &suffix);
        merged.save(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    eprintln!(
        "zen2-fleet: merged {files} shard checkpoints in {:.1} ms",
        zen2_obs::clock::secs_since(started) * 1e3
    );
    Ok(())
}

/// Resumes the merged checkpoints in a fresh worker with the fleet's
/// stdout: a complete checkpoint streams zero grid cases, so the worker
/// re-emits the report byte-identically to a single-process run. The
/// re-emit does run the one case fig07 and fig09 keep outside their
/// grids (the all-C2 baseline and the idle point).
fn reemit(cli: &FleetCli, exe: &Path) -> Result<ExitStatus, String> {
    let mut cmd = Command::new(exe);
    if cli.paper {
        cmd.arg("--paper");
    }
    if cli.json {
        cmd.arg("--json");
    }
    cmd.arg("--checkpoint").arg(cli.merged_base()).arg("--resume");
    let status =
        cmd.status().map_err(|e| format!("cannot spawn {} for the re-emit: {e}", cli.bin))?;
    Ok(status)
}

fn main() {
    let cli = FleetCli::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("zen2-fleet: {message}");
        std::process::exit(2);
    });
    let fail = |message: String| -> ! {
        eprintln!("zen2-fleet: {message}");
        std::process::exit(1);
    };
    let exe = worker_exe(&cli.bin).unwrap_or_else(|m| fail(m));
    eprintln!("zen2-fleet: {} over {} shards -> {}", cli.bin, cli.shards, cli.checkpoint.display());
    run_fleet(&cli, &exe).unwrap_or_else(|m| fail(m));
    merge_shards(&cli).unwrap_or_else(|m| fail(m));
    let status = reemit(&cli, &exe).unwrap_or_else(|m| fail(m));
    if !status.success() {
        fail(format!("re-emit run failed: {status}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FleetCli, String> {
        FleetCli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_parses_a_full_fleet_invocation() {
        let cli = parse(&[
            "--bin",
            "fig09",
            "-n",
            "3",
            "--checkpoint",
            "/tmp/f9",
            "--json",
            "--workers",
            "2",
            "--retries",
            "5",
            "--drill-kill",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.bin, "fig09");
        assert_eq!(cli.shards, 3);
        assert!(cli.json && !cli.paper);
        assert_eq!(cli.workers.as_deref(), Some("2"));
        assert_eq!(cli.retries, 5);
        assert_eq!(cli.drill_kill, Some(1));
        assert_eq!(cli.shard_base(2), PathBuf::from("/tmp/f9.shard2"));
        assert_eq!(cli.merged_base(), PathBuf::from("/tmp/f9.merged"));
    }

    #[test]
    fn cli_rejects_bad_fleets() {
        for (args, needle) in [
            (&["--bin", "fig02", "-n", "2", "--checkpoint", "x"][..], "no wide grid"),
            (&["-n", "2", "--checkpoint", "x"][..], "--bin is required"),
            (&["--bin", "fig09", "--checkpoint", "x"][..], "-n <shards> is required"),
            (&["--bin", "fig09", "-n", "0", "--checkpoint", "x"][..], "at least one"),
            (&["--bin", "fig09", "-n", "2"][..], "--checkpoint <prefix> is required"),
            (
                &["--bin", "fig09", "-n", "2", "--checkpoint", "x", "--drill-kill", "2"][..],
                "outside",
            ),
            (
                &["--bin", "fig09", "-n", "2", "--checkpoint", "x", "--frobnicate"][..],
                "unknown flag",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?} -> {err}");
        }
    }

    #[test]
    fn suffix_table_matches_the_bins_checkpoint_layout() {
        assert_eq!(checkpoint_suffixes("fig09"), [""]);
        assert_eq!(checkpoint_suffixes("fig10"), [""]);
        assert_eq!(
            checkpoint_suffixes("all"),
            ["-tab1", "-fig06", "-fig07", "-fig09", "-fig10", "-ext_manycore"]
        );
        assert!(checkpoint_suffixes("fig03").is_empty());
        assert_eq!(
            path_with_suffix(&PathBuf::from("/tmp/fleet.shard0"), "-fig10"),
            PathBuf::from("/tmp/fleet.shard0-fig10")
        );
    }
}
