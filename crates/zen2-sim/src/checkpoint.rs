//! Durable checkpoints for paper-scale sweeps: persist the streaming
//! accumulators at a shard boundary, resume later, produce byte-identical
//! output.
//!
//! A `--paper`-scale grid can run for hours with nothing on disk until
//! the end. The checkpoint layer closes that gap with three pieces:
//!
//! * [`Checkpoint`] — named [`GroupedStats`] reducers (their
//!   [`Snapshot`]s) plus the sweep's identity (label, grid shape, total
//!   case count) and the `done` watermark. It saves atomically
//!   (write-temp-then-rename, so a kill at any instant leaves either the
//!   old or the new file, never a torn one) and validates everything on
//!   load.
//! * [`CheckpointSpec`] — what a checkpointed run was asked to do
//!   (`--checkpoint <path>`, `--resume`, and the deterministic-interrupt
//!   testing aid `--halt-after <n>`), with the shard-boundary hook body
//!   the experiment modules share.
//! * [`CheckpointError`] — every way a resume can be refused, each with
//!   a message naming the file and the disagreement (a checkpoint from
//!   a different grid is an error, never a panic or a silent misfold).
//!
//! # On-disk format
//!
//! A checkpoint is a line-oriented text file (stable across versions by
//! the leading magic):
//!
//! ```text
//! zen2-sweep-checkpoint v2
//! {"sweep":"fig09","total":72,"start":0,"done":32,"lens":[8,3,3],"fp":"91c3b2…"}
//! {"state":"grid","shape":{"axes":[…],"positions":[0,1,2],"lens":[8,3,3]}}
//! {"state":"grid","row":{"key":[0,0,0],"acc":{…}}}
//! {"state":"grid","row":{"key":[0,0,1],"acc":{…}}}
//! ```
//!
//! Line 1 is the version header. Line 2 identifies the run: the sweep
//! label, the total case count, the covered case-index range
//! `start..done` (format v2 added `start` so a shard of a fleet run —
//! see [`ShardRange`] and [`Checkpoint::merge`] — can declare which
//! slice of the grid it folded; a whole-run checkpoint has `start` 0),
//! the grid's axis lengths, and a fingerprint of the run's content
//! (seeds, scale-dependent scenario data, machine configuration — so
//! two runs whose grids merely share dimensions can never blend). After
//! that, one JSON object per line: a `shape` line opens a grouped
//! state, and each `row` line carries **one [`GroupedStats`] row** (its
//! group key and accumulator snapshot). Everything is written with the
//! exact [`Json`] encoding of [`snapshot`](crate::snapshot) — floats
//! round-trip bit-for-bit, which is what makes a resumed sweep's output
//! byte-identical.
//!
//! ```
//! use zen2_sim::{Axis, Checkpoint, GroupedStats, OnlineStats, SimConfig, Sweep};
//!
//! let sweep = Sweep::new("demo", SimConfig::epyc_7502_2s())
//!     .seed(7)
//!     .axis(Axis::param("x", [0.0, 1.0, 2.0]));
//! let mut grouped: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["x"]);
//! grouped.entry(0).push(99.1);
//!
//! // Persist after case 1 of 3, then pick the run back up elsewhere.
//! let mut ck = Checkpoint::new(&sweep, sweep.len(), 1);
//! ck.set_grouped("grid", &grouped);
//! let path = std::env::temp_dir().join("zen2-checkpoint-doctest");
//! ck.save(&path).unwrap();
//!
//! let loaded = Checkpoint::load(&path).unwrap();
//! loaded.matches(&sweep, sweep.len()).unwrap();
//! assert_eq!(loaded.done(), 1);
//! let restored = loaded.grouped("grid", &GroupedStats::<OnlineStats>::new(&sweep, &["x"]));
//! assert_eq!(restored.unwrap(), grouped);
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::obs::{AttrValue, EVT_SWEEP_TOTAL};
use crate::probe::Run;
use crate::session::{Session, SessionError, SessionErrorKind, StreamControl, StreamEvent};
use crate::snapshot::{Json, Snapshot, SnapshotError};
use crate::stats::GroupedStats;
use crate::sweep::Sweep;
use std::fmt;
use std::path::{Path, PathBuf};

/// The first line of every checkpoint file. v2 added the `start` header
/// key (covered-range lower bound) for fleet shards; v1 files are
/// rejected with the version error rather than silently read as
/// whole-run checkpoints.
const MAGIC: &str = "zen2-sweep-checkpoint v2";

/// FNV-1a over `bytes`, folded into `state`.
fn fnv1a(bytes: &[u8], state: &mut u64) {
    for &b in bytes {
        *state ^= b as u64;
        *state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A fingerprint of everything that makes a sweep *this* run beyond its
/// shape: the label, every axis value label, and the first and last
/// cases' seeds, machine configuration, and scenario. Two runs of the
/// same grid shape but a different root seed, scale (durations live in
/// the scenarios), or machine configuration fingerprint differently —
/// the guard that keeps [`Checkpoint::matches`] from silently blending
/// results across runs whose grids merely have the same dimensions.
fn sweep_fingerprint(sweep: &Sweep) -> u64 {
    let mut state = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
    fnv1a(sweep.label().as_bytes(), &mut state);
    for axis in sweep.axes() {
        fnv1a(axis.name().as_bytes(), &mut state);
        for label in axis.value_labels() {
            fnv1a(label.as_bytes(), &mut state);
        }
    }
    if !sweep.is_empty() {
        for index in [0, sweep.len() - 1] {
            let case = sweep.case(index);
            fnv1a(&case.seed.to_le_bytes(), &mut state);
            if index == 0 {
                // The Debug renderings are deterministic within one
                // build and cover the scale-dependent content (probe
                // windows, workloads) and the machine configuration.
                // They guard resume against a *mismatched* sweep, not
                // identity across builds: a Debug-output shift only
                // invalidates old checkpoint files (fingerprint
                // mismatch, explicit error), it can never alias two
                // different sweeps into one identity.
                fnv1a(format!("{:?}", case.config).as_bytes(), &mut state); // zen2-lint: allow(no-debug-keying) — rejection guard, not an identity key (see above)
                fnv1a(format!("{:?}", case.scenario).as_bytes(), &mut state); // zen2-lint: allow(no-debug-keying) — rejection guard, not an identity key (see above)
            }
        }
    }
    state
}

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file exists but is not a well-formed checkpoint (or is from
    /// an incompatible format version).
    Malformed(String),
    /// The checkpoint is well-formed but belongs to a different run:
    /// another sweep label, a different grid shape, or a grouped state
    /// whose axes disagree with the reducer being restored.
    Mismatch(String),
    /// A state the resume needs is not in the file.
    MissingState(String),
    /// Two checkpoints being merged folded some case twice — their
    /// covered ranges intersect.
    RangeOverlap(String),
    /// Two checkpoints being merged are not adjacent — some case
    /// between their covered ranges was folded by neither.
    RangeGap(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O failed: {m}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::MissingState(m) => write!(f, "checkpoint missing state: {m}"),
            CheckpointError::RangeOverlap(m) => write!(f, "checkpoint ranges overlap: {m}"),
            CheckpointError::RangeGap(m) => write!(f, "checkpoint ranges leave a gap: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapshotError> for CheckpointError {
    fn from(error: SnapshotError) -> Self {
        CheckpointError::Malformed(error.to_string())
    }
}

impl CheckpointError {
    /// Maps a streaming failure out of a checkpointed run: a
    /// [`SessionErrorKind::CheckpointFailed`] becomes a checkpoint I/O
    /// error; anything else (scenario validation, worker panic) is an
    /// engine or authoring bug exactly as in a non-checkpointed run,
    /// and panics with the same message those paths always produced.
    pub fn from_stream(error: SessionError) -> CheckpointError {
        match error.kind {
            SessionErrorKind::CheckpointFailed(message) => CheckpointError::Io(message),
            _ => panic!("{error}"),
        }
    }
}

/// One named grouped reducer inside a checkpoint: its shape header
/// plus one snapshot per row.
#[derive(Debug, Clone, PartialEq)]
struct State {
    shape: Json,
    rows: Vec<Json>,
}

/// A durable cut of a streaming sweep: which run it belongs to, how far
/// it got, and every accumulator's exact state. See the
/// [module docs](self) for the on-disk format.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    sweep: String,
    total: usize,
    start: usize,
    done: usize,
    lens: Vec<usize>,
    fingerprint: u64,
    states: Vec<(String, State)>,
}

impl Checkpoint {
    /// An empty checkpoint for `sweep` at watermark `done`, covering
    /// `total` cases. The covered range starts at case 0 — a whole-run
    /// checkpoint; a fleet shard uses [`for_range`](Self::for_range).
    pub fn new(sweep: &Sweep, total: usize, done: usize) -> Self {
        Self::for_range(sweep, total, 0, done)
    }

    /// An empty checkpoint covering the case-index range
    /// `start..done` of a `total`-case run — what a `--shard-range`
    /// worker cuts at its shard boundaries.
    pub fn for_range(sweep: &Sweep, total: usize, start: usize, done: usize) -> Self {
        Self {
            sweep: sweep.label().to_string(),
            total,
            start,
            done,
            lens: sweep.axes().iter().map(crate::sweep::Axis::len).collect(),
            fingerprint: sweep_fingerprint(sweep),
            states: Vec::new(),
        }
    }

    /// The sweep label the checkpoint was written for.
    pub fn sweep(&self) -> &str {
        &self.sweep
    }

    /// Cases folded in when the checkpoint was cut — the index of the
    /// first case a resumed run must execute.
    pub fn done(&self) -> usize {
        self.done
    }

    /// The total case count of the run.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The covered case-index range `start..done`: which slice of the
    /// run's cases this checkpoint folded. A whole-run checkpoint
    /// starts at 0; a `--shard-range` worker's starts at its shard's
    /// lower bound.
    pub fn covered(&self) -> (usize, usize) {
        (self.start, self.done)
    }

    /// Whether every case of the run had been folded in (a resume runs
    /// nothing and just re-emits the result). A shard checkpoint —
    /// `start > 0` — is never complete on its own; merging the full
    /// partition makes it so.
    pub fn is_complete(&self) -> bool {
        self.start == 0 && self.done >= self.total
    }

    /// Adds (or replaces) a grouped reducer's state.
    pub fn set_grouped<A: Snapshot>(&mut self, name: impl Into<String>, stats: &GroupedStats<A>) {
        let name = name.into();
        let state = State { shape: stats.shape_snapshot(), rows: stats.row_snapshots().collect() };
        match self.states.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = state,
            None => self.states.push((name, state)),
        }
    }

    /// Restores a grouped reducer by name, refusing a reducer whose
    /// shape (grouping axes, value labels, grid lengths) differs from
    /// `like` — the freshly built reducer of the run being resumed.
    ///
    /// # Errors
    /// Errors when the state is absent, the snapshot is corrupt, or the
    /// shapes disagree.
    pub fn grouped<A: Snapshot>(
        &self,
        name: &str,
        like: &GroupedStats<A>,
    ) -> Result<GroupedStats<A>, CheckpointError> {
        let State { shape, rows } = self
            .states
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| CheckpointError::MissingState(name.to_string()))?;
        let mut restored = GroupedStats::<A>::restore_shape(shape)?;
        if !restored.shape_matches(like) {
            return Err(CheckpointError::Mismatch(format!(
                "grouped state {name:?} was written for a different grid: \
                 checkpoint has {}, this run builds {}",
                restored.shape_description(),
                like.shape_description()
            )));
        }
        for row in rows {
            restored.restore_row(row)?;
        }
        Ok(restored)
    }

    /// Verifies the checkpoint belongs to this run: same sweep label,
    /// same grid axis lengths, same total case count, and a watermark
    /// within range.
    ///
    /// # Errors
    /// Errors with the exact disagreement when it does not.
    pub fn matches(&self, sweep: &Sweep, total: usize) -> Result<(), CheckpointError> {
        let lens: Vec<usize> = sweep.axes().iter().map(crate::sweep::Axis::len).collect();
        if self.sweep != sweep.label() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for sweep {:?}, this run is {:?}",
                self.sweep,
                sweep.label()
            )));
        }
        if self.lens != lens {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint grid shape {:?} != this run's {:?} — \
                 was the scale or configuration changed between runs?",
                self.lens, lens
            )));
        }
        if self.total != total {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint covers {} cases, this run has {total}",
                self.total
            )));
        }
        if self.fingerprint != sweep_fingerprint(sweep) {
            return Err(CheckpointError::Mismatch(
                "checkpoint was written by a different run of this grid — \
                 the seed, scale, or machine configuration changed between runs"
                    .into(),
            ));
        }
        if self.done > self.total {
            return Err(CheckpointError::Malformed(format!(
                "watermark {} beyond the {} total cases",
                self.done, self.total
            )));
        }
        if self.start > self.done {
            return Err(CheckpointError::Malformed(format!(
                "covered range starts at {} but the watermark is {}",
                self.start, self.done
            )));
        }
        Ok(())
    }

    /// Merges a shard checkpoint from the *same run* into this one:
    /// identities must agree exactly (label, grid shape, total,
    /// fingerprint), the covered ranges must be adjacent (in either
    /// order — merge left-to-right or right-to-left), and the union
    /// becomes the new covered range.
    ///
    /// States merge at the file level, bit-for-bit: grouped states
    /// union their rows (sorted by group key, exactly the order a
    /// single-process run renders). Every wide-grid experiment groups
    /// by **all** sweep axes, so a contiguous case partition never
    /// splits a row and the union reproduces the single-process rows
    /// verbatim — including P² quantile state, which is why the fleet
    /// path is byte-identical rather than merely tolerance-close. A
    /// partition that *does* cut through a row (a coarser grouping) is
    /// rejected by the duplicate-row guard.
    ///
    /// On error the target is left unchanged.
    ///
    /// # Errors
    /// [`RangeOverlap`](CheckpointError::RangeOverlap) /
    /// [`RangeGap`](CheckpointError::RangeGap) when the ranges are not
    /// adjacent, [`Mismatch`](CheckpointError::Mismatch) for identity,
    /// state-set, shape, or duplicate-row disagreements.
    pub fn merge(&mut self, other: &Checkpoint) -> Result<(), CheckpointError> {
        if self.sweep != other.sweep {
            return Err(CheckpointError::Mismatch(format!(
                "cannot merge checkpoints of different sweeps {:?} and {:?}",
                self.sweep, other.sweep
            )));
        }
        if self.lens != other.lens {
            return Err(CheckpointError::Mismatch(format!(
                "cannot merge checkpoints of different grid shapes {:?} and {:?}",
                self.lens, other.lens
            )));
        }
        if self.total != other.total {
            return Err(CheckpointError::Mismatch(format!(
                "cannot merge checkpoints covering {} and {} total cases",
                self.total, other.total
            )));
        }
        if self.fingerprint != other.fingerprint {
            return Err(CheckpointError::Mismatch(
                "cannot merge checkpoints written by different runs of this grid — \
                 the seed, scale, or machine configuration differs"
                    .into(),
            ));
        }
        // Range union: empty sides are trivial, otherwise the ranges
        // must tile — adjacency in either order.
        if other.start == other.done {
            return Ok(());
        }
        if self.start == self.done {
            self.states = other.states.clone();
            (self.start, self.done) = (other.start, other.done);
            return Ok(());
        }
        let (ours, theirs) = ((self.start, self.done), (other.start, other.done));
        let range = if ours.1 == theirs.0 {
            (ours.0, theirs.1)
        } else if theirs.1 == ours.0 {
            (theirs.0, ours.1)
        } else if theirs.0 < ours.1 && ours.0 < theirs.1 {
            return Err(CheckpointError::RangeOverlap(format!(
                "cases {}..{} and {}..{} were both folded — \
                 shards must cover disjoint ranges",
                ours.0, ours.1, theirs.0, theirs.1
            )));
        } else {
            return Err(CheckpointError::RangeGap(format!(
                "cases {}..{} and {}..{} are not adjacent — \
                 every case must be folded by exactly one shard",
                ours.0, ours.1, theirs.0, theirs.1
            )));
        };
        let mut merged_states = Vec::with_capacity(self.states.len());
        for (name, state) in &self.states {
            let Some((_, their_state)) = other.states.iter().find(|(n, _)| n == name) else {
                return Err(CheckpointError::Mismatch(format!(
                    "state {name:?} is in only one of the checkpoints"
                )));
            };
            merged_states.push((name.clone(), Self::merge_state(name, state, their_state)?));
        }
        if let Some((name, _)) =
            other.states.iter().find(|(n, _)| !self.states.iter().any(|(m, _)| m == n))
        {
            return Err(CheckpointError::Mismatch(format!(
                "state {name:?} is in only one of the checkpoints"
            )));
        }
        self.states = merged_states;
        (self.start, self.done) = range;
        Ok(())
    }

    /// One state's half of [`merge`](Self::merge): the union of both
    /// sides' rows.
    fn merge_state(name: &str, ours: &State, theirs: &State) -> Result<State, CheckpointError> {
        if ours.shape != theirs.shape {
            return Err(CheckpointError::Mismatch(format!(
                "grouped state {name:?} was grouped differently in the two checkpoints"
            )));
        }
        // Keyed map so duplicate detection stays cheap on paper-scale
        // grids (10^5 rows); iterating it back out yields the
        // single-process render order — sorted by group key.
        let mut union: std::collections::BTreeMap<Vec<usize>, Json> =
            std::collections::BTreeMap::new();
        for row in ours.rows.iter().chain(&theirs.rows) {
            let key = row.get("key").and_then(Json::as_usizes).map_err(|e| {
                CheckpointError::Malformed(format!("grouped row of {name:?} has no key: {e}"))
            })?;
            if union.insert(key.clone(), row.clone()).is_some() {
                return Err(CheckpointError::Mismatch(format!(
                    "grouped state {name:?} has row {key:?} in both checkpoints — \
                     the partition cuts through a grouped row"
                )));
            }
        }
        Ok(State { shape: ours.shape.clone(), rows: union.into_values().collect() })
    }

    /// Renders the file body (see the [module docs](self) for the
    /// line-oriented format).
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        let header = Json::obj([
            ("sweep", Json::str(self.sweep.clone())),
            ("total", Json::usize(self.total)),
            ("start", Json::usize(self.start)),
            ("done", Json::usize(self.done)),
            ("lens", Json::usizes(self.lens.iter().copied())),
            ("fp", Json::str(format!("{:016x}", self.fingerprint))),
        ]);
        out.push_str(&header.render());
        out.push('\n');
        for (name, State { shape, rows }) in &self.states {
            let line = Json::obj([("state", Json::str(name.clone())), ("shape", shape.clone())]);
            out.push_str(&line.render());
            out.push('\n');
            for row in rows {
                let line = Json::obj([("state", Json::str(name.clone())), ("row", row.clone())]);
                out.push_str(&line.render());
                out.push('\n');
            }
        }
        out
    }

    /// Writes the checkpoint atomically: the content goes to
    /// `<path>.tmp` first and is renamed over `path`, so a kill at any
    /// instant leaves either the previous checkpoint or this one —
    /// never a torn file. Parent directories are created as needed.
    ///
    /// # Errors
    /// Errors when any filesystem step fails.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |what: &str, e: std::io::Error| {
            CheckpointError::Io(format!("{what} {}: {e}", path.display()))
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io("creating directory for", e))?;
        }
        // Append ".tmp" rather than replacing the extension: distinct
        // checkpoint paths sharing a stem (run.fig07 / run.fig09) must
        // not collide on one temp file.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.render()).map_err(|e| io("writing", e))?;
        std::fs::rename(&tmp, path).map_err(|e| io("replacing", e))
    }

    /// Reads and validates a checkpoint file (structurally — use
    /// [`matches`](Self::matches) to tie it to a sweep).
    ///
    /// # Errors
    /// Errors when the file cannot be read or any line is not what the
    /// format promises, naming the offending line.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("reading {}: {e}", path.display())))?;
        let at = |line: usize, reason: String| {
            CheckpointError::Malformed(format!("{} line {}: {reason}", path.display(), line + 1))
        };
        let mut lines = text.lines().enumerate();
        let Some((_, magic)) = lines.next() else {
            return Err(at(0, "empty file".into()));
        };
        if magic != MAGIC {
            return Err(CheckpointError::Malformed(format!(
                "{} is not a checkpoint (or is from an unsupported version): \
                 first line {magic:?}, expected {MAGIC:?}",
                path.display()
            )));
        }
        let Some((header_no, header_text)) = lines.next() else {
            return Err(at(1, "missing header".into()));
        };
        let header = Json::parse(header_text).map_err(|e| at(header_no, e.to_string()))?;
        type Header = (String, usize, usize, usize, Vec<usize>, u64);
        let parse_header = |h: &Json| -> Result<Header, SnapshotError> {
            let fp = h.get("fp")?.as_str()?;
            let fingerprint = u64::from_str_radix(fp, 16)
                .map_err(|_| SnapshotError::new(format!("invalid fingerprint {fp:?}")))?;
            Ok((
                h.get("sweep")?.as_str()?.to_string(),
                h.get("total")?.as_usize()?,
                h.get("start")?.as_usize()?,
                h.get("done")?.as_usize()?,
                h.get("lens")?.as_usizes()?,
                fingerprint,
            ))
        };
        let (sweep, total, start, done, lens, fingerprint) =
            parse_header(&header).map_err(|e| at(header_no, e.to_string()))?;
        let mut checkpoint =
            Checkpoint { sweep, total, start, done, lens, fingerprint, states: Vec::new() };
        for (line_no, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let json = Json::parse(line).map_err(|e| at(line_no, e.to_string()))?;
            let name = json
                .get("state")
                .and_then(Json::as_str)
                .map_err(|e| at(line_no, e.to_string()))?
                .to_string();
            if let Ok(shape) = json.get("shape") {
                if checkpoint.states.iter().any(|(n, _)| *n == name) {
                    return Err(at(line_no, format!("duplicate state {name:?}")));
                }
                checkpoint.states.push((name, State { shape: shape.clone(), rows: Vec::new() }));
            } else if let Ok(row) = json.get("row") {
                let Some((_, state)) = checkpoint.states.iter_mut().find(|(n, _)| *n == name)
                else {
                    return Err(at(line_no, format!("row for {name:?} before its shape line")));
                };
                state.rows.push(row.clone());
            } else {
                return Err(at(line_no, "expected a shape or row line".into()));
            }
        }
        Ok(checkpoint)
    }
}

/// One shard of an `N`-way fleet partition: the decoded
/// `--shard-range i/N` flag. The partition is row-major contiguous —
/// shard `i` covers case indices
/// `i*total/N .. (i+1)*total/N` — so every case lands in exactly one
/// shard, shard sizes differ by at most one, and concatenating the
/// shards in index order reproduces the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Which shard this worker runs (0-based).
    pub index: usize,
    /// How many shards the partition has.
    pub of: usize,
}

impl ShardRange {
    /// Decodes `"i/N"` (e.g. `"0/3"`), requiring `N ≥ 1` and `i < N`.
    ///
    /// # Errors
    /// Errors with a usage message on any other input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let usage = || format!("--shard-range wants i/N with 0 <= i < N, got {text:?}");
        let (index, of) = text.split_once('/').ok_or_else(usage)?;
        let index: usize = index.trim().parse().map_err(|_| usage())?;
        let of: usize = of.trim().parse().map_err(|_| usage())?;
        if of == 0 || index >= of {
            return Err(usage());
        }
        Ok(Self { index, of })
    }

    /// This shard's case-index range `start..end` of a `total`-case
    /// run. The `N` shards tile `0..total` exactly.
    pub fn bounds(&self, total: usize) -> (usize, usize) {
        (self.index * total / self.of, (self.index + 1) * total / self.of)
    }
}

impl fmt::Display for ShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// What a checkpointed run was asked to do — the decoded
/// `--checkpoint` / `--resume` / `--halt-after` / `--shard-range`
/// flags every wide-grid experiment binary shares.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSpec {
    /// Where to persist checkpoints (and read them back from when
    /// resuming). `None` disables checkpointing entirely.
    pub path: Option<PathBuf>,
    /// Whether to pick up from an existing checkpoint at `path` (a
    /// missing file just starts fresh, so restart scripts are
    /// idempotent).
    pub resume: bool,
    /// Deterministic-interrupt testing aid: after this many checkpoint
    /// saves, halt the stream cleanly (the state on disk is exactly
    /// what a kill right after the save would leave).
    pub halt_after: Option<usize>,
    /// Run only this shard of the fleet partition; the checkpoint then
    /// covers the shard's case range and is merged with its peers by
    /// the coordinator. `None` runs the whole sweep.
    pub shard: Option<ShardRange>,
}

impl CheckpointSpec {
    /// A spec that never checkpoints — plain uninterrupted runs.
    pub fn none() -> Self {
        Self::default()
    }

    /// A spec writing checkpoints to `path` (fresh run, no resume).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: Some(path.into()), ..Self::default() }
    }

    /// A spec resuming from (and continuing to write) `path`.
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        Self { path: Some(path.into()), resume: true, ..Self::default() }
    }

    /// Loads the checkpoint a resumed run starts from: `Some` when
    /// resuming and a file exists at the configured path (validated
    /// against `sweep` and `total`), `None` when starting fresh.
    ///
    /// # Errors
    /// Errors when the file exists but cannot be read, is malformed, or
    /// belongs to a different run.
    pub fn load(&self, sweep: &Sweep, total: usize) -> Result<Option<Checkpoint>, CheckpointError> {
        let Some(path) = self.path.as_deref().filter(|_| self.resume) else {
            return Ok(None);
        };
        if !path.exists() {
            return Ok(None);
        }
        let checkpoint = Checkpoint::load(path)?;
        checkpoint.matches(sweep, total)?;
        Ok(Some(checkpoint))
    }

    /// The shard-boundary hook body of [`run_resumable`]: build and save
    /// a checkpoint when a path is configured, count the save, and
    /// request a clean [`StreamControl::Halt`] once
    /// [`halt_after`](Self::halt_after) saves have landed. `saves` is
    /// the caller's running save counter. The error type is the
    /// `String` the session's checkpoint hook contract uses.
    ///
    /// # Errors
    /// Errors when saving fails.
    pub(crate) fn on_boundary(
        &self,
        saves: &mut usize,
        build: impl FnOnce() -> Checkpoint,
    ) -> Result<StreamControl, String> {
        let Some(path) = &self.path else { return Ok(StreamControl::Continue) };
        build().save(path).map_err(|e| e.to_string())?;
        *saves += 1;
        if self.halt_after.is_some_and(|limit| *saves >= limit) {
            return Ok(StreamControl::Halt);
        }
        Ok(StreamControl::Continue)
    }
}

/// The resumable-sweep driver every checkpointed experiment shares:
/// load the checkpoint `spec` names (restoring the cells and skipping
/// the completed prefix), stream the remaining cases, `fold` each run
/// into its case's cell, and persist the cells at every shard boundary.
///
/// There is one cell `C` per case: a [`GroupedStats`] keyed by every
/// sweep axis, stored under the state name `"grid"`. `fold` receives
/// the case's cell (created with `C::default()`), its global case index,
/// and its run. Returns the cells in case order once every case of the
/// *whole run* was folded in, and `None` when the run halted early per
/// the spec (`--halt-after`) **or** ran only a [`ShardRange`] slice —
/// either way the checkpoint then holds everything a later resume (or
/// the fleet coordinator's [`Checkpoint::merge`]) needs. A shard run
/// therefore never renders a report of its own: only the merged whole
/// does.
///
/// With `spec.shard` set, the run covers exactly the shard's case
/// range: the case iterator is bounded with
/// [`Sweep::take_range`](crate::sweep::Sweep::take_range), so the lazy
/// grid is never pulled past the shard's end, and every boundary save
/// is cut with [`Checkpoint::for_range`]. Resuming a shard requires
/// the same `--shard-range` it was started with.
///
/// Interrupt-at-any-boundary plus resume — under any worker/shard
/// split — is byte-identical to one uninterrupted run, provided `C`'s
/// [`Snapshot`] impl round-trips exactly.
///
/// ```
/// use zen2_sim::checkpoint::run_resumable;
/// use zen2_sim::{
///     Axis, CheckpointSpec, OnlineStats, Probe, Scenario, Session, SimConfig, Sweep, Window,
/// };
///
/// let mut base = Scenario::new();
/// base.probe("ac", Probe::AcPowerW, Window::at(0));
/// let sweep = Sweep::new("demo", SimConfig::epyc_7502_2s())
///     .scenario(base)
///     .seed(7)
///     .axis(Axis::param("rep", (0..3).map(f64::from)));
/// let cells = run_resumable(
///     &sweep,
///     &Session::new().workers(2).shard_size(1),
///     &CheckpointSpec::none(),
///     |cell: &mut OnlineStats, _, run| cell.push(run.watts("ac")),
/// )
/// .unwrap()
/// .expect("a whole run completes");
/// assert_eq!(cells.len(), 3);
/// ```
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this run.
///
/// # Panics
/// Panics when the sweep has no axes, or two axes share a name (see
/// [`GroupedStats::new`]).
pub fn run_resumable<C: Snapshot + Default>(
    sweep: &Sweep,
    session: &Session,
    spec: &CheckpointSpec,
    mut fold: impl FnMut(&mut C, usize, Run),
) -> Result<Option<Vec<C>>, CheckpointError> {
    let axes: Vec<&str> = sweep.axes().iter().map(crate::sweep::Axis::name).collect();
    let mut cells = GroupedStats::<C>::new(sweep, &axes);
    let total = sweep.len();
    let (lo, hi) = spec.shard.map_or((0, total), |shard| shard.bounds(total));
    let mut start = lo;
    if let Some(checkpoint) = spec.load(sweep, total)? {
        let (covered_start, covered_done) = checkpoint.covered();
        if covered_start != lo || covered_done > hi {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint covers cases {covered_start}..{covered_done}, this run's shard \
                 is {lo}..{hi} — resume a shard with the same --shard-range it was \
                 started with"
            )));
        }
        cells = checkpoint.grouped("grid", &cells)?;
        start = covered_done;
    }
    // Announce the run's extent before streaming: progress sinks need
    // the total (and the resume offset) to show percentages and ETA.
    session.obs().event(
        EVT_SWEEP_TOTAL,
        &[
            ("sweep", AttrValue::Str(sweep.label())),
            ("total", AttrValue::U64(hi as u64)),
            ("start", AttrValue::U64(start as u64)),
        ],
    );
    let pending = sweep.take_range(start, hi - start);
    let mut saves = 0;
    let delivered = session
        .run_streaming_checkpointed(start, pending, |event| match event {
            StreamEvent::Run { index, run } => {
                fold(cells.entry(index), index, run);
                Ok(StreamControl::Continue)
            }
            StreamEvent::ShardBoundary { next } => spec.on_boundary(&mut saves, || {
                let mut checkpoint = Checkpoint::for_range(sweep, total, lo, next);
                checkpoint.set_grouped("grid", &cells);
                checkpoint
            }),
        })
        .map_err(CheckpointError::from_stream)?;
    let complete = lo == 0 && start + delivered == total;
    Ok(complete.then(|| cells.into_rows().map(|(_, cell)| cell).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::stats::{OnlineStats, Welford};
    use crate::sweep::Axis;

    fn sweep_3x2() -> Sweep {
        Sweep::new("ck-test", SimConfig::epyc_7502_2s())
            .seed(1)
            .axis(Axis::param("a", [0.0, 1.0, 2.0]))
            .axis(Axis::param("b", [0.0, 1.0]))
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zen2-ckpt-test-{name}-{}", std::process::id()))
    }

    fn populated(sweep: &Sweep) -> GroupedStats<OnlineStats> {
        let mut grouped: GroupedStats<OnlineStats> = GroupedStats::new(sweep, &["a"]);
        for i in 0..4 {
            grouped.entry(i).push(i as f64 * 0.7);
        }
        grouped
    }

    /// One instant power read per case: the cheapest scenario a driver
    /// test can stream.
    fn instant_sweep() -> Sweep {
        let mut base = crate::scenario::Scenario::new();
        base.probe("ac", crate::probe::Probe::AcPowerW, crate::probe::Window::at(0));
        sweep_3x2().scenario(base)
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let sweep = sweep_3x2();
        let grouped = populated(&sweep);
        let mut ck = Checkpoint::new(&sweep, 6, 4);
        ck.set_grouped("grid", &grouped);

        let path = tmp("round-trip");
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(loaded, ck);
        assert_eq!((loaded.sweep(), loaded.done(), loaded.total()), ("ck-test", 4, 6));
        assert!(!loaded.is_complete());
        loaded.matches(&sweep, 6).unwrap();
        let like: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["a"]);
        assert_eq!(loaded.grouped("grid", &like).unwrap(), grouped);
    }

    #[test]
    fn file_format_is_one_object_per_row() {
        let sweep = sweep_3x2();
        let mut ck = Checkpoint::new(&sweep, 6, 4);
        ck.set_grouped("grid", &populated(&sweep));
        let text = ck.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], MAGIC);
        assert!(lines[1].starts_with("{\"sweep\":\"ck-test\",\"total\":6,\"start\":0,\"done\":4"));
        assert!(lines[2].contains("\"shape\""));
        // Cases 0..4 touch groups a=0 and a=1: one object per row.
        let rows = lines.iter().filter(|l| l.contains("\"row\"")).count();
        assert_eq!(rows, 2);
        assert_eq!(lines.len(), 3 + rows);
    }

    #[test]
    fn mismatched_grids_are_rejected_with_clear_errors() {
        let sweep = sweep_3x2();
        let mut ck = Checkpoint::new(&sweep, 6, 4);
        ck.set_grouped("grid", &populated(&sweep));

        // A different sweep label.
        let renamed = Sweep::new("other", SimConfig::epyc_7502_2s())
            .axis(Axis::param("a", [0.0, 1.0, 2.0]))
            .axis(Axis::param("b", [0.0, 1.0]));
        let err = ck.matches(&renamed, 6).unwrap_err();
        assert!(err.to_string().contains("\"other\""), "{err}");

        // A different grid shape (e.g. the scale changed between runs).
        let reshaped = Sweep::new("ck-test", SimConfig::epyc_7502_2s())
            .axis(Axis::param("a", [0.0, 1.0, 2.0, 3.0]))
            .axis(Axis::param("b", [0.0, 1.0]));
        let err = ck.matches(&reshaped, 8).unwrap_err();
        assert!(err.to_string().contains("grid shape"), "{err}");

        // A different total case count.
        let err = ck.matches(&sweep, 9).unwrap_err();
        assert!(err.to_string().contains("9"), "{err}");

        // The same grid shape under a different root seed: the lens all
        // match, only the fingerprint catches it.
        let reseeded = sweep_3x2().seed(2);
        let err = ck.matches(&reseeded, 6).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");

        // The same shape with scale-dependent scenario content (e.g. a
        // quick-vs-paper duration change): also fingerprint-caught.
        let mut rescaled_base = crate::scenario::Scenario::new();
        rescaled_base.probe("ac", crate::probe::Probe::AcPowerW, crate::probe::Window::at(123_456));
        let rescaled = sweep_3x2().scenario(rescaled_base);
        let err = ck.matches(&rescaled, 6).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");

        // A grouped state restored against a different grouping.
        let by_b: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["b"]);
        let err = ck.grouped("grid", &by_b).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    #[test]
    fn missing_and_mistyped_states_are_named() {
        let sweep = sweep_3x2();
        let mut ck = Checkpoint::new(&sweep, 6, 4);
        ck.set_grouped("grid", &populated(&sweep));

        let like: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["a"]);
        assert_eq!(
            ck.grouped("nope", &like).unwrap_err(),
            CheckpointError::MissingState("nope".into())
        );
        // Rows restored as another accumulator type are malformed.
        let welford: GroupedStats<Welford> = GroupedStats::new(&sweep, &["a"]);
        let err = ck.grouped("grid", &welford).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn load_rejects_non_checkpoints_and_torn_lines() {
        let path = tmp("malformed");
        for (content, needle) in [
            ("not a checkpoint\n", "unsupported version"),
            (&format!("{MAGIC}\n")[..], "missing header"),
            (&format!("{MAGIC}\n{{\"sweep\":\"x\"}}\n")[..], "line 2"),
            (
                &format!(
                    "{MAGIC}\n\
                     {{\"sweep\":\"x\",\"total\":1,\"start\":0,\"done\":0,\"lens\":[],\"fp\":\"00\"}}\n\
                     {{\"state\":\"g\",\"row\":{{}}}}\n"
                )[..],
                "before its shape",
            ),
            (
                &format!(
                    "{MAGIC}\n\
                     {{\"sweep\":\"x\",\"total\":1,\"start\":0,\"done\":0,\"lens\":[],\"fp\":\"00\"}}\n\
                     {{\"state\":\"g\"}}\n"
                )[..],
                "shape or row",
            ),
            // A v1 file: rejected by the magic, never half-read.
            ("zen2-sweep-checkpoint v1\n{\"sweep\":\"x\"}\n", "unsupported version"),
            // A stand-alone `value` state, as Fig. 7 wrote its all-C2
            // baseline before every state became one grouped grid.
            (
                &format!(
                    "{MAGIC}\n\
                     {{\"sweep\":\"fig07\",\"total\":1,\"start\":0,\"done\":1,\"lens\":[],\"fp\":\"00\"}}\n\
                     {{\"state\":\"baseline\",\"value\":{{\"welford\":{{}}}}}}\n"
                )[..],
                "line 3: expected a shape or row line",
            ),
        ] {
            std::fs::write(&path, content).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Malformed(_)), "{content:?} → {err:?}");
            assert!(err.to_string().contains(needle), "{content:?} → {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_temp_file_appends_rather_than_replacing_the_extension() {
        // Checkpoint paths sharing a stem (run.fig07 / run.fig09) must
        // not funnel through one temp file: saving to `<dir>/x.fig07`
        // must leave an unrelated `<dir>/x.tmp` untouched.
        let dir = tmp("tmp-name");
        std::fs::create_dir_all(&dir).unwrap();
        let bystander = dir.join("x.tmp");
        std::fs::write(&bystander, "unrelated").unwrap();
        let sweep = sweep_3x2();
        Checkpoint::new(&sweep, 6, 2).save(&dir.join("x.fig07")).unwrap();
        assert_eq!(std::fs::read_to_string(&bystander).unwrap(), "unrelated");
        assert!(Checkpoint::load(&dir.join("x.fig07")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_resumable_halts_and_resumes_through_the_driver() {
        // The shared driver honors halt_after and resumes to the same
        // cells a straight-through run produces.
        let sweep = instant_sweep();
        let session = Session::new().workers(1).shard_size(2);
        let fold = |cell: &mut OnlineStats, index: usize, _run: Run| cell.push(index as f64);
        let clean = run_resumable(&sweep, &session, &CheckpointSpec::none(), fold).unwrap();
        let clean = clean.expect("an uninterrupted run completes");
        assert_eq!(clean.len(), 6);
        assert_eq!(clean[5].mean(), 5.0);

        let path = tmp("driver");
        let spec = CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) };
        assert_eq!(run_resumable(&sweep, &session, &spec, fold).unwrap(), None);
        let spec = CheckpointSpec::resume_from(&path);
        let resumed = run_resumable(&sweep, &session, &spec, fold).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resumed, Some(clean));
    }

    #[test]
    fn spec_load_is_none_unless_resuming_an_existing_file() {
        let sweep = sweep_3x2();
        let path = tmp("spec");
        // No path, not resuming, resuming a missing file: all fresh.
        assert_eq!(CheckpointSpec::none().load(&sweep, 6).unwrap(), None);
        assert_eq!(CheckpointSpec::at(&path).load(&sweep, 6).unwrap(), None);
        assert_eq!(CheckpointSpec::resume_from(&path).load(&sweep, 6).unwrap(), None);
        // With a file present, resume loads and validates it.
        Checkpoint::new(&sweep, 6, 2).save(&path).unwrap();
        let loaded = CheckpointSpec::resume_from(&path).load(&sweep, 6).unwrap().unwrap();
        assert_eq!(loaded.done(), 2);
        // …and a total mismatch is surfaced, not ignored.
        assert!(CheckpointSpec::resume_from(&path).load(&sweep, 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn on_boundary_saves_counts_and_halts() {
        let sweep = sweep_3x2();
        let path = tmp("boundary");
        let spec = CheckpointSpec { halt_after: Some(2), ..CheckpointSpec::at(&path) };
        let mut saves = 0;
        let build = || Checkpoint::new(&sweep, 6, 2);
        assert_eq!(spec.on_boundary(&mut saves, build).unwrap(), StreamControl::Continue);
        assert_eq!(spec.on_boundary(&mut saves, build).unwrap(), StreamControl::Halt);
        assert_eq!(saves, 2);
        assert!(path.exists());
        std::fs::remove_file(&path).unwrap();
        // Without a path nothing is written and nothing halts.
        let mut saves = 0;
        let spec = CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::none() };
        assert_eq!(spec.on_boundary(&mut saves, build).unwrap(), StreamControl::Continue);
        assert_eq!(saves, 0);
    }

    #[test]
    fn shard_range_parses_and_tiles_the_grid() {
        assert_eq!(ShardRange::parse("0/3").unwrap(), ShardRange { index: 0, of: 3 });
        assert_eq!(ShardRange::parse("2/3").unwrap().bounds(7), (4, 7));
        assert_eq!(ShardRange::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["", "3", "3/3", "4/3", "a/b", "1/0", "-1/2", "1/2/3"] {
            assert!(ShardRange::parse(bad).is_err(), "{bad:?} parsed");
        }
        // The N shards tile 0..total exactly: contiguous, disjoint,
        // nothing left over — for totals below, at, and above N.
        for total in [0, 1, 6, 7, 100] {
            for of in [1, 2, 3, 7, 11] {
                let mut next = 0;
                for index in 0..of {
                    let (lo, hi) = (ShardRange { index, of }).bounds(total);
                    assert_eq!(lo, next, "shard {index}/{of} of {total}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, total, "{of} shards of {total}");
            }
        }
    }

    #[test]
    fn merge_unions_adjacent_shards_bit_exactly() {
        let sweep = sweep_3x2();
        let like = || GroupedStats::<OnlineStats>::new(&sweep, &["a", "b"]);
        // A shard over `range` (grid grouped by all axes, so disjoint
        // ranges touch disjoint rows).
        let shard = |range: std::ops::Range<usize>| {
            let mut grid = like();
            for i in range.clone() {
                grid.entry(i).push(i as f64 * 1.1);
            }
            let mut ck = Checkpoint::for_range(&sweep, 6, range.start, range.end);
            ck.set_grouped("grid", &grid);
            ck
        };
        // The single-process reference: all 6 grid cases.
        let full = shard(0..6);
        let (a, b) = (shard(0..3), shard(3..6));
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.render(), full.render());
        assert!(merged.is_complete());
        // Adjacency works in either order: same bytes.
        let mut reversed = b;
        reversed.merge(&a).unwrap();
        assert_eq!(reversed.render(), full.render());
        // Three-way, merged middle-out.
        let mut m = shard(2..5);
        m.merge(&shard(5..6)).unwrap();
        m.merge(&shard(0..2)).unwrap();
        assert_eq!(m.render(), full.render());
    }

    #[test]
    fn merge_rejects_overlap_gap_and_foreign_checkpoints() {
        let sweep = sweep_3x2();
        let ck = |start, done| Checkpoint::for_range(&sweep, 6, start, done);
        let mut m = ck(0, 3);
        let err = m.merge(&ck(2, 5)).unwrap_err();
        assert!(matches!(err, CheckpointError::RangeOverlap(_)), "{err}");
        assert!(err.to_string().contains("0..3"), "{err}");
        let err = m.merge(&ck(4, 6)).unwrap_err();
        assert!(matches!(err, CheckpointError::RangeGap(_)), "{err}");
        // A shard written by a different run of the same grid shape.
        let reseeded = sweep_3x2().seed(2);
        let err = m.merge(&Checkpoint::for_range(&reseeded, 6, 3, 6)).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");
        // On error the target is untouched.
        assert_eq!(m.covered(), (0, 3));
        // A partition cutting through a grouped row (coarser grouping
        // than the case axes) is rejected.
        let coarse = |case: usize, start: usize, done: usize| {
            let mut grid: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["a"]);
            grid.entry(case).push(case as f64);
            let mut ck = ck(start, done);
            ck.set_grouped("grid", &grid);
            ck
        };
        // Cases 2 and 3 share the a=1 row.
        let mut left = coarse(2, 0, 3);
        let err = left.merge(&coarse(3, 3, 6)).unwrap_err();
        assert!(err.to_string().contains("cuts through a grouped row"), "{err}");
        // A state present on only one side is named.
        let mut lonely = ck(0, 3);
        lonely.set_grouped("extra", &GroupedStats::<OnlineStats>::new(&sweep, &["a"]));
        let err = lonely.merge(&ck(3, 6)).unwrap_err();
        assert!(err.to_string().contains("only one of"), "{err}");
    }

    #[test]
    fn run_resumable_shards_partition_and_merge_to_the_clean_run() {
        let sweep = instant_sweep();
        let session = Session::new().workers(2).shard_size(2);
        let fold = |cell: &mut OnlineStats, index: usize, _run: Run| cell.push(index as f64 * 0.3);

        // The single-process reference, checkpointed to the end.
        let clean_path = tmp("shard-clean");
        let spec = CheckpointSpec::at(&clean_path);
        assert!(run_resumable(&sweep, &session, &spec, fold).unwrap().is_some());
        let clean_text = std::fs::read_to_string(&clean_path).unwrap();
        std::fs::remove_file(&clean_path).unwrap();

        // Three shard runs over the same grid, merged at the file level.
        let mut merged: Option<Checkpoint> = None;
        for index in 0..3 {
            let path = tmp(&format!("shard-{index}"));
            let range = ShardRange { index, of: 3 };
            let spec = CheckpointSpec { shard: Some(range), ..CheckpointSpec::at(&path) };
            // A shard never claims the whole run completed.
            assert_eq!(run_resumable(&sweep, &session, &spec, fold).unwrap(), None);
            let shard = Checkpoint::load(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(shard.covered(), range.bounds(6));
            match merged.as_mut() {
                None => merged = Some(shard),
                Some(m) => m.merge(&shard).unwrap(),
            }
        }
        let merged = merged.unwrap();
        assert!(merged.is_complete());
        assert_eq!(merged.render(), clean_text);
    }

    #[test]
    fn resuming_a_shard_needs_its_own_range() {
        let sweep = sweep_3x2();
        let path = tmp("shard-resume");
        let mut grid = GroupedStats::<OnlineStats>::new(&sweep, &["a", "b"]);
        grid.entry(2).push(1.0);
        grid.entry(3).push(2.0);
        let mut ck = Checkpoint::for_range(&sweep, 6, 2, 4);
        ck.set_grouped("grid", &grid);
        ck.save(&path).unwrap();
        let session = Session::new();
        let spec = |index| CheckpointSpec {
            resume: true,
            shard: Some(ShardRange { index, of: 3 }),
            ..CheckpointSpec::at(&path)
        };
        let nop = |_: &mut OnlineStats, _: usize, _: Run| {};
        let err = run_resumable(&sweep, &session, &spec(0), nop).unwrap_err();
        assert!(err.to_string().contains("--shard-range"), "{err}");
        // The matching shard resumes; its range is already complete, so
        // nothing streams and the whole run is still unfinished.
        assert_eq!(run_resumable(&sweep, &session, &spec(1), nop).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }
}
