//! Durable checkpoints for paper-scale sweeps: persist every finished
//! case's cell after each case group, resume later, produce
//! byte-identical output.
//!
//! A `--paper`-scale grid can run for hours with nothing on disk until
//! the end. The checkpoint layer closes that gap with four pieces:
//!
//! * [`run_resumable`] — the driver every checkpointed experiment
//!   shares: it pulls the grid one case group (`workers × shard_size`
//!   cases) at a time, runs each group on the session, reduces each
//!   case's run to one value, the case's *cell*, keeps the cells in
//!   case order, and saves them after every group.
//! * [`Checkpoint`] — a durable cut of those cells: the sweep's
//!   identity (label, grid shape, total case count, fingerprint), the
//!   covered case range `start..done`, and one [`Snapshot`] per covered
//!   case. It saves atomically (write-temp-then-rename, so a kill at
//!   any instant leaves either the old or the new file, never a torn
//!   one) and validates everything on load.
//! * [`CheckpointSpec`] — what a checkpointed run was asked to do
//!   (`--checkpoint <path>`, `--resume`, the deterministic-interrupt
//!   testing aid `--halt-after <n>`, and a library caller's
//!   [`ShardRange`]).
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
//! zen2-sweep-checkpoint v3
//! {"sweep":"fig09","total":81,"start":0,"done":32,"lens":[9,3,3],"fp":"9055a9…"}
//! {"ac":…,"pkg":…,"core":…}
//! {"ac":…,"pkg":…,"core":…}
//! ```
//!
//! Line 1 is the version header. Line 2 identifies the run: the sweep
//! label, the total case count, the covered case-index range
//! `start..done` (a shard run — see [`ShardRange`] and
//! [`Checkpoint::merge`] — covers its slice of the grid; a whole-run
//! checkpoint has `start` 0), the grid's axis lengths, and a
//! fingerprint of the run's content (seeds, scale-dependent scenario
//! data, machine configuration — so two runs whose grids merely share
//! dimensions can never blend). After that comes **one line per cell**
//! of `start..done`, in case order: line `3 + k` holds case
//! `start + k`'s cell. [`Checkpoint::load`] refuses a file whose cell
//! count is not `done − start`. Everything is written with the exact
//! [`Json`] encoding of [`snapshot`](crate::snapshot) — floats
//! round-trip bit-for-bit, which is what makes a resumed sweep's output
//! byte-identical.
//!
//! ```
//! use zen2_sim::{Axis, Checkpoint, Scenario, SimConfig, Sweep};
//!
//! let sweep = Sweep::new("demo", |_| (SimConfig::epyc_7502_2s(), Scenario::new()))
//!     .seed(7)
//!     .axis(Axis::new("x", [0, 1, 2]));
//!
//! // Persist after case 1 of 3 — case 0's cell — then pick the run back
//! // up elsewhere.
//! let mut ck = Checkpoint::new(&sweep, sweep.len(), 1);
//! ck.set_cells(&[99.1]);
//! let path = std::env::temp_dir().join("zen2-checkpoint-doctest");
//! ck.save(&path).unwrap();
//!
//! let loaded = Checkpoint::load(&path).unwrap();
//! loaded.matches(&sweep, sweep.len()).unwrap();
//! assert_eq!(loaded.covered(), (0, 1));
//! assert_eq!(loaded.cells::<f64>().unwrap(), [99.1]);
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::obs::{AttrValue, EVT_SWEEP_TOTAL, SPAN_CHECKPOINT};
use crate::probe::Run;
use crate::session::{Case, Session};
use crate::snapshot::{Json, Snapshot, SnapshotError};
use crate::stats::GroupedStats;
use crate::sweep::Sweep;
use std::fmt;
use std::path::{Path, PathBuf};

/// The first line of every checkpoint file. v3 stores one line per
/// case cell; v2 files (grouped-state rows) and v1 files are rejected
/// with the version error rather than misread.
const MAGIC: &str = "zen2-sweep-checkpoint v3";

/// FNV-1a over `bytes`, folded into `state`.
fn fnv1a(bytes: &[u8], state: &mut u64) {
    for &b in bytes {
        *state ^= b as u64;
        *state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// [`fnv1a`] over formatted text, fed as it is written: the same bytes
/// in the same order as over the formatted `String`, which is never
/// built.
fn fnv1a_fmt(args: fmt::Arguments<'_>, state: &mut u64) {
    struct Feed<'a>(&'a mut u64);
    impl fmt::Write for Feed<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            fnv1a(s.as_bytes(), self.0);
            Ok(())
        }
    }
    // Neither the adapter nor a derived `Debug` reports an error.
    let _ = fmt::write(&mut Feed(state), args);
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
                fnv1a_fmt(format_args!("{:?}", case.config), &mut state); // zen2-lint: allow(no-debug-keying) — rejection guard, not an identity key (see above)
                fnv1a_fmt(format_args!("{:?}", case.scenario), &mut state); // zen2-lint: allow(no-debug-keying) — rejection guard, not an identity key (see above)
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
    /// another sweep label, grid shape, total or fingerprint, or a
    /// shard resumed under another [`ShardRange`].
    Mismatch(String),
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
            CheckpointError::RangeOverlap(m) => write!(f, "checkpoint ranges overlap: {m}"),
            CheckpointError::RangeGap(m) => write!(f, "checkpoint ranges leave a gap: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A durable cut of a streaming sweep: which run it belongs to, which
/// cases it covers, and each covered case's cell. See the
/// [module docs](self) for the on-disk format.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    sweep: String,
    total: usize,
    start: usize,
    done: usize,
    lens: Vec<usize>,
    fingerprint: u64,
    /// One snapshot per case of `start..done`, in case order.
    cells: Vec<Json>,
}

impl Checkpoint {
    /// A checkpoint for `sweep` at watermark `done`, covering `total`
    /// cases, with no cells yet. The covered range starts at case 0 — a
    /// whole-run checkpoint; a shard run uses
    /// [`for_range`](Self::for_range).
    pub fn new(sweep: &Sweep, total: usize, done: usize) -> Self {
        Self::for_range(sweep, total, 0, done)
    }

    /// A checkpoint covering the case-index range `start..done` of a
    /// `total`-case run, with no cells yet — what [`run_resumable`]
    /// cuts at a shard run's boundaries.
    pub fn for_range(sweep: &Sweep, total: usize, start: usize, done: usize) -> Self {
        Self {
            sweep: sweep.label().to_string(),
            total,
            start,
            done,
            lens: sweep.axes().iter().map(crate::sweep::Axis::len).collect(),
            fingerprint: sweep_fingerprint(sweep),
            cells: Vec::new(),
        }
    }

    /// The total case count of the run.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The covered case-index range `start..done`: which slice of the
    /// run's cases this checkpoint folded. A whole-run checkpoint
    /// starts at 0; a shard run's starts at its shard's lower bound.
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

    /// Stores the cells of the covered cases, in case order: one per
    /// case of `start..done`, or [`load`](Self::load) refuses the saved
    /// file.
    pub fn set_cells<C: Snapshot>(&mut self, cells: &[C]) {
        self.cells = cells.iter().map(Snapshot::snapshot).collect();
    }

    /// Stores a grouped reducer's rows as the cells. Rows come back in
    /// grid order, so a reducer grouped by every sweep axis, in axis
    /// order, has exactly one row per case in case order and saves the
    /// bytes [`set_cells`](Self::set_cells) would. `_name` is ignored:
    /// a checkpoint holds one cell store.
    pub fn set_grouped<A: Snapshot>(&mut self, _name: impl Into<String>, stats: &GroupedStats<A>) {
        self.cells = stats.rows().map(|(_, acc)| acc.snapshot()).collect();
    }

    /// Restores the cells of the covered cases, in case order.
    ///
    /// # Errors
    /// Errors with [`Malformed`](CheckpointError::Malformed), naming the
    /// case, when a cell is not a snapshot of `C`.
    pub fn cells<C: Snapshot>(&self) -> Result<Vec<C>, CheckpointError> {
        let restore = |(k, cell)| {
            C::restore(cell).map_err(|e| {
                CheckpointError::Malformed(format!("cell of case {}: {e}", self.start + k))
            })
        };
        self.cells.iter().enumerate().map(restore).collect()
    }

    /// Verifies the checkpoint belongs to this run: same sweep label,
    /// same grid axis lengths, same total case count, same fingerprint,
    /// and a watermark within range.
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
        Ok(())
    }

    /// Merges a shard checkpoint from the *same run* into this one:
    /// identities must agree exactly (label, grid shape, total,
    /// fingerprint), the covered ranges must be adjacent (in either
    /// order — merge left-to-right or right-to-left), and the union
    /// becomes the new covered range. The cells concatenate in case
    /// order, so merging a full partition reproduces the single-process
    /// file byte for byte.
    ///
    /// On error the target is left unchanged.
    ///
    /// # Errors
    /// [`RangeOverlap`](CheckpointError::RangeOverlap) /
    /// [`RangeGap`](CheckpointError::RangeGap) when the ranges are not
    /// adjacent, [`Mismatch`](CheckpointError::Mismatch) for identity
    /// disagreements.
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
        let (ours, theirs) = ((self.start, self.done), (other.start, other.done));
        if theirs.0 == theirs.1 {
            return Ok(());
        }
        if ours.0 == ours.1 {
            *self = other.clone();
        } else if ours.1 == theirs.0 {
            self.cells.extend_from_slice(&other.cells);
            self.done = other.done;
        } else if theirs.1 == ours.0 {
            self.cells.splice(0..0, other.cells.iter().cloned());
            self.start = other.start;
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
        }
        Ok(())
    }

    /// Renders the file body (see the [module docs](self) for the
    /// line-oriented format).
    fn render(&self) -> String {
        let header = Json::obj([
            ("sweep", Json::str(self.sweep.clone())),
            ("total", Json::usize(self.total)),
            ("start", Json::usize(self.start)),
            ("done", Json::usize(self.done)),
            ("lens", Json::usizes(self.lens.iter().copied())),
            ("fp", Json::str(format!("{:016x}", self.fingerprint))),
        ]);
        let mut out = format!("{MAGIC}\n{}\n", header.render());
        for cell in &self.cells {
            out.push_str(&cell.render());
            out.push('\n');
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
    /// format promises — including one cell line too few or too many
    /// for the covered range — naming the offending line.
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
        let Some(expected) = done.checked_sub(start) else {
            return Err(at(
                header_no,
                format!("covered range starts at {start} but the watermark is {done}"),
            ));
        };
        // Grown line by line, never sized from the header: a corrupt
        // `done` must not become an allocation.
        let mut cells = Vec::new();
        for (line_no, line) in lines {
            if cells.len() == expected {
                return Err(at(
                    line_no,
                    format!("one cell line more than the {expected} of cases {start}..{done}"),
                ));
            }
            cells.push(Json::parse(line).map_err(|e| at(line_no, e.to_string()))?);
        }
        if cells.len() < expected {
            return Err(at(
                2 + cells.len(),
                format!(
                    "missing cell line: cases {start}..{done} need {expected}, found {}",
                    cells.len()
                ),
            ));
        }
        Ok(Checkpoint { sweep, total, start, done, lens, fingerprint, cells })
    }
}

/// One shard of an `N`-way partition of a grid's cases, run through
/// [`CheckpointSpec::shard`]. The partition is row-major contiguous —
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
    /// This shard's case-index range `start..end` of a `total`-case
    /// run. The `N` shards tile `0..total` exactly.
    pub fn bounds(&self, total: usize) -> (usize, usize) {
        (self.index * total / self.of, (self.index + 1) * total / self.of)
    }
}

/// What a checkpointed run was asked to do — the decoded
/// `--checkpoint` / `--resume` / `--halt-after` flags every wide-grid
/// experiment binary shares, and the shard a library caller may run.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Run only this shard of the case partition; the checkpoint then
    /// covers the shard's case range and merges with its peers' through
    /// [`Checkpoint::merge`]. `None` runs the whole sweep.
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
}

/// The resumable-sweep driver every checkpointed experiment shares:
/// load the checkpoint `spec` names (restoring its cells and skipping
/// the cases they cover), run the remaining cases one case group
/// (`workers × shard_size` cases) at a time, `reduce` each run to its
/// case's cell, and, when `spec` has a path, save the cells after every
/// group, stopping once [`halt_after`](CheckpointSpec::halt_after)
/// saves have landed.
///
/// `reduce` receives the global case index and the case's run, and
/// returns the case's cell. Returns the cells in case order once every
/// case of the *whole run* was reduced, and `None` when the run halted
/// early per the spec (`--halt-after`) **or** ran only a [`ShardRange`]
/// slice — either way the checkpoint then holds everything a later
/// resume (or a [`Checkpoint::merge`] with its peers) needs. A shard
/// run therefore never renders a report of its own: only the merged
/// whole does.
///
/// With `spec.shard` set, the run covers exactly the shard's case
/// range: the case iterator is bounded with
/// [`Sweep::take_range`](crate::sweep::Sweep::take_range), so the lazy
/// grid is never pulled past the shard's end, and every boundary save
/// is cut with [`Checkpoint::for_range`]. Resuming a shard requires
/// the same shard range it was started with.
///
/// Interrupt-at-any-boundary plus resume — under any worker/shard
/// split — is byte-identical to one uninterrupted run, provided `C`'s
/// [`Snapshot`] impl round-trips exactly.
///
/// ```
/// use zen2_sim::checkpoint::run_resumable;
/// use zen2_sim::{Axis, CheckpointSpec, Probe, Scenario, Session, SimConfig, Sweep, Window};
///
/// let mut base = Scenario::new();
/// base.probe("ac", Probe::AcPowerW, Window::at(0));
/// let sweep = Sweep::new("demo", move |_| (SimConfig::epyc_7502_2s(), base.clone()))
///     .seed(7)
///     .axis(Axis::new("rep", 0..3));
/// let cells: Vec<f64> = run_resumable(
///     &sweep,
///     &Session::new().workers(2).shard_size(1),
///     &CheckpointSpec::none(),
///     |_, run| run.watts("ac"),
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
/// Panics with the [`SessionError`](crate::SessionError) message when a
/// case fails validation or panics: an authoring or engine bug, as in
/// an uncheckpointed run.
pub fn run_resumable<C: Snapshot>(
    sweep: &Sweep,
    session: &Session,
    spec: &CheckpointSpec,
    mut reduce: impl FnMut(usize, Run) -> C,
) -> Result<Option<Vec<C>>, CheckpointError> {
    let total = sweep.len();
    let (lo, hi) = spec.shard.map_or((0, total), |shard| shard.bounds(total));
    let mut cells: Vec<C> = Vec::new();
    if let Some(checkpoint) = spec.load(sweep, total)? {
        let (covered_start, covered_done) = checkpoint.covered();
        if covered_start != lo || covered_done > hi {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint covers cases {covered_start}..{covered_done}, this run's shard \
                 is {lo}..{hi} — resume a shard with the same shard range it was \
                 started with"
            )));
        }
        cells = checkpoint.cells()?;
    }
    let start = lo + cells.len();
    let obs = session.obs();
    // Announce the run's extent before streaming: progress sinks need
    // the total (and the resume offset) to show percentages and ETA.
    obs.event(
        EVT_SWEEP_TOTAL,
        &[
            ("sweep", AttrValue::Str(sweep.label())),
            ("total", AttrValue::U64(hi as u64)),
            ("start", AttrValue::U64(start as u64)),
        ],
    );
    let mut pending = sweep.take_range(start, hi - start);
    // On a save error the open spans are left unclosed: the run is
    // aborting, and sinks tolerate it.
    let sweep_span = session.open_sweep(start);
    let mut saves = 0;
    session.pooled(|pool| -> Result<(), CheckpointError> {
        loop {
            let group: Vec<Case> = pending.by_ref().take(session.group_size()).collect();
            if group.is_empty() {
                return Ok(());
            }
            pool.run_group(sweep_span, lo + cells.len(), group, |index, run| {
                cells.push(reduce(index, run));
            })
            .unwrap_or_else(|error| panic!("{error}"));
            // Every case below `next` is reduced and none above it: a
            // consistent cut.
            let Some(path) = &spec.path else { continue };
            let next = lo + cells.len();
            let span =
                obs.open(sweep_span, SPAN_CHECKPOINT, &[("next", AttrValue::U64(next as u64))]);
            let mut checkpoint = Checkpoint::for_range(sweep, total, lo, next);
            checkpoint.set_cells(&cells);
            checkpoint.save(path)?;
            obs.close(span);
            saves += 1;
            if spec.halt_after.is_some_and(|limit| saves >= limit) {
                return Ok(());
            }
        }
    })?;
    obs.close(sweep_span);
    let complete = lo == 0 && cells.len() == total;
    Ok(complete.then_some(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::obs::{Attr, Recorder, SpanId, SPAN_SWEEP};
    use crate::scenario::Scenario;
    use crate::stats::OnlineStats;
    use crate::sweep::Axis;
    use std::sync::Arc;

    fn sweep_3x2() -> Sweep {
        sweep_3x2_of(Scenario::new())
    }

    /// The `sweep_3x2` grid with `scenario` as every case's scenario.
    fn sweep_3x2_of(scenario: Scenario) -> Sweep {
        Sweep::new("ck-test", move |_| (SimConfig::epyc_7502_2s(), scenario.clone()))
            .seed(1)
            .axis(Axis::new("a", [0, 1, 2]))
            .axis(Axis::new("b", [0, 1]))
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zen2-ckpt-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn fnv1a_fmt_hashes_the_formatted_string() {
        let mut sc = Scenario::new();
        sc.at(3).preheat().tracing(true);
        sc.probe("ac", crate::Probe::AcPowerW, crate::Window::at(5));
        let config = SimConfig::epyc_7502_2s();
        let (mut fed, mut formatted) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
        fnv1a_fmt(format_args!("{config:?}|{sc:?}"), &mut fed); // zen2-lint: allow(no-debug-keying) — the adapter under test must hash Debug text
        fnv1a(format!("{config:?}|{sc:?}").as_bytes(), &mut formatted); // zen2-lint: allow(no-debug-keying) — the reference the adapter must match
        assert_eq!(fed, formatted);
    }

    /// A checkpoint of `sweep_3x2` covering `start..done`, each case's
    /// cell an `f64` derived from its index.
    fn covering(start: usize, done: usize) -> Checkpoint {
        let mut ck = Checkpoint::for_range(&sweep_3x2(), 6, start, done);
        ck.set_cells(&(start..done).map(|i| i as f64 * 0.7).collect::<Vec<_>>());
        ck
    }

    /// One instant power read per case: the cheapest scenario a driver
    /// test can stream.
    fn instant_sweep() -> Sweep {
        let mut base = Scenario::new();
        base.probe("ac", crate::probe::Probe::AcPowerW, crate::probe::Window::at(0));
        sweep_3x2_of(base)
    }

    /// The header line of a `sweep_3x2` checkpoint covering `start..done`.
    fn header(start: usize, done: usize) -> String {
        let ck = Checkpoint::for_range(&sweep_3x2(), 6, start, done);
        ck.render().lines().nth(1).unwrap().to_string()
    }

    /// Writes `content` to a scratch file and loads it.
    fn load_text(name: &str, content: &str) -> Result<Checkpoint, CheckpointError> {
        let path = tmp(name);
        std::fs::write(&path, content).unwrap();
        let loaded = Checkpoint::load(&path);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let sweep = sweep_3x2();
        let ck = covering(0, 4);
        let path = tmp("round-trip");
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(loaded, ck);
        assert_eq!((loaded.covered(), loaded.total()), ((0, 4), 6));
        assert!(!loaded.is_complete());
        loaded.matches(&sweep, 6).unwrap();
        assert_eq!(loaded.cells::<f64>().unwrap(), [0.0, 0.7, 1.4, 3.0 * 0.7]);
    }

    #[test]
    fn file_format_is_one_line_per_cell() {
        let text = covering(0, 4).render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], MAGIC);
        assert!(lines[1].starts_with("{\"sweep\":\"ck-test\",\"total\":6,\"start\":0,\"done\":4"));
        // Cases 0..4: one exact-encoded cell per line, in case order.
        assert_eq!(lines[2..], ["0.0", "0.7", "1.4", "2.0999999999999996"]);
    }

    #[test]
    fn mismatched_grids_are_rejected_with_clear_errors() {
        let sweep = sweep_3x2();
        let ck = covering(0, 4);

        // A different sweep label.
        let renamed = Sweep::new("other", |_| (SimConfig::epyc_7502_2s(), Scenario::new()))
            .axis(Axis::new("a", [0, 1, 2]))
            .axis(Axis::new("b", [0, 1]));
        let err = ck.matches(&renamed, 6).unwrap_err();
        assert!(err.to_string().contains("\"other\""), "{err}");

        // A different grid shape (e.g. the scale changed between runs).
        let reshaped = Sweep::new("ck-test", |_| (SimConfig::epyc_7502_2s(), Scenario::new()))
            .axis(Axis::new("a", [0, 1, 2, 3]))
            .axis(Axis::new("b", [0, 1]));
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
        let mut rescaled_base = Scenario::new();
        rescaled_base.probe("ac", crate::probe::Probe::AcPowerW, crate::probe::Window::at(123_456));
        let rescaled = sweep_3x2_of(rescaled_base);
        let err = ck.matches(&rescaled, 6).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");
    }

    #[test]
    fn mistyped_cells_are_malformed_and_name_the_case() {
        // `f64` cells restored as another snapshot type.
        let err = covering(2, 4).cells::<OnlineStats>().unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("cell of case 2"), "{err}");
    }

    #[test]
    fn load_rejects_non_checkpoints_and_torn_lines() {
        for (content, needle) in [
            ("not a checkpoint\n".to_string(), "unsupported version"),
            (format!("{MAGIC}\n"), "missing header"),
            (format!("{MAGIC}\n{{\"sweep\":\"x\"}}\n"), "line 2"),
            (format!("{MAGIC}\n{}\n", header(3, 2)), "line 2: covered range starts at 3"),
            // A torn cell line.
            (format!("{MAGIC}\n{}\n{{\"ac\":1.5\n", header(0, 1)), "line 3"),
            // A v1 file: rejected by the magic, never half-read.
            ("zen2-sweep-checkpoint v1\n{\"sweep\":\"x\"}\n".to_string(), "unsupported version"),
            // A cell nested past the parser's depth bound.
            (
                format!("{MAGIC}\n{}\n{}\n", header(0, 1), "[".repeat(1_000_000)),
                "line 3: nesting deeper than 64 levels",
            ),
        ] {
            let err = load_text("malformed", &content).unwrap_err();
            assert!(matches!(err, CheckpointError::Malformed(_)), "{content:?} → {err:?}");
            assert!(err.to_string().contains(needle), "{content:?} → {err}");
        }
    }

    #[test]
    fn cell_count_must_match_the_covered_range() {
        let full = covering(1, 4).render();
        assert!(load_text("count-ok", &full).is_ok());
        // One cell line too few: the error names the line the missing
        // cell belongs on.
        let lines: Vec<&str> = full.lines().collect();
        let short = format!("{}\n", lines[..lines.len() - 1].join("\n"));
        let err = load_text("count-short", &short).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("line 5: missing cell line"), "{err}");
        // One too many: the error names the extra line.
        let long = format!("{full}9.5\n");
        let err = load_text("count-long", &long).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("line 6: one cell line more"), "{err}");
    }

    #[test]
    fn v2_files_are_refused_by_version() {
        // A v2 file stored a grouped-state shape line plus keyed rows.
        let v2 = "zen2-sweep-checkpoint v2\n\
                  {\"sweep\":\"ck-test\",\"total\":6,\"start\":0,\"done\":1,\"lens\":[3,2],\"fp\":\"00\"}\n\
                  {\"state\":\"grid\",\"shape\":{\"axes\":[],\"positions\":[],\"lens\":[3,2]}}\n\
                  {\"state\":\"grid\",\"row\":{\"key\":[0,0],\"acc\":1.5}}\n";
        let err = load_text("v2", v2).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("\"zen2-sweep-checkpoint v2\""), "{err}");
        assert!(err.to_string().contains("unsupported version"), "{err}");
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
        covering(0, 2).save(&dir.join("x.fig07")).unwrap();
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
        let reduce = |index: usize, _run: Run| index as f64;
        let clean = run_resumable(&sweep, &session, &CheckpointSpec::none(), reduce).unwrap();
        let clean = clean.expect("an uninterrupted run completes");
        assert_eq!(clean, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);

        let path = tmp("driver");
        let spec = CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) };
        assert_eq!(run_resumable(&sweep, &session, &spec, reduce).unwrap(), None);
        assert_eq!(Checkpoint::load(&path).unwrap().cells::<f64>().unwrap(), [0.0, 1.0]);
        let spec = CheckpointSpec::resume_from(&path);
        let resumed = run_resumable(&sweep, &session, &spec, reduce).unwrap();
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
        covering(0, 2).save(&path).unwrap();
        let loaded = CheckpointSpec::resume_from(&path).load(&sweep, 6).unwrap().unwrap();
        assert_eq!(loaded.covered(), (0, 2));
        // …and a total mismatch is surfaced, not ignored.
        assert!(CheckpointSpec::resume_from(&path).load(&sweep, 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Records every span open as `(name, id, parent)`.
    #[derive(Default)]
    struct Spans(std::sync::Mutex<Vec<(&'static str, SpanId, Option<SpanId>)>>);

    impl Recorder for Spans {
        fn span_open(
            &self,
            id: SpanId,
            parent: Option<SpanId>,
            name: &'static str,
            _: &[Attr<'_>],
        ) {
            self.0.lock().unwrap().push((name, id, parent));
        }
        fn span_close(&self, _: SpanId) {}
        fn counter(&self, _: &'static str, _: u64) {}
        fn gauge(&self, _: &'static str, _: f64) {}
        fn observe(&self, _: &'static str, _: f64) {}
        fn event(&self, _: &'static str, _: &[Attr<'_>]) {}
    }

    #[test]
    fn run_resumable_saves_only_with_a_path_each_save_under_the_sweep_span() {
        let sweep = instant_sweep();
        let reduce = |index: usize, _run: Run| index as f64;
        let run = |spec: &CheckpointSpec| {
            let spans = Arc::new(Spans::default());
            let session = Session::new().workers(1).shard_size(2).recorder(spans.clone());
            let cells = run_resumable(&sweep, &session, spec, reduce).unwrap();
            let spans = spans.0.lock().unwrap().clone();
            let sweep_span = spans.iter().find(|(name, ..)| *name == SPAN_SWEEP).map(|s| s.1);
            let saves: Vec<Option<SpanId>> = spans
                .iter()
                .filter(|(name, ..)| *name == SPAN_CHECKPOINT)
                .map(|(.., parent)| *parent)
                .collect();
            (cells, sweep_span, saves)
        };
        // Without a path nothing is written and nothing halts.
        let spec = CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::none() };
        let (cells, _, saves) = run(&spec);
        assert_eq!(cells, Some(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]));
        assert!(saves.is_empty(), "{saves:?}");
        // With one, every case group ends in one save under the sweep.
        let path = tmp("spans");
        let (cells, sweep_span, saves) = run(&CheckpointSpec::at(&path));
        std::fs::remove_file(&path).unwrap();
        assert!(cells.is_some());
        assert!(sweep_span.is_some());
        assert_eq!(saves, [sweep_span; 3]);
    }

    #[test]
    fn an_unwritable_checkpoint_is_one_io_error_naming_the_path() {
        // A checkpoint path under a regular file: its directory cannot
        // be created.
        let file = tmp("notadir");
        std::fs::write(&file, "").unwrap();
        let path = file.join("ck");
        let session = Session::new().workers(1).shard_size(2);
        let spec = CheckpointSpec::at(&path);
        let err = run_resumable(&instant_sweep(), &session, &spec, |_, _| 0.0).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(matches!(err, CheckpointError::Io(_)), "{err:?}");
        let text = err.to_string();
        assert_eq!(text.matches("checkpoint I/O failed").count(), 1, "{text}");
        assert!(text.contains(&path.display().to_string()), "{text}");
    }

    #[test]
    fn shard_ranges_tile_the_grid() {
        assert_eq!(ShardRange { index: 2, of: 3 }.bounds(7), (4, 7));
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
    fn merge_rejects_overlap_gap_and_foreign_checkpoints() {
        let mut m = covering(0, 3);
        let err = m.merge(&covering(2, 5)).unwrap_err();
        assert!(matches!(err, CheckpointError::RangeOverlap(_)), "{err}");
        assert!(err.to_string().contains("0..3"), "{err}");
        let err = m.merge(&covering(4, 6)).unwrap_err();
        assert!(matches!(err, CheckpointError::RangeGap(_)), "{err}");
        // A shard written by a different run of the same grid shape.
        let reseeded = sweep_3x2().seed(2);
        let err = m.merge(&Checkpoint::for_range(&reseeded, 6, 3, 6)).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");
        // On error the target is untouched.
        assert_eq!(m, covering(0, 3));
        // Empty ranges merge trivially, on either side.
        m.merge(&covering(3, 3)).unwrap();
        assert_eq!(m, covering(0, 3));
        let mut empty = covering(6, 6);
        empty.merge(&m).unwrap();
        assert_eq!(empty, m);
    }

    #[test]
    fn three_shards_merged_in_any_order_render_the_clean_file() {
        let sweep = instant_sweep();
        let session = Session::new().workers(2).shard_size(2);
        let reduce = |index: usize, run: Run| run.watts("ac") + index as f64 * 0.3;

        // The single-process reference, checkpointed to the end.
        let clean_path = tmp("shard-clean");
        let spec = CheckpointSpec::at(&clean_path);
        assert!(run_resumable(&sweep, &session, &spec, reduce).unwrap().is_some());
        let clean_text = std::fs::read_to_string(&clean_path).unwrap();
        std::fs::remove_file(&clean_path).unwrap();

        // Three shard runs over the same grid.
        let shards: Vec<Checkpoint> = (0..3)
            .map(|index| {
                let path = tmp(&format!("shard-{index}"));
                let range = ShardRange { index, of: 3 };
                let spec = CheckpointSpec { shard: Some(range), ..CheckpointSpec::at(&path) };
                // A shard never claims the whole run completed.
                assert_eq!(run_resumable(&sweep, &session, &spec, reduce).unwrap(), None);
                let shard = Checkpoint::load(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                assert_eq!(shard.covered(), range.bounds(6));
                shard
            })
            .collect();

        // Merged in every order — a shard not yet adjacent to the
        // merged range waits its turn — the bytes are the clean file's.
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut pending: std::collections::VecDeque<&Checkpoint> =
                order.iter().map(|&i| &shards[i]).collect();
            let mut merged = pending.pop_front().unwrap().clone();
            while let Some(next) = pending.pop_front() {
                match merged.merge(next) {
                    Ok(()) => {}
                    Err(CheckpointError::RangeGap(_)) => pending.push_back(next),
                    Err(e) => panic!("order {order:?}: {e}"),
                }
            }
            assert!(merged.is_complete(), "order {order:?}");
            assert_eq!(merged.render(), clean_text, "order {order:?}");
        }
    }

    #[test]
    fn set_grouped_over_every_axis_saves_the_set_cells_bytes() {
        // perfbench's checkpoint path: a reducer grouped by every axis
        // has one row per case, in case order.
        let sweep = sweep_3x2();
        let mut grouped = GroupedStats::<OnlineStats>::new(&sweep, &["a", "b"]);
        let mut cells = Vec::new();
        for i in 0..sweep.len() {
            grouped.entry(i).push(i as f64 * 1.1);
            let mut cell = OnlineStats::new();
            cell.push(i as f64 * 1.1);
            cells.push(cell);
        }
        let mut via_grouped = Checkpoint::new(&sweep, 6, 6);
        via_grouped.set_grouped("grid", &grouped);
        let mut via_cells = Checkpoint::new(&sweep, 6, 6);
        via_cells.set_cells(&cells);
        assert_eq!(via_grouped.render(), via_cells.render());

        let path = tmp("grouped");
        via_grouped.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.cells::<OnlineStats>().unwrap(), cells);
    }

    #[test]
    fn resuming_a_shard_needs_its_own_range() {
        let sweep = sweep_3x2();
        let path = tmp("shard-resume");
        covering(2, 4).save(&path).unwrap();
        let session = Session::new();
        let spec = |index| CheckpointSpec {
            resume: true,
            shard: Some(ShardRange { index, of: 3 }),
            ..CheckpointSpec::at(&path)
        };
        let nop = |_: usize, _: Run| 0.0;
        let err = run_resumable(&sweep, &session, &spec(0), nop).unwrap_err();
        assert!(err.to_string().contains("the same shard range it was started with"), "{err}");
        // The matching shard resumes; its range is already complete, so
        // nothing streams and the whole run is still unfinished.
        assert_eq!(run_resumable(&sweep, &session, &spec(1), nop).unwrap(), None);
        std::fs::remove_file(&path).unwrap();

        // A shard halted after its first save resumes, under its own
        // range and another split, to an uninterrupted shard run's bytes.
        let sweep = instant_sweep();
        let reduce = |index: usize, run: Run| run.watts("ac") + index as f64 * 0.3;
        for index in 0..3 {
            let range = ShardRange { index, of: 3 };
            let (lo, _) = range.bounds(sweep.len());
            let shard_at =
                |path: &Path| CheckpointSpec { shard: Some(range), ..CheckpointSpec::at(path) };
            let clean_path = tmp(&format!("shard-clean-{index}"));
            run_resumable(&sweep, &session, &shard_at(&clean_path), reduce).unwrap();
            let clean = std::fs::read_to_string(&clean_path).unwrap();
            std::fs::remove_file(&clean_path).unwrap();

            let path = tmp(&format!("shard-halted-{index}"));
            let halted = CheckpointSpec { halt_after: Some(1), ..shard_at(&path) };
            let one_case = Session::new().workers(1).shard_size(1);
            assert_eq!(run_resumable(&sweep, &one_case, &halted, reduce).unwrap(), None);
            assert_eq!(Checkpoint::load(&path).unwrap().covered(), (lo, lo + 1), "shard {index}");
            let resume = CheckpointSpec { resume: true, ..shard_at(&path) };
            let split = Session::new().workers(2).shard_size(3);
            run_resumable(&sweep, &split, &resume, reduce).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), clean, "shard {index}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
