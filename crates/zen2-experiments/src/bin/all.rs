//! Runs every experiment of the `zen2_experiments` table, under the
//! table's `all` seeds, and prints the full paper-vs-measured report.
//! Pass `--paper` for the paper's full sample counts (slow); `--json`
//! emits every experiment's summary tables as one machine-readable
//! JSON array (text mode still prints each report as it completes).
//!
//! `--checkpoint <prefix>` / `--resume` make the wide-grid experiments
//! interruptible: each keeps its own file (`<prefix>-fig06`,
//! `<prefix>-fig09`, …), so a killed `--paper` suite resumed with the
//! same flags re-runs only the unfinished grid and re-emits the
//! finished ones from their checkpoints (see `docs/SWEEPS.md`; the
//! single-file testing aid `--halt-after` is dropped here).
//!
//! `--progress` prints a per-experiment banner plus heartbeat lines
//! (`done/total … cases/s … eta`) on stderr, so a long `--paper` run is
//! never silent; `--obs <path>` additionally writes one shared JSONL
//! telemetry trace covering every sweep and prints an aggregate summary
//! table at the end (see `docs/OBSERVABILITY.md`). Neither flag can
//! change results.
fn main() {
    zen2_experiments::main("all");
}
