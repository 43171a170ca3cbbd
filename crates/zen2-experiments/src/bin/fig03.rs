//! Regenerates Fig. 3 (transition-delay histogram) and the §V-B anomaly.
//! `--paper` runs the full 100 000 samples; `--anomaly` adds the
//! 2.2↔2.5 GHz sweeps; `--json` emits the summary tables as
//! machine-readable JSON.
fn main() {
    zen2_experiments::main("fig03");
}
