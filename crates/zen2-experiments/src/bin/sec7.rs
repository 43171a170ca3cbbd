//! Regenerates the §VII RAPL update-rate measurement.
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("sec7");
}
