//! Regenerates the §VII RAPL update-rate measurement: one case on the
//! flags' session that polls the package-energy MSR every 50 µs.
//! `--json` emits the summary tables as machine-readable JSON.
fn main() {
    zen2_experiments::main("sec7");
}
