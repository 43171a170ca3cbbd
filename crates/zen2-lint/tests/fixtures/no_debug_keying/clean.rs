fn describe(cfg: &[u32]) -> String {
    // Debug formatting for display (logs, error messages) is fine.
    format!("cfg = {:?}", cfg)
}

fn show(cfg: &[u32]) {
    println!("{}", format_args!("cfg = {:?}", cfg));
}
