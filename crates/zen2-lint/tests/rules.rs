//! Fixture-based self-tests: every rule must fire on its injected
//! violation, stay quiet on the clean variant, and respect a justified
//! inline suppression. Fixtures live under `tests/fixtures/` and are
//! excluded from the workspace scan, so the deliberate violations in
//! them never fail the real tree.

use zen2_lint::{check_files, ratchet, CheckContext, Report, SourceFile};

/// Runs the full engine over one fixture pretending to live at `rel`.
fn check_at(rel: &str, text: &str) -> Report {
    check_files(&[SourceFile::parse(rel, text)], &CheckContext::local(ratchet::Baseline::empty()))
}

fn rule_lines(report: &Report, rule: &str) -> Vec<usize> {
    report.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

/// Asserts the (flagged, clean, suppressed) triple for a rule: the
/// flagged fixture fires on exactly `lines`, the clean one is silent,
/// and the suppressed one is silent *because of* its annotation.
fn assert_triple(
    rule: &str,
    rel: &str,
    flagged: &str,
    clean: &str,
    suppressed: &str,
    lines: &[usize],
) {
    let f = check_at(rel, flagged);
    assert_eq!(rule_lines(&f, rule), lines, "{rule}: flagged fixture");
    assert!(f.suppressed == 0, "{rule}: flagged fixture has no annotations");

    let c = check_at(rel, clean);
    assert!(c.is_clean(), "{rule}: clean fixture should pass, got:\n{}", c.render());

    let s = check_at(rel, suppressed);
    assert!(s.is_clean(), "{rule}: suppressed fixture should pass, got:\n{}", s.render());
    assert!(s.suppressed > 0, "{rule}: the suppression must actually be exercised");
}

#[test]
fn no_wallclock_triple() {
    assert_triple(
        "no-wallclock",
        "crates/zen2-sim/src/fixture.rs",
        include_str!("fixtures/no_wallclock/flagged.rs"),
        include_str!("fixtures/no_wallclock/clean.rs"),
        include_str!("fixtures/no_wallclock/suppressed.rs"),
        &[1, 4, 5],
    );
}

#[test]
fn no_wallclock_allowlist_is_one_file() {
    let flagged = include_str!("fixtures/no_wallclock/flagged.rs");

    // The telemetry clock module is the single blessed reader.
    let clock = check_at("crates/zen2-obs/src/clock.rs", flagged);
    assert!(clock.is_clean(), "zen2_obs::clock owns the wall clock:\n{}", clock.render());

    // Its siblings are not: sinks must take timestamps from `clock`.
    let sibling = check_at("crates/zen2-obs/src/jsonl.rs", flagged);
    assert_eq!(rule_lines(&sibling, "no-wallclock"), [1, 4, 5], "obs sinks go through clock");

    // Neither is the bench crate, which used to be allowlisted whole.
    let bench = check_at("crates/zen2-bench/benches/fixture.rs", flagged);
    assert_eq!(rule_lines(&bench, "no-wallclock"), [1, 4, 5], "benches go through clock too");
}

#[test]
fn no_thread_escape_triple() {
    assert_triple(
        "no-thread-escape",
        "crates/zen2-experiments/src/fixture.rs",
        include_str!("fixtures/no_thread_escape/flagged.rs"),
        include_str!("fixtures/no_thread_escape/clean.rs"),
        include_str!("fixtures/no_thread_escape/suppressed.rs"),
        &[4, 5],
    );
}

#[test]
fn no_thread_escape_session_is_home() {
    let report = check_at(
        "crates/zen2-sim/src/session.rs",
        include_str!("fixtures/no_thread_escape/flagged.rs"),
    );
    assert!(
        rule_lines(&report, "no-thread-escape").is_empty(),
        "session.rs owns the worker pool:\n{}",
        report.render()
    );
}

#[test]
fn no_unordered_iteration_triple() {
    // The `use` line must NOT be flagged — only construction sites.
    assert_triple(
        "no-unordered-iteration",
        "crates/zen2-experiments/src/fixture.rs",
        include_str!("fixtures/no_unordered_iteration/flagged.rs"),
        include_str!("fixtures/no_unordered_iteration/clean.rs"),
        include_str!("fixtures/no_unordered_iteration/suppressed.rs"),
        &[4],
    );
}

#[test]
fn no_unordered_iteration_scoped_to_result_crates() {
    let report = check_at(
        "crates/zen2-rapl/src/fixture.rs",
        include_str!("fixtures/no_unordered_iteration/flagged.rs"),
    );
    assert!(report.is_clean(), "non-result crates are out of scope:\n{}", report.render());
}

#[test]
fn no_debug_keying_triple() {
    assert_triple(
        "no-debug-keying",
        "crates/zen2-sim/src/fixture.rs",
        include_str!("fixtures/no_debug_keying/flagged.rs"),
        include_str!("fixtures/no_debug_keying/clean.rs"),
        include_str!("fixtures/no_debug_keying/suppressed.rs"),
        &[4, 5, 7],
    );
}

#[test]
fn snapshot_coverage_triple() {
    assert_triple(
        "snapshot-coverage",
        "crates/zen2-experiments/src/fixture.rs",
        include_str!("fixtures/snapshot_coverage/flagged.rs"),
        include_str!("fixtures/snapshot_coverage/clean.rs"),
        include_str!("fixtures/snapshot_coverage/suppressed.rs"),
        &[5],
    );
}

#[test]
fn snapshot_coverage_sees_impls_across_files() {
    // The impl may live in any other scanned file.
    let use_site = SourceFile::parse(
        "crates/zen2-experiments/src/fixture.rs",
        include_str!("fixtures/snapshot_coverage/flagged.rs"),
    );
    let impl_site =
        SourceFile::parse("crates/zen2-sim/src/elsewhere.rs", "impl Snapshot for Novel {}\n");
    let report =
        check_files(&[use_site, impl_site], &CheckContext::local(ratchet::Baseline::empty()));
    assert!(report.is_clean(), "cross-file impl must satisfy the rule:\n{}", report.render());
}

#[test]
fn panic_ratchet_pins_counts_exactly() {
    let rel = "crates/zen2-sim/src/fixture.rs";
    let text = include_str!("fixtures/panic_ratchet/two_sites.rs");
    let entry = |n: usize| {
        ratchet::parse(&format!("{rel} = {n}  # fixture invariants\n")).expect("valid baseline")
    };

    // Exact match (test-module unwrap excluded): clean.
    let ok = check_files(&[SourceFile::parse(rel, text)], &CheckContext::local(entry(2)));
    assert!(ok.is_clean(), "exact ceiling should pass:\n{}", ok.render());

    // No entry at all: flagged.
    let none = check_at(rel, text);
    assert_eq!(rule_lines(&none, "panic-ratchet"), [2]);

    // Growth past the ceiling: flagged.
    let grew = check_files(&[SourceFile::parse(rel, text)], &CheckContext::local(entry(1)));
    assert_eq!(rule_lines(&grew, "panic-ratchet"), [2]);
    assert!(grew.findings[0].message.contains("grew"));

    // Shrinkage below the pin: flagged, telling you to tighten.
    let shrank = check_files(&[SourceFile::parse(rel, text)], &CheckContext::local(entry(3)));
    assert_eq!(rule_lines(&shrank, "panic-ratchet"), [2]);
    assert!(shrank.findings[0].message.contains("tighten"));
}

#[test]
fn panic_ratchet_flags_stale_and_unexplained_entries() {
    let clean_file = SourceFile::parse("crates/zen2-sim/src/fixture.rs", "fn ok() {}\n");
    let baseline = ratchet::parse(
        "crates/zen2-sim/src/gone.rs = 2  # TODO: explain why these panic sites are acceptable\n",
    )
    .expect("valid baseline");
    let report = check_files(&[clean_file], &CheckContext::local(baseline));
    let messages: Vec<_> = report.findings.iter().map(|f| (f.rule, f.message.as_str())).collect();
    assert!(
        messages.iter().any(|(r, m)| *r == "panic-ratchet" && m.contains("stale")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|(r, m)| *r == "panic-ratchet" && m.contains("unexplained")),
        "{messages:?}"
    );
}

#[test]
fn malformed_and_unused_annotations_are_findings() {
    let bad = check_at(
        "crates/zen2-sim/src/fixture.rs",
        include_str!("fixtures/suppression/malformed.rs"),
    );
    assert_eq!(rule_lines(&bad, "suppression"), [2, 7], "{}", bad.render());

    let unused =
        check_at("crates/zen2-sim/src/fixture.rs", include_str!("fixtures/suppression/unused.rs"));
    assert_eq!(rule_lines(&unused, "suppression"), [2], "{}", unused.render());
    assert!(unused.findings[0].message.contains("unused"));
}

#[test]
fn seed_discipline_triple() {
    assert_triple(
        "seed-discipline",
        "crates/zen2-sim/src/fixture.rs",
        include_str!("fixtures/seed_discipline/flagged.rs"),
        include_str!("fixtures/seed_discipline/clean.rs"),
        include_str!("fixtures/seed_discipline/suppressed.rs"),
        &[2, 3],
    );
}

#[test]
fn seed_discipline_covers_power_but_not_infra_crates() {
    let flagged = include_str!("fixtures/seed_discipline/flagged.rs");
    let power = check_at("crates/zen2-power/src/fixture.rs", flagged);
    assert_eq!(rule_lines(&power, "seed-discipline"), [2, 3], "zen2-power is in seed scope");
    let infra = check_at("crates/zen2-rapl/src/fixture.rs", flagged);
    assert!(infra.is_clean(), "infra crates are out of seed scope:\n{}", infra.render());
}

#[test]
fn float_order_triple() {
    assert_triple(
        "float-order",
        "crates/zen2-sim/src/fixture.rs",
        include_str!("fixtures/float_order/flagged.rs"),
        include_str!("fixtures/float_order/clean.rs"),
        include_str!("fixtures/float_order/suppressed.rs"),
        &[2, 3, 6],
    );
}

#[test]
fn float_order_blesses_stats_home_and_skips_infra() {
    let flagged = include_str!("fixtures/float_order/flagged.rs");
    let home = check_at("crates/zen2-sim/src/stats.rs", flagged);
    assert!(home.is_clean(), "stats.rs is the blessed home:\n{}", home.render());
    let infra = check_at("crates/zen2-rapl/src/fixture.rs", flagged);
    assert!(infra.is_clean(), "infra crates are out of scope:\n{}", infra.render());
}

// ---- snapshot-schema: the lock must pin key sets and order against ----
// ---- the checkpoint format version.                                ----

/// A miniature workspace: one MAGIC, one Snapshot impl.
fn schema_files(magic: &str, body: &str) -> Vec<SourceFile> {
    let text = format!(
        "pub const MAGIC: &str = \"{magic}\";\npub struct W {{ n: u64 }}\nimpl Snapshot for W {{\n    fn snapshot(&self) -> Json {{\n        {body}\n    }}\n}}\n"
    );
    vec![SourceFile::parse("crates/zen2-sim/src/fixture.rs", &text)]
}

fn schema_ctx(lock: Option<zen2_lint::schema::Lock>) -> CheckContext {
    CheckContext { ratchet: ratchet::Baseline::empty(), deadpub: None, schema_lock: Some(lock) }
}

#[test]
fn snapshot_schema_locks_then_detects_field_reorder() {
    use zen2_lint::schema;

    let v1 = schema_files("ck v1", "Json::obj([(\"count\", a), (\"mean\", b)])");
    let lock = schema::parse_lock(&schema::render_lock(&schema::extract(&v1), None))
        .expect("generated lock parses");
    let ok = check_files(&v1, &schema_ctx(Some(lock.clone())));
    assert!(ok.is_clean(), "fresh lock should pass:\n{}", ok.render());

    // Deliberate field reorder, same format version: drift must fail
    // the check and point at the MAGIC bump.
    let reordered = schema_files("ck v1", "Json::obj([(\"mean\", b), (\"count\", a)])");
    let drift = check_files(&reordered, &schema_ctx(Some(lock.clone())));
    assert_eq!(rule_lines(&drift, "snapshot-schema").len(), 1, "{}", drift.render());
    assert!(drift.findings[0].message.contains("bump MAGIC"), "{}", drift.render());

    // Regeneration refuses under the unchanged version…
    let blockers = schema::regeneration_blockers(&schema::extract(&reordered), &lock);
    assert!(!blockers.is_empty(), "same-version drift must block regeneration");

    // …and a version bump unlocks it: regenerate, check passes again.
    let bumped = schema_files("ck v2", "Json::obj([(\"mean\", b), (\"count\", a)])");
    let ex2 = schema::extract(&bumped);
    let mismatch = check_files(&bumped, &schema_ctx(Some(lock.clone())));
    assert_eq!(rule_lines(&mismatch, "snapshot-schema").len(), 1, "{}", mismatch.render());
    assert!(schema::regeneration_blockers(&ex2, &lock).is_empty(), "bump unlocks regeneration");
    let lock2 = schema::parse_lock(&schema::render_lock(&ex2, Some(&lock))).expect("new lock");
    let ok2 = check_files(&bumped, &schema_ctx(Some(lock2)));
    assert!(ok2.is_clean(), "regenerated lock should pass:\n{}", ok2.render());
}

#[test]
fn snapshot_schema_missing_lock_and_new_impl_are_findings() {
    let v1 = schema_files("ck v1", "Json::obj([(\"count\", a)])");
    let missing = check_files(&v1, &schema_ctx(None));
    assert_eq!(rule_lines(&missing, "snapshot-schema"), [1], "{}", missing.render());
    assert!(missing.findings[0].message.contains("missing"));

    // A lock that has never seen this impl: the new entry is a finding
    // at the impl's source line.
    let empty = zen2_lint::schema::parse_lock("format = ck v1\n").expect("minimal lock");
    let fresh = check_files(&v1, &schema_ctx(Some(empty)));
    assert_eq!(rule_lines(&fresh, "snapshot-schema"), [5], "{}", fresh.render());
}

#[test]
fn snapshot_schema_regeneration_preserves_comments() {
    use zen2_lint::schema;
    let v1 = schema_files("ck v1", "Json::obj([(\"count\", a)])");
    let ex = schema::extract(&v1);
    let first = schema::render_lock(&ex, None);
    let annotated = first.replace(" = {count}", " = {count}  # counts only; mean lives in Welford");
    let prior = schema::parse_lock(&annotated).expect("annotated lock parses");
    let again = schema::render_lock(&ex, Some(&prior));
    assert!(
        again.contains("# counts only; mean lives in Welford"),
        "entry comments must survive regeneration:\n{again}"
    );
}

// ---- dead-pub: the reachability ratchet must fail on growth and on ----
// ---- shrinkage (stale entries), and reject unexplained keeps.      ----

fn deadpub_files() -> Vec<SourceFile> {
    let lib = "pub fn used() {}\npub fn orphan() {}\n";
    let root = "fn main() { used(); }\n";
    vec![
        SourceFile::parse("crates/zen2-sim/src/fixture.rs", lib),
        SourceFile::parse("crates/zen2-sim/src/main.rs", root),
    ]
}

fn deadpub_ctx(baseline: &str) -> CheckContext {
    CheckContext {
        ratchet: ratchet::Baseline::empty(),
        deadpub: Some(zen2_lint::deadpub::parse(baseline).expect("valid baseline")),
        schema_lock: None,
    }
}

#[test]
fn dead_pub_ratchet_growth_and_shrinkage() {
    // Growth: an unlisted dead item fails at its definition line.
    let grew = check_files(&deadpub_files(), &deadpub_ctx(""));
    assert_eq!(rule_lines(&grew, "dead-pub"), [2], "{}", grew.render());
    assert!(grew.findings[0].message.contains("orphan"));

    // A reasoned entry passes.
    let kept = check_files(
        &deadpub_files(),
        &deadpub_ctx("crates/zen2-sim/src/fixture.rs::orphan = kept  # exercised by ops scripts\n"),
    );
    assert!(kept.is_clean(), "reasoned keep should pass:\n{}", kept.render());

    // A TODO reason does not count.
    let todo = check_files(
        &deadpub_files(),
        &deadpub_ctx("crates/zen2-sim/src/fixture.rs::orphan = kept  # TODO: justify\n"),
    );
    assert_eq!(rule_lines(&todo, "dead-pub"), [2], "{}", todo.render());
    assert!(todo.findings[0].message.contains("unexplained"));

    // Shrinkage: an entry whose item became reachable again is stale.
    let stale = check_files(
        &deadpub_files(),
        &deadpub_ctx(
            "crates/zen2-sim/src/fixture.rs::orphan = kept  # exercised by ops scripts\ncrates/zen2-sim/src/fixture.rs::used = kept  # left over\n",
        ),
    );
    assert_eq!(rule_lines(&stale, "dead-pub"), [1], "{}", stale.render());
    assert!(stale.findings[0].message.contains("stale"));
    assert_eq!(stale.findings[0].rel, "zen2-lint.deadpub");
}

#[test]
fn dead_pub_roots_reach_through_impls_and_doctests() {
    // An impl of a live type keeps what its body references alive.
    let lib =
        "pub struct Live;\npub fn helper() {}\nimpl Live {\n    pub fn go() { helper(); }\n}\n";
    let root = "fn main() { Live::go(); }\n";
    let files = vec![
        SourceFile::parse("crates/zen2-sim/src/fixture.rs", lib),
        SourceFile::parse("crates/zen2-sim/src/main.rs", root),
    ];
    let report = check_files(&files, &deadpub_ctx(""));
    assert!(report.is_clean(), "impl bodies propagate liveness:\n{}", report.render());

    // A doctest fence is a root: `fenced` is only used there.
    let doc = "/// ```\n/// fenced();\n/// ```\npub fn fenced() {}\n";
    let files = vec![
        SourceFile::parse("crates/zen2-sim/src/fixture.rs", doc),
        SourceFile::parse("crates/zen2-sim/src/main.rs", "fn main() {}\n"),
    ];
    let report = check_files(&files, &deadpub_ctx(""));
    assert!(report.is_clean(), "doctests exercise API:\n{}", report.render());
}
