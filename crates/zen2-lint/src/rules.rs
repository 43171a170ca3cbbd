//! The rule set: each rule targets a hazard class that has broken (or
//! could silently break) the workspace determinism contract.
//!
//! Rules are token-scoped — they run over the lexed token stream of
//! each file ([`crate::SourceFile`]), never over raw text, so nothing
//! fires inside comments, docs, or string literals. `docs/LINTS.md` is
//! the user-facing catalog; keep the two in sync.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::ratchet::Baseline;
use crate::{Finding, SourceFile};

pub const NO_WALLCLOCK: &str = "no-wallclock";
pub const NO_THREAD_ESCAPE: &str = "no-thread-escape";
pub const NO_UNORDERED_ITERATION: &str = "no-unordered-iteration";
pub const NO_DEBUG_KEYING: &str = "no-debug-keying";
pub const SNAPSHOT_COVERAGE: &str = "snapshot-coverage";
pub const PANIC_RATCHET: &str = "panic-ratchet";
pub const SEED_DISCIPLINE: &str = "seed-discipline";
pub const FLOAT_ORDER: &str = "float-order";
pub const SNAPSHOT_SCHEMA: &str = "snapshot-schema";
pub const DEAD_PUB: &str = "dead-pub";
/// Engine-level findings about the suppression comments themselves.
pub const SUPPRESSION: &str = "suppression";

/// Every rule name, for validating `allow(…)` lists.
pub const ALL_RULES: &[&str] = &[
    NO_WALLCLOCK,
    NO_THREAD_ESCAPE,
    NO_UNORDERED_ITERATION,
    NO_DEBUG_KEYING,
    SNAPSHOT_COVERAGE,
    PANIC_RATCHET,
    SEED_DISCIPLINE,
    FLOAT_ORDER,
    SNAPSHOT_SCHEMA,
    DEAD_PUB,
    SUPPRESSION,
];

/// The one file allowed to read the wall clock: every timestamp a
/// telemetry sink (or a bench timer) wants goes through
/// `zen2_obs::clock`, so host time stays structurally unable to reach
/// a result.
const WALLCLOCK_ALLOWLIST: &[&str] = &["crates/zen2-obs/src/clock.rs"];

/// The one file allowed to spawn OS threads: `Session` owns the worker
/// pool, and determinism rests on it being the only spawner.
const THREAD_HOME: &str = "crates/zen2-sim/src/session.rs";

/// Crates whose output is (or feeds) published results; unordered
/// iteration there is a reproducibility hazard even in tests, where it
/// shows up as flakiness.
pub const RESULT_CRATES: &[&str] = &["crates/zen2-sim/", "crates/zen2-experiments/"];

/// Identifiers that mark a `format!("{:?}…")` value as being used for
/// identity rather than display when they appear earlier in the same
/// statement. Structural sinks only — names like `key`/`fingerprint`
/// as plain variables false-positive on Debug in error messages.
const IDENTITY_SINKS: &[&str] = &[
    "insert",
    "entry",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "hash",
    "fnv1a",
    "fnv1a_fmt",
];

/// Runs every single-file rule on `f`.
pub fn lint_file(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    no_wallclock(f, &mut out);
    no_thread_escape(f, &mut out);
    no_unordered_iteration(f, &mut out);
    no_debug_keying(f, &mut out);
    crate::semantic::seed_discipline(f, &mut out);
    crate::semantic::float_order(f, &mut out);
    out
}

/// True when `tokens[i..]` matches `pat` as code (idents/punctuation),
/// never inside string or char literal tokens.
pub(crate) fn seq(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > tokens.len() {
        return false;
    }
    pat.iter()
        .zip(&tokens[i..])
        .all(|(want, t)| matches!(t.kind, TokenKind::Ident | TokenKind::Punct) && t.text == *want)
}

pub(crate) fn is_code_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

/// Index of the first token of the statement containing `tokens[i]`
/// (the token after the nearest preceding `;`, `{`, or `}`).
pub(crate) fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut k = i;
    while k > 0 {
        let prev = &tokens[k - 1];
        if prev.kind == TokenKind::Punct && matches!(prev.text.as_str(), ";" | "{" | "}") {
            break;
        }
        k -= 1;
    }
    k
}

/// True when `tokens[i]` sits inside a `use …;` item.
fn in_use_statement(tokens: &[Token], i: usize) -> bool {
    let start = statement_start(tokens, i);
    is_code_ident(&tokens[start], "use")
        || (is_code_ident(&tokens[start], "pub")
            && tokens.get(start + 1).is_some_and(|t| is_code_ident(t, "use")))
}

/// no-wallclock: `std::time::Instant` / `SystemTime` are forbidden —
/// simulated time must flow through `zen2-sim::time` (`Ns`), or results
/// become a function of host load. `zen2-sim`'s own `Instant` alias
/// (`time::Instant = Ns`) is virtual time and is not flagged.
fn no_wallclock(f: &SourceFile, out: &mut Vec<Finding>) {
    if WALLCLOCK_ALLOWLIST.iter().any(|p| f.rel.starts_with(p)) {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if is_code_ident(t, "SystemTime") {
            out.push(f.finding(
                NO_WALLCLOCK,
                t.line,
                "SystemTime reads the host clock; sim time must come from zen2-sim::time",
            ));
        }
        if seq(toks, i, &["Instant", "::", "now"]) {
            out.push(f.finding(
                NO_WALLCLOCK,
                t.line,
                "Instant::now() reads the host clock; sim time must come from zen2-sim::time",
            ));
        }
        if seq(toks, i, &["std", "::", "time"]) {
            // Scan the rest of the statement (a `use` list or a path
            // expression) for `Instant` — `SystemTime` is already
            // caught by the bare-ident check above. `std::time::Duration`
            // alone is a span, not a clock read, and stays legal. A `{`
            // that is part of the path (`use std::time::{…}`) is
            // entered; a block-opening `{` ends the statement.
            let mut prev = "";
            for t2 in &toks[i + 3..] {
                if t2.kind == TokenKind::Punct
                    && (t2.text == ";" || (t2.text == "{" && prev != "::"))
                {
                    break;
                }
                if t2.kind == TokenKind::Ident && t2.text == "Instant" {
                    out.push(f.finding(
                        NO_WALLCLOCK,
                        t2.line,
                        "std::time clock type in scope; use zen2-sim::time (Ns) for anything that can reach a result",
                    ));
                    break;
                }
                prev = t2.text.as_str();
            }
        }
    }
}

/// no-thread-escape: `thread::spawn` / `scope` / `Builder` outside
/// `session.rs`. Threads spawned elsewhere bypass `Session`'s ordered
/// delivery and reintroduce schedule-dependent results (the pre-PR 2
/// world).
fn no_thread_escape(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel == THREAD_HOME {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        for tail in ["spawn", "scope", "Builder"] {
            if seq(toks, i, &["thread", "::", tail]) {
                out.push(f.finding(
                    NO_THREAD_ESCAPE,
                    toks[i].line,
                    format!(
                        "thread::{tail} outside {THREAD_HOME}: all parallelism must go through Session so worker count cannot affect results"
                    ),
                ));
            }
        }
    }
}

/// no-unordered-iteration: `HashMap`/`HashSet` anywhere in a
/// result-producing crate. Iteration order is randomized per process,
/// so any traversal that reaches output (or a test assertion) is
/// nondeterministic. The lexer cannot prove a use is membership-only —
/// that's what the inline suppression (with a reason) is for. `use`
/// items are not flagged; the construction site is the hazard.
fn no_unordered_iteration(f: &SourceFile, out: &mut Vec<Finding>) {
    if !RESULT_CRATES.iter().any(|p| f.rel.starts_with(p)) {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if (is_code_ident(t, "HashMap") || is_code_ident(t, "HashSet"))
            && !in_use_statement(toks, i)
        {
            out.push(f.finding(
                NO_UNORDERED_ITERATION,
                t.line,
                format!(
                    "{} in a result-producing crate: iteration order is nondeterministic — use BTreeMap/BTreeSet/Vec, or suppress with a membership-only reason",
                    t.text
                ),
            ));
        }
    }
}

/// no-debug-keying: a `format!("…{:?}…")` or `format_args!("…{:?}…")`
/// value used as a key, hash input, or identity in the same statement.
/// Debug output is not a stable identity (field order, float rendering,
/// and derive output all shift under refactors) — the exact bug behind
/// the `Session` keying fix that replaced Debug-string keys. Structural
/// keys (`Eq`/`Hash` on the type) are the fix.
fn no_debug_keying(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !seq(toks, i, &["format", "!", "("]) && !seq(toks, i, &["format_args", "!", "("]) {
            continue;
        }
        let Some(lit) = toks.get(i + 3) else { continue };
        if lit.kind != TokenKind::Str || !(lit.text.contains(":?}") || lit.text.contains("#?}")) {
            continue;
        }
        let start = statement_start(toks, i);
        let sinky = toks[start..i]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && IDENTITY_SINKS.contains(&t.text.as_str()));
        if sinky {
            out.push(f.finding(
                NO_DEBUG_KEYING,
                toks[i].line,
                "Debug formatting used as a key/identity: {:?} output is not a stable identity — key on the value itself (derive Eq/Hash) instead",
            ));
        }
    }
}

/// snapshot-coverage (cross-file): every concrete accumulator type that
/// appears inside a `GroupedStats<…>` type expression must have an
/// `impl Snapshot` somewhere in the workspace.
/// Without one the experiment compiles but can never be checkpointed,
/// and the gap only surfaces when a long sweep tries to save.
pub fn snapshot_coverage(files: &[SourceFile]) -> Vec<Finding> {
    let mut impls: BTreeSet<String> = BTreeSet::new();
    for f in files {
        collect_snapshot_impls(&f.tokens, &mut impls);
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for f in files {
        for (name, line) in grouped_accumulator_types(&f.tokens) {
            if impls.contains(&name) || looks_like_generic_param(&name) {
                continue;
            }
            if seen.insert((f.rel.clone(), line, name.clone())) {
                out.push(f.finding(
                    SNAPSHOT_COVERAGE,
                    line,
                    format!(
                        "`{name}` is used as a GroupedStats accumulator but no `impl Snapshot for {name}` exists in the workspace — it cannot be checkpointed"
                    ),
                ));
            }
        }
    }
    out
}

/// A short all-uppercase identifier is a generic parameter (`A`, `T`),
/// not a concrete accumulator type.
fn looks_like_generic_param(name: &str) -> bool {
    name.len() <= 2 && name.chars().all(|c| c.is_ascii_uppercase())
}

/// Records the target base type of every `impl … Snapshot for X<…>`.
fn collect_snapshot_impls(toks: &[Token], impls: &mut BTreeSet<String>) {
    for i in 0..toks.len() {
        if !is_code_ident(&toks[i], "impl") {
            continue;
        }
        let mut j = i + 1;
        // Skip the generics list, if any.
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Trait path: idents and `::` until the `for` keyword; the last
        // segment must be `Snapshot`. (Keywords lex as plain idents, so
        // `for` must be an explicit stop.)
        let mut last = None;
        while let Some(t) = toks.get(j) {
            if is_code_ident(t, "for") || is_code_ident(t, "where") {
                break;
            }
            if t.kind == TokenKind::Ident {
                last = Some(t.text.as_str());
                j += 1;
            } else if t.text == "::" {
                j += 1;
            } else {
                break;
            }
        }
        if last != Some("Snapshot") || !toks.get(j).is_some_and(|t| is_code_ident(t, "for")) {
            continue;
        }
        // Target type: the last ident of its leading path.
        j += 1;
        let mut target = None;
        while let Some(t) = toks.get(j) {
            if is_code_ident(t, "where") {
                break;
            }
            if t.kind == TokenKind::Ident {
                target = Some(t.text.clone());
                j += 1;
            } else if t.text == "::" {
                j += 1;
            } else {
                break;
            }
        }
        if let Some(t) = target {
            impls.insert(t);
        }
    }
}

/// Concrete type idents inside every `GroupedStats<…>` (or turbofish
/// `GroupedStats::<…>`) type expression, with the line they appear on.
/// Path-prefix segments (`stats::Welford` → `stats`) are skipped.
fn grouped_accumulator_types(toks: &[Token]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_code_ident(&toks[i], "GroupedStats") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "::") {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "<") {
            continue;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    let next_is_path = toks.get(j + 1).is_some_and(|n| n.text == "::");
                    if t.kind == TokenKind::Ident
                        && !next_is_path
                        && !matches!(t.text.as_str(), "dyn" | "impl")
                    {
                        out.push((t.text.clone(), t.line));
                    }
                }
            }
            j += 1;
        }
    }
    out
}

/// Per-file `unwrap()`/`expect(` counts in `zen2-sim` non-test code,
/// with the line of the first occurrence. This is what the ratchet file
/// pins.
pub fn panic_counts(files: &[SourceFile]) -> BTreeMap<String, (usize, usize)> {
    let mut counts = BTreeMap::new();
    for f in files {
        if !f.rel.starts_with("crates/zen2-sim/src/") || f.is_test_file() {
            continue;
        }
        let mut n = 0;
        let mut first = 0;
        let toks = &f.tokens;
        for i in 0..toks.len() {
            // `self.expect(…)` is a method the type defines (e.g. the
            // snapshot JSON parser's Result-returning token matcher),
            // not Option/Result::expect — `self` is never an Option
            // here, so it cannot be a panic site.
            let own_method = (i >= 2 && seq(toks, i - 2, &["self", "."]))
                || (i >= 1 && is_code_ident(&toks[i - 1], "fn"));
            let hit = (seq(toks, i, &["unwrap", "("]) || seq(toks, i, &["expect", "("]))
                && !own_method
                && !f.is_test_code(toks[i].line);
            if hit {
                n += 1;
                if first == 0 {
                    first = toks[i].line;
                }
            }
        }
        if n > 0 {
            counts.insert(f.rel.clone(), (n, first));
        }
    }
    counts
}

/// panic-ratchet: per-file `unwrap()`/`expect()` ceilings for
/// `zen2-sim` non-test code, pinned exactly by `zen2-lint.ratchet`.
/// Growth fails; shrinkage also fails (run `zen2-lint baseline` to
/// tighten), so the committed file always matches reality and every
/// remaining panic site stays justified. Not inline-suppressible —
/// the ratchet file is the single ledger.
pub fn panic_ratchet(files: &[SourceFile], baseline: &Baseline) -> Vec<Finding> {
    let counts = panic_counts(files);
    let mut out = Vec::new();
    for (rel, (n, first_line)) in &counts {
        match baseline.entries.get(rel) {
            None => out.push(Finding {
                rule: PANIC_RATCHET,
                rel: rel.clone(),
                line: *first_line,
                message: format!(
                    "{n} unwrap()/expect() call(s) but no ratchet entry — handle the error, or add a justified ceiling via `zen2-lint baseline`"
                ),
            }),
            Some(e) if *n > e.count => out.push(Finding {
                rule: PANIC_RATCHET,
                rel: rel.clone(),
                line: *first_line,
                message: format!(
                    "unwrap()/expect() count grew {} -> {n} (ratchet only goes down) — handle the new error instead",
                    e.count
                ),
            }),
            Some(e) if *n < e.count => out.push(Finding {
                rule: PANIC_RATCHET,
                rel: rel.clone(),
                line: *first_line,
                message: format!(
                    "unwrap()/expect() count shrank {} -> {n}: tighten the ceiling with `cargo run -p zen2-lint -- baseline`",
                    e.count
                ),
            }),
            Some(_) => {}
        }
    }
    for (rel, e) in &baseline.entries {
        if !counts.contains_key(rel) {
            out.push(Finding {
                rule: PANIC_RATCHET,
                rel: rel.clone(),
                line: 1,
                message: "stale ratchet entry: the file has no unwrap()/expect() in non-test code (or no longer exists) — remove the entry".to_string(),
            });
        }
        if e.reason.trim().is_empty() || e.reason.trim_start().starts_with("TODO") {
            out.push(Finding {
                rule: PANIC_RATCHET,
                rel: rel.clone(),
                line: 1,
                message: "unexplained ratchet entry: every ceiling needs a `# reason` saying why those panic sites are acceptable".to_string(),
            });
        }
    }
    out
}
