//! Item-aware single-file rules: seed discipline and float reduction
//! order. Both run over the token stream *plus* the item tree
//! ([`crate::items`]), which is what lets them see enclosing-function
//! parameters and tell a definition from a call.

use crate::items::{Item, ItemKind};
use crate::lexer::{matching, Token, TokenKind};
use crate::rules::{
    is_code_ident, seq, statement_start, FLOAT_ORDER, RESULT_CRATES, SEED_DISCIPLINE,
};
use crate::{Finding, SourceFile};

/// Crates whose RNG seeding must be derivation-rooted. Result crates
/// plus `zen2-power`, whose meter-noise RNG feeds the fig09 quality
/// numbers.
pub const SEED_SCOPE: &[&str] =
    &["crates/zen2-sim/", "crates/zen2-experiments/", "crates/zen2-power/"];

/// The one file allowed to hand-roll order-sensitive float loops: the
/// blessed accumulators (`Welford`, `P2Quantile`, …) live here, and
/// their merge order is part of their tested contract.
pub const FLOAT_ORDER_HOME: &str = "crates/zen2-sim/src/stats.rs";

/// seed-discipline: every `seed_from_u64(…)` / `from_seed(…)` call in
/// non-test code of [`SEED_SCOPE`] crates must root its seed expression
/// in the derivation chain — `child_seed` or a `seed`-named parameter
/// of the enclosing function. A literal (or any other untracked) seed
/// silently forks the RNG universe: two experiments can share a stream,
/// and a sweep's per-case independence guarantee (docs/SWEEPS.md) no
/// longer holds.
pub fn seed_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    if !SEED_SCOPE.iter().any(|p| f.rel.starts_with(p)) {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(is_code_ident(t, "seed_from_u64") || is_code_ident(t, "from_seed")) {
            continue;
        }
        // A definition (`fn from_seed(…)`) is not a call site.
        if i > 0 && is_code_ident(&toks[i - 1], "fn") {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.text == "(").map(|_| i + 1) else {
            continue;
        };
        if f.is_test_code(t.line) {
            continue;
        }
        let close = matching(toks, open, "(", ")").unwrap_or(toks.len());
        let args = &toks[open + 1..close.min(toks.len())];
        if seed_expr_is_rooted(args, &f.items, i) {
            continue;
        }
        out.push(f.finding(
            SEED_DISCIPLINE,
            t.line,
            format!(
                "`{}` seed is not rooted in the derivation chain: use child_seed, or thread a `seed` parameter through — literal seeds fork the RNG universe outside the sweep's control",
                t.text
            ),
        ));
    }
}

/// True when the argument tokens of a seeding call trace back to the
/// derivation chain.
fn seed_expr_is_rooted(args: &[Token], items: &[Item], call_idx: usize) -> bool {
    if args.iter().any(|t| is_code_ident(t, "child_seed")) {
        return true;
    }
    // A `seed`-named parameter of the enclosing fn, used in the
    // expression, counts as rooted: the caller owns the derivation.
    let params = enclosing_fn_params(items, call_idx);
    args.iter().any(|t| {
        t.kind == TokenKind::Ident
            && params.iter().any(|p| p == &t.text && p.to_ascii_lowercase().contains("seed"))
    })
}

/// Parameter names of the innermost `fn` item whose token range
/// contains `idx` (closures are invisible to the item layer; their
/// captures resolve to the enclosing fn, which is what we want).
fn enclosing_fn_params(items: &[Item], idx: usize) -> Vec<String> {
    let mut best: Option<&Item> = None;
    fn visit<'a>(items: &'a [Item], idx: usize, best: &mut Option<&'a Item>) {
        for item in items {
            if item.range.0 <= idx && idx < item.range.1 {
                if item.kind == ItemKind::Fn {
                    *best = Some(item);
                }
                visit(&item.children, idx, best);
            }
        }
    }
    visit(items, idx, &mut best);
    best.map(|f| f.params.clone()).unwrap_or_default()
}

/// float-order: order-sensitive `f64` reductions in result crates
/// outside [`FLOAT_ORDER_HOME`]. Float addition is not associative, so
/// a `.sum()` / `.fold()` / loop-carried `+=` over a collection bakes
/// one particular evaluation order into the result — exactly the thing
/// the shard/worker split invariance forbids unless the order is itself
/// deterministic and documented. The blessed accumulators in `stats.rs`
/// exist so reductions have one audited home; everything else needs a
/// reasoned suppression stating why its order is fixed.
pub fn float_order(f: &SourceFile, out: &mut Vec<Finding>) {
    if !RESULT_CRATES.iter().any(|p| f.rel.starts_with(p)) || f.rel == FLOAT_ORDER_HOME {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "." {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if !(is_code_ident(m, "sum") || is_code_ident(m, "product") || is_code_ident(m, "fold")) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|n| n.text == "(" || n.text == "::") {
            continue;
        }
        if f.is_test_code(m.line) {
            continue;
        }
        if is_code_ident(m, "fold") && fold_is_min_max(toks, i + 2) {
            continue; // min/max are associative+commutative: order-free.
        }
        if statement_has_float(toks, i) {
            out.push(f.finding(
                FLOAT_ORDER,
                m.line,
                format!(
                    "order-sensitive float reduction `.{}()` outside {FLOAT_ORDER_HOME}: float addition is not associative — use a stats.rs accumulator, or suppress with a reason documenting why the iteration order is fixed",
                    m.text
                ),
            ));
        }
    }
    float_accumulation_loops(f, out);
}

/// The `+=` half of float-order: a local float accumulated inside a
/// `for` loop body.
fn float_accumulation_loops(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    let loops = for_loop_bodies(toks);
    for i in 0..toks.len().saturating_sub(1) {
        if !(toks[i].text == "+" && toks[i + 1].text == "=") {
            continue;
        }
        if f.is_test_code(toks[i].line) {
            continue;
        }
        if !loops.iter().any(|&(a, b)| a < i && i < b) {
            continue;
        }
        let Some(name) = accumulator_name(toks, i) else { continue };
        if !local_is_float(toks, &name) {
            continue;
        }
        out.push(f.finding(
            FLOAT_ORDER,
            toks[i].line,
            format!(
                "loop-carried float accumulation `{name} +=`: this bakes the loop's iteration order into the value — use a stats.rs accumulator, or suppress with a reason documenting why the order is fixed"
            ),
        ));
    }
}

/// Name of the place being `+=`-assigned at token `i` (the `+`), when
/// it is a plain local or an indexed local — `self.field +=` and other
/// projections return `None` (struct fields accumulate across calls by
/// design; the declaring type owns that contract).
fn accumulator_name(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i.checked_sub(1)?;
    if toks[j].text == "]" {
        // `name[idx] += …`: scan back to the matching `[`.
        let mut depth = 0i32;
        loop {
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    let t = toks.get(j)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    if j > 0 && toks[j - 1].text == "." {
        return None;
    }
    Some(t.text.clone())
}

/// True when a `let [mut] name …;` binding in this file carries a float
/// signal (type annotation or literal).
fn local_is_float(toks: &[Token], name: &str) -> bool {
    for k in 0..toks.len() {
        let decl = seq(toks, k, &["let", "mut", name]) || seq(toks, k, &["let", name]);
        if decl && statement_has_float(toks, k + 1) {
            return true;
        }
    }
    false
}

/// True when the reduction at `open` (the token after `.fold`) is a
/// `min`/`max` fold — associative and commutative, so evaluation order
/// cannot change the result (modulo NaN, which the sim never emits).
fn fold_is_min_max(toks: &[Token], open: usize) -> bool {
    let open = if toks[open].text == "::" {
        // Turbofish: `.fold::<…>(…)` — find the call parenthesis.
        let mut k = open;
        while k < toks.len() && toks[k].text != "(" {
            k += 1;
        }
        k
    } else {
        open
    };
    let close = matching(toks, open, "(", ")").unwrap_or(toks.len());
    (open..close.min(toks.len())).any(|k| {
        seq(toks, k, &["f64", "::", "min"])
            || seq(toks, k, &["f64", "::", "max"])
            || seq(toks, k, &["f32", "::", "min"])
            || seq(toks, k, &["f32", "::", "max"])
    })
}

/// True when the statement containing token `i` mentions a float type
/// or literal anywhere. Tail expressions have no closing `;`, so the
/// scan also stops at braces in both directions.
fn statement_has_float(toks: &[Token], i: usize) -> bool {
    let start = statement_start(toks, i);
    let mut k = i;
    while k < toks.len() && !matches!(toks[k].text.as_str(), ";" | "{" | "}") {
        k += 1;
    }
    toks[start..k.min(toks.len())].iter().any(is_float_signal)
}

fn is_float_signal(t: &Token) -> bool {
    match t.kind {
        TokenKind::Ident => t.text == "f64" || t.text == "f32",
        TokenKind::Num => {
            t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")
        }
        _ => false,
    }
}

/// Token ranges `(open_brace, close_brace)` of every `for … in … { }`
/// loop body. `impl Trait for Type` and `for<'a>` bounds never have an
/// `in` between the `for` and the first `{`, so they don't qualify.
fn for_loop_bodies(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if !is_code_ident(&toks[k], "for") {
            continue;
        }
        let mut saw_in = false;
        let mut j = k + 1;
        while j < toks.len() && toks[j].text != "{" {
            if is_code_ident(&toks[j], "in") {
                saw_in = true;
            }
            if toks[j].text == ";" {
                break;
            }
            j += 1;
        }
        if saw_in && j < toks.len() && toks[j].text == "{" {
            let close = matching(toks, j, "{", "}").unwrap_or(toks.len());
            out.push((j, close));
        }
    }
    out
}
