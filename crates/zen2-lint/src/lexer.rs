//! A minimal Rust lexer.
//!
//! Just enough lexing for line- and token-scoped lint rules: comments,
//! string/char literals and doc text are stripped into their own buckets
//! so a rule pattern can never fire inside prose, while every token
//! keeps the 1-based line it started on. The grammar subset handled:
//!
//! - line (`//`) and nested block (`/* */`) comments — collected, since
//!   suppression annotations live in line comments;
//! - string literals: `"…"` (with escapes), `b"…"`, and raw forms
//!   `r"…"`, `r#"…"#`, `br##"…"##` with any hash depth;
//! - char/byte-char literals (`'a'`, `'\n'`, `'\u{1F600}'`, `b'x'`)
//!   disambiguated from lifetimes (`'a`, `'static`, `'_`);
//! - raw identifiers (`r#fn` lexes as the identifier `fn`);
//! - identifiers, numbers, and punctuation (only `::` is fused into a
//!   single token — rules match on path shapes like `thread :: spawn`).
//!
//! This is deliberately not a full lexer (no float-exponent signs, no
//! unicode identifiers); mis-lexing those splits a number into extra
//! tokens, which no rule pattern can match on, so rules stay sound.

/// What a [`Token`] is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    Ident,
    Punct,
    Str,
    Char,
    Num,
    Lifetime,
}

/// One lexed token with the 1-based source line it started on.
#[derive(Debug, Clone)]
pub struct Token {
    pub text: String,
    pub kind: TokenKind,
    pub line: usize,
}

/// One `//` comment. `own_line` is true when nothing but whitespace
/// precedes it — such comments annotate the *next* line, trailing
/// comments annotate their own.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: usize,
    pub own_line: bool,
}

/// The output of [`lex`]: code tokens and line comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_cont(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Byte length of the UTF-8 character starting at `b[i]`.
fn char_len(b: &[u8], i: usize) -> usize {
    match b[i] {
        c if c < 0x80 => 1,
        c if c >= 0xF0 => 4,
        c if c >= 0xE0 => 3,
        _ => 2,
    }
}

/// If `b[i..]` opens a raw-string body (`#`* then `"`), returns
/// `(hash_count, index_of_first_body_byte)`.
fn raw_string_open(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some((j - i, j + 1))
    } else {
        None
    }
}

/// Tokenizes `src`. Never panics on malformed input — an unterminated
/// literal simply swallows the rest of the file, which is the same
/// thing rustc would reject anyway.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    // Whether any token started on the current line (for `own_line`).
    let mut line_has_code = false;

    macro_rules! push {
        ($kind:expr, $text:expr) => {{
            out.tokens.push(Token { text: $text, kind: $kind, line });
            line_has_code = true;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Newlines and whitespace.
        if c == b'\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            out.comments.push(Comment {
                text: src[start..j].to_string(),
                line,
                own_line: !line_has_code,
            });
            i = j;
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'\n' {
                    line += 1;
                    line_has_code = false;
                    j += 1;
                } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Plain and byte strings / raw strings / raw idents / byte chars.
        if c == b'"' {
            i = scan_string(src, b, i + 1, &mut line, &mut out);
            continue;
        }
        if c == b'b' || c == b'r' {
            if c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
                i = scan_char_or_lifetime(src, b, i + 2, &mut out, line, true);
                line_has_code = true;
                continue;
            }
            if c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' {
                i = scan_string(src, b, i + 2, &mut line, &mut out);
                continue;
            }
            let raw_at = if c == b'r' {
                i + 1
            } else if i + 1 < b.len() && b[i + 1] == b'r' {
                i + 2
            } else {
                usize::MAX
            };
            if raw_at != usize::MAX {
                if let Some((hashes, body)) = raw_string_open(b, raw_at) {
                    i = scan_raw_string(src, b, body, hashes, &mut line, &mut out);
                    continue;
                }
            }
            if c == b'r' && i + 2 < b.len() && b[i + 1] == b'#' && is_ident_start(b[i + 2]) {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                push!(TokenKind::Ident, src[start..j].to_string());
                i = j;
                continue;
            }
            // Falls through: an ordinary identifier starting with b/r.
        }
        // Char literal or lifetime.
        if c == b'\'' {
            i = scan_char_or_lifetime(src, b, i + 1, &mut out, line, false);
            line_has_code = true;
            continue;
        }
        // Identifier.
        if is_ident_start(c) {
            let start = i;
            let mut j = i + 1;
            while j < b.len() && is_ident_cont(b[j]) {
                j += 1;
            }
            push!(TokenKind::Ident, src[start..j].to_string());
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i + 1;
            while j < b.len() {
                if is_ident_cont(b[j]) {
                    j += 1;
                } else if b[j] == b'.' && j + 1 < b.len() && b[j + 1].is_ascii_digit() {
                    j += 2;
                } else {
                    break;
                }
            }
            push!(TokenKind::Num, src[start..j].to_string());
            i = j;
            continue;
        }
        // Punctuation; only `::` is fused.
        if c == b':' && i + 1 < b.len() && b[i + 1] == b':' {
            push!(TokenKind::Punct, "::".to_string());
            i += 2;
            continue;
        }
        if c < 0x80 {
            push!(TokenKind::Punct, (c as char).to_string());
            i += 1;
        } else {
            // Stray non-ASCII outside a literal (shouldn't happen in
            // this codebase); skip the whole character.
            i += char_len(b, i);
        }
    }
    out
}

/// Scans a `"…"` body starting at `j` (past the opening quote); returns
/// the index just past the closing quote. Multi-line strings advance
/// `line`.
fn scan_string(src: &str, b: &[u8], j: usize, line: &mut usize, out: &mut Lexed) -> usize {
    let start_line = *line;
    let start = j;
    let mut k = j;
    while k < b.len() {
        match b[k] {
            b'\\' => k += 2,
            b'"' => {
                out.tokens.push(Token {
                    text: src[start..k].to_string(),
                    kind: TokenKind::Str,
                    line: start_line,
                });
                return k + 1;
            }
            b'\n' => {
                *line += 1;
                k += 1;
            }
            _ => k += 1,
        }
    }
    k
}

/// Scans a raw-string body starting at `j`, terminated by `"` plus
/// `hashes` hash marks; returns the index just past the terminator.
fn scan_raw_string(
    src: &str,
    b: &[u8],
    j: usize,
    hashes: usize,
    line: &mut usize,
    out: &mut Lexed,
) -> usize {
    let start_line = *line;
    let start = j;
    let mut k = j;
    while k < b.len() {
        if b[k] == b'\n' {
            *line += 1;
            k += 1;
            continue;
        }
        if b[k] == b'"'
            && b.len() - (k + 1) >= hashes
            && b[k + 1..k + 1 + hashes].iter().all(|&h| h == b'#')
        {
            out.tokens.push(Token {
                text: src[start..k].to_string(),
                kind: TokenKind::Str,
                line: start_line,
            });
            return k + 1 + hashes;
        }
        k += 1;
    }
    k
}

/// Disambiguates a char/byte-char literal from a lifetime. `j` points
/// just past the opening quote. `forced_char` is set for `b'…'`, which
/// can never be a lifetime.
fn scan_char_or_lifetime(
    src: &str,
    b: &[u8],
    j: usize,
    out: &mut Lexed,
    line: usize,
    forced_char: bool,
) -> usize {
    if j >= b.len() {
        return j;
    }
    if b[j] == b'\\' {
        // Escaped char literal: '\n', '\'', '\u{…}'.
        let mut k = j + 1;
        if k < b.len() && b[k] == b'u' && k + 1 < b.len() && b[k + 1] == b'{' {
            k += 2;
            while k < b.len() && b[k] != b'}' {
                k += 1;
            }
            k += 1;
        } else if k < b.len() && b[k] == b'x' {
            // `\xFF`: the marker plus two hex digits.
            k += 3;
        } else {
            k += 1;
        }
        let end = if k < b.len() && b[k] == b'\'' { k + 1 } else { k };
        out.tokens.push(Token {
            text: src[j..k.min(b.len())].to_string(),
            kind: TokenKind::Char,
            line,
        });
        return end;
    }
    if is_ident_start(b[j]) {
        let mut k = j + 1;
        while k < b.len() && is_ident_cont(b[k]) {
            k += 1;
        }
        if k < b.len() && b[k] == b'\'' {
            out.tokens.push(Token { text: src[j..k].to_string(), kind: TokenKind::Char, line });
            return k + 1;
        }
        let kind = if forced_char { TokenKind::Char } else { TokenKind::Lifetime };
        out.tokens.push(Token { text: src[j..k].to_string(), kind, line });
        return k;
    }
    // Punctuation (or non-ASCII) char literal: '(' , 'é'.
    let k = j + char_len(b, j);
    if k < b.len() && b[k] == b'\'' {
        out.tokens.push(Token { text: src[j..k].to_string(), kind: TokenKind::Char, line });
        return k + 1;
    }
    out.tokens.push(Token { text: "'".to_string(), kind: TokenKind::Punct, line });
    j
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
///
/// Finds every attribute of the shape `#[cfg(… test …)]`, then extends
/// over the attributed item's body: attributes that follow are skipped,
/// and the region runs to the matching `}` of the first brace opened
/// (or to the `;` for body-less items like `mod tests;`). An attributed
/// struct field or field initializer (`name: …`) ends at its `,`, or at
/// the brace closing its struct.
pub fn test_line_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let Some(after_attr) = cfg_test_attr_end(tokens, i) else {
            i += 1;
            continue;
        };
        let start_line = tokens[i].line;
        let mut j = after_attr;
        // Skip any further attributes on the same item.
        while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
            j = match matching(tokens, j + 1, "[", "]") {
                Some(close) => close + 1,
                None => tokens.len(),
            };
        }
        // Find the item's body: the first `{` at this level (a `;`
        // first means a body-less item — the region is just its line).
        let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
        if let Some(end) = field_end(tokens, j) {
            ranges.push((start_line, tokens[end].line));
            i = end + 1;
            continue;
        }
        while j < tokens.len() {
            if tokens[j].text == ";" {
                end_line = tokens[j].line;
                j += 1;
                break;
            }
            if tokens[j].text == "{" {
                match matching(tokens, j, "{", "}") {
                    Some(close) => {
                        end_line = tokens[close].line;
                        j = close + 1;
                    }
                    None => {
                        end_line = tokens.last().map_or(end_line, |t| t.line);
                        j = tokens.len();
                    }
                }
                break;
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j.max(i + 1);
    }
    ranges
}

/// If `tokens[j..]` is a struct field or field initializer (`name: …`,
/// possibly `pub`), the index of the `,` ending it or of the `}` closing
/// its struct, whichever comes first outside brackets.
fn field_end(tokens: &[Token], mut j: usize) -> Option<usize> {
    if tokens.get(j)?.text == "pub" {
        j += 1;
        if tokens.get(j)?.text == "(" {
            j = matching(tokens, j, "(", ")")? + 1;
        }
    }
    if tokens.get(j)?.kind != TokenKind::Ident || tokens.get(j + 1)?.text != ":" {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(j + 2) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            "," if depth == 0 => return Some(k),
            ")" | "]" | "}" if depth == 0 => return Some(k),
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
    }
    None
}

/// If `tokens[i..]` starts a `#[cfg(…)]` attribute whose argument list
/// mentions `test`, returns the index just past the closing `]`.
fn cfg_test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#"
        || tokens.get(i + 1)?.text != "["
        || tokens.get(i + 2)?.text != "cfg"
    {
        return None;
    }
    let close = matching(tokens, i + 1, "[", "]")?;
    let mentions_test =
        tokens[i + 3..close].iter().any(|t| t.kind == TokenKind::Ident && t.text == "test");
    if mentions_test {
        Some(close + 1)
    } else {
        None
    }
}

/// Index of the token closing the bracket opened at `open_idx`.
pub fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    /// Only idents/punctuation can trigger rules; literal *content*
    /// stays in `Str`/`Char` tokens, which the matchers skip by kind.
    fn code_texts(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::Punct))
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // thread::spawn in a comment
            /* Instant in /* a nested */ block */
            let s = "thread::spawn";
            let r = r#"SystemTime"#;
            let c = 'I';
        "##;
        let toks = code_texts(src);
        assert!(!toks.iter().any(|t| t == "spawn" || t == "Instant" || t == "SystemTime"));
        assert!(toks.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'static str { let c = 'x'; x }");
        let lifetimes: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 3);
        let chars: Vec<_> = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "x");
    }

    #[test]
    fn escaped_char_literals() {
        for src in ["'\\''", "'\\n'", "'\\u{1F600}'", "b'\\xFF'"] {
            let lexed = lex(src);
            assert_eq!(lexed.tokens.len(), 1, "{src}");
            assert_eq!(lexed.tokens[0].kind, TokenKind::Char, "{src}");
        }
    }

    #[test]
    fn line_numbers_and_own_line_comments() {
        let src = "let a = 1; // trailing\n// own line\nlet b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].own_line);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[1].own_line);
        assert_eq!(lexed.comments[1].line, 2);
        let b_tok = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = texts("std::thread::spawn");
        assert_eq!(toks, ["std", "::", "thread", "::", "spawn"]);
    }

    #[test]
    fn cfg_test_regions_cover_the_module_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn cfg_all_test_counts_and_bodyless_items_end_at_semicolon() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod proptests;\nfn live() {}\n";
        let ranges = test_line_ranges(&lex(src).tokens);
        assert_eq!(ranges, vec![(1, 2)]);
    }

    #[test]
    fn cfg_test_fields_end_at_their_comma_or_struct_brace() {
        let src = "struct S {\n    a: u32,\n    #[cfg(test)]\n    b: Vec<[u8; 2]>,\n    c: u32,\n}\n\
                   impl S {\n    fn f() {}\n}\n\
                   fn g() -> S {\n    S {\n        #[cfg(test)]\n        b: vec![[0; 2]; 3],\n    }\n}\n";
        let ranges = test_line_ranges(&lex(src).tokens);
        assert_eq!(ranges, vec![(3, 4), (12, 13)]);
    }

    #[test]
    fn raw_idents_lex_as_plain_idents() {
        let toks = texts("r#fn r#type regular");
        assert_eq!(toks, ["fn", "type", "regular"]);
    }
}
