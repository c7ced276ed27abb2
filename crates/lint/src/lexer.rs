//! A hand-rolled Rust lexer — just enough tokenization for invariant
//! linting, in the same vendored-shim philosophy as the rest of the
//! workspace (no `syn`, no `proc-macro2`, no registry access).
//!
//! The lexer's one job is to classify source bytes so the call graph never
//! mistakes a word inside a string literal or a comment for code; comments
//! are dropped, everything else becomes a token. It
//! handles every literal form the workspace uses: nested block comments,
//! raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`, `br#"…"#`), byte
//! chars (`b'x'`), char-vs-lifetime disambiguation (`'a'` vs `'a`), and
//! numeric literals with exponents. It deliberately does *not* build an
//! AST: rules work on the flat token stream plus brace matching.

/// One lexed token. Identifiers keep their text (rules match on names),
/// literals their raw text.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (`unsafe`, `HashMap`, `unwrap`, …).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String or byte-string literal; payload is the raw text between the
    /// quotes (escapes left as written — good enough for name matching).
    Str(String),
    /// Char or byte-char literal.
    Char,
    /// Numeric literal; payload is the literal text as written.
    Num(String),
    /// Lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consumes bytes while `pred` holds, returning the consumed slice.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a [u8] {
        let start = self.pos;
        while self.peek(0).is_some_and(&pred) {
            self.bump();
        }
        &self.bytes[start..self.pos]
    }
}

/// Tokenizes `src`. Unterminated literals and comments are tolerated (the
/// remainder of the file becomes the literal) — a linter should degrade,
/// not crash, on the code it inspects.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { bytes: src.as_bytes(), pos: 0, line: 1 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                cur.take_while(|c| c != b'\n');
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => depth += 1,
                        (Some(b'*'), Some(b'/')) => depth -= 1,
                        (Some(_), _) => {
                            cur.bump();
                            continue;
                        }
                        (None, _) => break,
                    }
                    cur.bump();
                    cur.bump();
                }
            }
            b'"' => {
                cur.bump();
                out.push(Token { tok: Tok::Str(read_plain_string(&mut cur)), line });
            }
            b'\'' => {
                cur.bump();
                out.push(Token { tok: read_char_or_lifetime(&mut cur), line });
            }
            _ if c.is_ascii_digit() => {
                let text = read_number(&mut cur);
                out.push(Token { tok: Tok::Num(text), line });
            }
            _ if is_ident_start(c) => {
                // Raw/byte string and byte-char prefixes bind tighter than
                // identifier lexing: r"…", r#"…"#, b"…", br#"…"#, b'…'.
                if let Some(tok) = read_prefixed_literal(&mut cur) {
                    out.push(Token { tok, line });
                } else {
                    let text = cur.take_while(is_ident_continue);
                    out.push(Token {
                        tok: Tok::Ident(String::from_utf8_lossy(text).into_owned()),
                        line,
                    });
                }
            }
            _ => {
                cur.bump();
                out.push(Token { tok: Tok::Punct(c as char), line });
            }
        }
    }
    out
}

/// Reads a `"…"` body (opening quote already consumed), handling escapes.
fn read_plain_string(cur: &mut Cursor) -> String {
    let start = cur.pos;
    let mut end;
    loop {
        end = cur.pos;
        match cur.bump() {
            None => break,
            Some(b'"') => break,
            Some(b'\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
    String::from_utf8_lossy(&cur.bytes[start..end]).into_owned()
}

/// Reads `r"…"` / `r#"…"#` (any number of `#`s); `at_hash_or_quote` is the
/// position right after the `r`/`br` prefix. Returns the inner text.
fn read_raw_string(cur: &mut Cursor) -> String {
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    let start = cur.pos;
    let mut end = cur.bytes.len();
    'scan: while let Some(c) = cur.bump() {
        if c == b'"' {
            for k in 0..hashes {
                if cur.peek(k) != Some(b'#') {
                    continue 'scan;
                }
            }
            end = cur.pos - 1;
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
    String::from_utf8_lossy(&cur.bytes[start..end.min(cur.bytes.len())]).into_owned()
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` / `'static`
/// (lifetime). The opening quote is already consumed.
fn read_char_or_lifetime(cur: &mut Cursor) -> Tok {
    match cur.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: consume to the closing quote.
            cur.bump();
            cur.bump(); // the escaped character
            while let Some(c) = cur.peek(0) {
                cur.bump();
                if c == b'\'' {
                    break;
                }
            }
            Tok::Char
        }
        Some(c) if is_ident_start(c) && cur.peek(1) != Some(b'\'') => {
            // `'a`, `'static`, `'outer` — a lifetime or loop label.
            cur.take_while(is_ident_continue);
            Tok::Lifetime
        }
        _ => {
            // `'x'`, `' '`, `'€'` — consume through the closing quote.
            while let Some(c) = cur.bump() {
                if c == b'\'' {
                    break;
                }
            }
            Tok::Char
        }
    }
}

/// Consumes a numeric literal (ints, floats, hex, exponents, suffixes),
/// returning its text.
fn read_number(cur: &mut Cursor) -> String {
    let start = cur.pos;
    cur.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
    // A `.` continues the number only when followed by a digit (so range
    // expressions like `0..n` stay two tokens).
    if cur.peek(0) == Some(b'.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        cur.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
    }
    // Exponent sign: `1e-5` — take_while stops at `-`/`+`.
    if matches!(cur.peek(0), Some(b'-') | Some(b'+'))
        && cur.bytes.get(cur.pos.wrapping_sub(1)).is_some_and(|c| matches!(c, b'e' | b'E'))
        && cur.peek(1).is_some_and(|c| c.is_ascii_digit())
    {
        cur.bump();
        cur.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
    }
    String::from_utf8_lossy(&cur.bytes[start..cur.pos]).into_owned()
}

/// Handles `r`/`b`/`br`-prefixed literals. Returns `None` when the
/// upcoming identifier is not actually a literal prefix.
fn read_prefixed_literal(cur: &mut Cursor) -> Option<Tok> {
    let (prefix_len, raw, is_char) = match (cur.peek(0), cur.peek(1), cur.peek(2)) {
        (Some(b'r'), Some(b'"'), _) | (Some(b'r'), Some(b'#'), _) => (1, true, false),
        (Some(b'b'), Some(b'r'), Some(b'"')) | (Some(b'b'), Some(b'r'), Some(b'#')) => {
            (2, true, false)
        }
        (Some(b'b'), Some(b'"'), _) => (1, false, false),
        (Some(b'b'), Some(b'\''), _) => (1, false, true),
        _ => return None,
    };
    // `r#foo` is a raw identifier, not a raw string: require a quote after
    // the hashes for the raw case.
    if raw {
        let mut k = prefix_len;
        while cur.peek(k) == Some(b'#') {
            k += 1;
        }
        if cur.peek(k) != Some(b'"') {
            return None;
        }
    }
    for _ in 0..prefix_len {
        cur.bump();
    }
    if raw {
        Some(Tok::Str(read_raw_string(cur)))
    } else if is_char {
        cur.bump(); // opening quote
        Some(read_char_or_lifetime(cur))
    } else {
        cur.bump(); // opening quote
        Some(Tok::Str(read_plain_string(cur)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn words_in_strings_and_comments_are_not_idents() {
        let src = r##"
            let x = "unwrap HashMap"; // Instant::now in a comment
            /* unsafe in a block comment */
            let y = r#"panic!"#;
            let z = b"expect";
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        for banned in ["unwrap", "HashMap", "Instant", "unsafe", "panic", "expect"] {
            assert!(!ids.contains(&banned.to_string()), "{banned} leaked out of a literal");
        }
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("impl<'a> Foo<'a> { fn f(c: char) { if c == 'x' || c == '\\'' {} } }");
        let lifetimes = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = toks.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn byte_char_and_byte_string() {
        let toks = lex(r#"match c { b' ' | b'\\' => 1, _ => 2 }; let s = b"bytes";"#);
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Char).count(), 2);
        assert!(toks.iter().any(|t| t.tok == Tok::Str("bytes".into())));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<(String, u32)> = toks
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some((s, t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 4)]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].ident(), Some("code"));
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let toks = lex(r###"let s = r#"has "quotes" inside"#;"###);
        assert!(toks.iter().any(|t| t.tok == Tok::Str("has \"quotes\" inside".into())));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = lex("for i in 0..n { let x = 1.5e-3; }");
        let puncts: Vec<char> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        // `0..n` must produce two dots, and `1.5e-3` must be one number.
        assert_eq!(puncts.iter().filter(|&&c| c == '.').count(), 2);
        let nums: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "1.5e-3"]);
    }

    #[test]
    fn string_escapes_do_not_terminate_early() {
        let toks = lex(r#"let s = "a\"b"; let t = 1;"#);
        assert!(toks.iter().any(|t| matches!(&t.tok, Tok::Str(s) if s == "a\\\"b")));
        assert!(toks.iter().any(|t| t.ident() == Some("t")));
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        lex("let s = \"unterminated");
        lex("/* unterminated");
        lex("let c = '");
        lex("let r = r#\"unterminated");
    }
}
