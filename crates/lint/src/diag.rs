//! Diagnostics: the finding type, its two output formats — rustc-style
//! `file:line: rule: message` text and a machine-readable JSON array
//! (`--json`) — and the findings baseline (`--baseline`): a committed
//! JSON snapshot diffed against the current scan, so CI fails on *new*
//! findings only.

use std::collections::BTreeMap;
use std::fmt;

/// One rule violation at one source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-root-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule identifier (also the name `lint:allow` takes).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Orders findings for stable output: by file, then line, then rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes findings as a JSON array (one object per finding).
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                r#"{{"file":"{}","line":{},"rule":"{}","message":"{}"}}"#,
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// One accepted finding from a committed baseline file. The line number
/// is kept for human readers but ignored when matching, so unrelated
/// edits that shift code do not resurrect baselined findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

/// Parses a baseline file — the exact format `--json` emits (so
/// regenerating the baseline is just redirecting the scan output).
/// Hand-rolled like the rest of the crate: zero dependencies.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut p = BaselineParser { bytes: text.as_bytes(), pos: 0 };
    let entries = p.array()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(entries)
}

struct BaselineParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl BaselineParser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn array(&mut self) -> Result<Vec<BaselineEntry>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.object()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<BaselineEntry, String> {
        self.expect(b'{')?;
        let mut entry = BaselineEntry {
            file: String::new(),
            line: 0,
            rule: String::new(),
            message: String::new(),
        };
        let mut seen: Vec<String> = Vec::new();
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "line" => entry.line = self.number()?,
                "file" => entry.file = self.string()?,
                "rule" => entry.rule = self.string()?,
                "message" => entry.message = self.string()?,
                other => return Err(format!("unknown baseline key '{other}'")),
            }
            seen.push(key);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        for required in ["file", "line", "rule", "message"] {
            if !seen.iter().any(|k| k == required) {
                return Err(format!("baseline entry is missing '{required}'"));
            }
        }
        Ok(entry)
    }

    fn number(&mut self) -> Result<u32, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Diffs the current findings against a baseline. Matching is a multiset
/// on `(file, rule, message)` — line numbers shift with unrelated edits
/// and are ignored. Returns the findings not covered by the baseline
/// (new — these fail CI) and the count of baseline entries no finding
/// matched (resolved — the baseline wants regenerating).
pub fn diff_baseline(
    findings: &[Finding],
    baseline: &[BaselineEntry],
) -> (Vec<Finding>, usize) {
    let mut budget: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
    for b in baseline {
        *budget.entry((b.file.as_str(), b.rule.as_str(), b.message.as_str())).or_default() += 1;
    }
    let mut new = Vec::new();
    for f in findings {
        match budget.get_mut(&(f.file.as_str(), f.rule, f.message.as_str())) {
            Some(n) if *n > 0 => *n -= 1,
            _ => new.push(f.clone()),
        }
    }
    let resolved = budget.values().sum();
    (new, resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_rustc_style() {
        let f = Finding {
            file: "crates/net/src/wire.rs".into(),
            line: 42,
            rule: "boundary-panic",
            message: "`unwrap()` in an untrusted-input parser".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/net/src/wire.rs:42: boundary-panic: `unwrap()` in an untrusted-input parser"
        );
    }

    #[test]
    fn json_output_is_parseable_shape() {
        let findings = vec![Finding {
            file: "a.rs".into(),
            line: 1,
            rule: "allow-syntax",
            message: "quote \" and backslash \\".into(),
        }];
        let json = to_json(&findings);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""rule":"allow-syntax""#));
        assert!(json.contains(r#"quote \" and backslash \\"#));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn sorting_is_by_file_then_line() {
        let mk = |file: &str, line| Finding {
            file: file.into(),
            line,
            rule: "determinism-clock",
            message: String::new(),
        };
        let mut v = vec![mk("b.rs", 1), mk("a.rs", 9), mk("a.rs", 2)];
        sort_findings(&mut v);
        assert_eq!(
            v.iter().map(|f| (f.file.clone(), f.line)).collect::<Vec<_>>(),
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }

    #[test]
    fn baseline_round_trips_through_the_json_format() {
        let findings = vec![
            Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "boundary-panic",
                message: "escapes: \" \\ \n tab\t".into(),
            },
            Finding { file: "b.rs".into(), line: 9, rule: "panic-reachability", message: "m".into() },
        ];
        let parsed = parse_baseline(&to_json(&findings)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].file, "a.rs");
        assert_eq!(parsed[0].line, 3);
        assert_eq!(parsed[0].rule, "boundary-panic");
        assert_eq!(parsed[0].message, "escapes: \" \\ \n tab\t");
        assert_eq!(parse_baseline("[]").unwrap(), vec![]);
        assert!(parse_baseline("[{\"file\":\"a\"}]").is_err());
        assert!(parse_baseline("[] trailing").is_err());
    }

    #[test]
    fn baseline_diff_ignores_lines_and_counts_multiplicity() {
        let mk = |file: &str, line, msg: &str| Finding {
            file: file.into(),
            line,
            rule: "boundary-panic",
            message: msg.into(),
        };
        let bk = |file: &str, line, msg: &str| BaselineEntry {
            file: file.into(),
            line,
            rule: "boundary-panic".into(),
            message: msg.into(),
        };
        // Same finding moved lines: still baselined. A second copy of a
        // baselined message is new (multiset, not set). One baseline
        // entry no longer found: resolved.
        let findings = vec![mk("a.rs", 10, "x"), mk("a.rs", 20, "x"), mk("b.rs", 1, "y")];
        let baseline = vec![bk("a.rs", 3, "x"), bk("b.rs", 1, "y"), bk("c.rs", 7, "gone")];
        let (new, resolved) = diff_baseline(&findings, &baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 20);
        assert_eq!(resolved, 1);
    }
}
