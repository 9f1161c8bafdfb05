//! Source-file model for the lint rules.
//!
//! A [`SourceFile`] lexes the raw text once ([`crate::lint::lex`]) and
//! derives everything the rules need from the token stream:
//!
//! - the **token list** itself, for token-accurate rules;
//! - the **scope facts** ([`crate::lint::scope`]): fn items, test
//!   regions, loop bodies;
//! - a **code mask** — the text with comment and string/char literal
//!   *contents* blanked to spaces (byte offsets and line numbers
//!   preserved) — kept for rules that still scan text, so that
//!   `// panic! is bad` or `"unwrap()"` in a string never match.
//!
//! The mask is now derived from real tokens rather than the old
//! byte-stripping heuristics, so raw strings with hashes, nested block
//! comments and `'a'`-vs-`&'a` ambiguities are all handled exactly.

use super::lex::{self, Kind, Token};
use super::scope::{self, Scopes};

/// One lint-relevant source file.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Raw file contents.
    pub raw: String,
    /// Contents with comment and literal contents blanked.
    pub code: String,
    /// The lexed token stream (tiles `raw` exactly).
    pub tokens: Vec<Token>,
    /// Item/scope facts derived from the tokens.
    pub scopes: Scopes,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Builds the model from raw text.
    pub fn new(rel_path: impl Into<String>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let tokens = lex::lex(&raw);
        let scopes = scope::analyze(&raw, &tokens);
        let code = mask(&raw, &tokens);
        let mut line_starts = vec![0];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            rel_path: rel_path.into(),
            raw,
            code,
            tokens,
            scopes,
            line_starts,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether a byte offset falls inside a test-only item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.scopes.in_test(offset)
    }

    /// Every inline `// lint:allow(<rule>)` marker in the file, as
    /// `(rule, 1-based line)` pairs. A marker excuses a finding of its
    /// rule on its own line or the line below (see [`crate::lint::run`]).
    pub fn inline_allow_markers(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for (idx, text) in self.raw.lines().enumerate() {
            let line = idx + 1;
            let mut rest = text;
            while let Some(p) = rest.find("lint:allow(") {
                let tail = &rest[p + "lint:allow(".len()..];
                if let Some(close) = tail.find(')') {
                    let rule = &tail[..close];
                    if !rule.is_empty() && rule.chars().all(|c| c.is_ascii_alphanumeric()) {
                        out.push((rule.to_string(), line));
                    }
                    rest = &tail[close + 1..];
                } else {
                    break;
                }
            }
        }
        out
    }

    /// The non-trivia tokens, in order.
    pub fn significant(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| !t.is_trivia())
    }
}

/// Blanks comment and literal contents to spaces, preserving layout.
///
/// Delimiting quotes of string/char literals are kept so the mask still
/// reads as a literal; lifetimes and all real code pass through.
fn mask(raw: &str, tokens: &[Token]) -> String {
    let bytes = raw.as_bytes();
    let mut out = bytes.to_vec();
    for t in tokens {
        match t.kind {
            Kind::LineComment | Kind::BlockComment => blank_range(&mut out, t.start, t.end),
            Kind::Str
            | Kind::RawStr
            | Kind::ByteStr
            | Kind::RawByteStr
            | Kind::Char
            | Kind::Byte => {
                let first_q = (t.start..t.end).find(|&i| bytes[i] == b'"' || bytes[i] == b'\'');
                let last_q = (t.start..t.end)
                    .rev()
                    .find(|&i| bytes[i] == b'"' || bytes[i] == b'\'');
                for i in t.start..t.end {
                    if Some(i) != first_q && Some(i) != last_q {
                        blank(&mut out, i);
                    }
                }
            }
            _ => {}
        }
    }
    // Blanking only replaces bytes with ASCII spaces inside token spans,
    // and newlines are preserved, so the result is valid UTF-8 with the
    // exact byte length and line structure of the input.
    String::from_utf8(out).unwrap_or_default()
}

fn blank_range(out: &mut [u8], start: usize, end: usize) {
    for i in start..end {
        blank(out, i);
    }
}

fn blank(out: &mut [u8], i: usize) {
    if !out[i].is_ascii_whitespace() {
        out[i] = b' ';
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let f = SourceFile::new("a.rs", "let x = 1; // unwrap()\n/* panic! */ let y;\n");
        assert!(!f.code.contains("unwrap"));
        assert!(!f.code.contains("panic"));
        assert!(f.code.contains("let x = 1;"));
        assert!(f.code.contains("let y;"));
    }

    #[test]
    fn masks_string_and_char_literals_but_keeps_lifetimes() {
        let f = SourceFile::new(
            "a.rs",
            "fn f<'a>(s: &'a str) { let c = 'x'; let s = \"unwrap()\"; }",
        );
        assert!(!f.code.contains("unwrap"));
        assert!(f.code.contains("fn f<'a>(s: &'a str)"));
    }

    #[test]
    fn masks_raw_strings() {
        let f = SourceFile::new("a.rs", "let s = r#\"panic!()\"#;");
        assert!(!f.code.contains("panic"));
    }

    #[test]
    fn masks_nested_block_comments_exactly() {
        // The old byte-stripper got this right; the lexer must too.
        let f = SourceFile::new("a.rs", "/* outer /* panic! */ still comment */ let x;");
        assert!(!f.code.contains("panic"));
        assert!(f.code.contains("let x;"));
    }

    #[test]
    fn mask_preserves_offsets_and_lines() {
        let src = "let a = \"two\nlines\";\nlet b = 1; // c\n";
        let f = SourceFile::new("a.rs", src);
        assert_eq!(f.code.len(), src.len());
        assert_eq!(
            f.code.matches('\n').count(),
            src.matches('\n').count(),
            "newlines inside literals/comments must survive masking"
        );
        assert_eq!(f.line_of(src.find("let b").expect("fixture")), 3);
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = SourceFile::new("a.rs", src);
        let unwrap_at = src.find("unwrap").expect("fixture");
        assert!(f.in_test(unwrap_at));
        assert!(!f.in_test(src.find("fn lib()").expect("fixture")));
        assert!(!f.in_test(src.find("fn lib2").expect("fixture")));
    }

    #[test]
    fn test_attr_fn_is_a_test_region() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() {}\n";
        let f = SourceFile::new("a.rs", src);
        assert!(f.in_test(src.find("unwrap").expect("fixture")));
        assert!(!f.in_test(src.find("fn lib").expect("fixture")));
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = SourceFile::new("a.rs", "a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
    }

    #[test]
    fn inline_allow_markers_are_enumerated() {
        let src = "x(); // lint:allow(L8)\ny();\n// lint:allow(L9) queue guard drops at stmt end\n";
        let f = SourceFile::new("a.rs", src);
        assert_eq!(
            f.inline_allow_markers(),
            vec![("L8".to_string(), 1), ("L9".to_string(), 3)]
        );
    }
}
