//! The `cargo xtask lint` driver.
//!
//! Walks `crates/*/src/**/*.rs` under the workspace root, runs the rules
//! clippy cannot express — L4, L6/L12, L8, L9, L11 and L13 — over each
//! file (token engine: [`lex`], [`scope`], [`source`]), filters
//! violations through inline `// lint:allow(<rule>)` markers, and
//! renders a report as text, `rhsd-lint-report/1` JSON or GitHub
//! workflow annotations. Markers that no longer suppress anything are
//! reported as *stale* for the `--check-allow` gate. L1, L2, L3, L5, L7
//! and L10 are clippy lints (see `Cargo.toml` and `clippy.toml`).

mod lex;
mod rules;
mod scope;
mod source;

use std::fmt;
use std::path::{Path, PathBuf};

use rhsd_obs::json;
use source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `L4`, `L6`, `L8`, `L9`, `L11`, `L12` or `L13`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Half-open byte span of the offending token(s) in the file.
    pub span: (usize, usize),
    /// Human-readable description.
    pub message: String,
}

/// The outcome of a lint run.
pub struct Report {
    violations: Vec<Violation>,
    files_scanned: usize,
    /// Findings excused by an inline marker.
    allowlisted: usize,
    /// Inline markers that suppressed nothing.
    stale_allow: Vec<String>,
}

impl Report {
    /// True when no un-allowlisted violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Stale inline markers (empty when every marker excuses a
    /// finding).
    pub fn stale_allow(&self) -> &[String] {
        &self.stale_allow
    }

    /// Serializes the report in the stable `rhsd-lint-report/1` schema:
    ///
    /// ```json
    /// {
    ///   "schema": "rhsd-lint-report/1",
    ///   "files_scanned": 42,
    ///   "allowlisted": 1,
    ///   "stale_allow": ["…"],
    ///   "violations": [
    ///     {"rule": "L1", "path": "crates/a/src/x.rs", "line": 10,
    ///      "span": [120, 126], "message": "…"}
    ///   ]
    /// }
    /// ```
    ///
    /// Fields are never removed or renamed within schema version 1;
    /// consumers must ignore unknown fields.
    pub fn to_json(&self) -> String {
        fn jstr(s: &str) -> String {
            format!("\"{}\"", json::escape(s))
        }
        let mut s = String::from("{\"schema\":\"rhsd-lint-report/1\"");
        s.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        s.push_str(&format!(",\"allowlisted\":{}", self.allowlisted));
        s.push_str(",\"stale_allow\":[");
        for (i, e) in self.stale_allow.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&jstr(e));
        }
        s.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"span\":[{},{}],\"message\":{}}}",
                jstr(v.rule),
                jstr(&v.path),
                v.line,
                v.span.0,
                v.span.1,
                jstr(&v.message),
            ));
        }
        s.push_str("]}\n");
        s
    }

    /// Renders GitHub workflow commands: one `::error` per violation
    /// (surfaced as a PR annotation on the offending line) and one
    /// `::warning` per stale marker, plus a trailing summary.
    pub fn to_github(&self) -> String {
        fn esc_msg(s: &str) -> String {
            s.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        }
        fn esc_prop(s: &str) -> String {
            esc_msg(s).replace(':', "%3A").replace(',', "%2C")
        }
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "::error file={},line={},title=lint {}::{}\n",
                esc_prop(&v.path),
                v.line,
                esc_prop(v.rule),
                esc_msg(&v.message),
            ));
        }
        for e in &self.stale_allow {
            out.push_str(&format!(
                "::warning title=stale lint allow::{}\n",
                esc_msg(e)
            ));
        }
        out.push_str(&format!(
            "lint: {} violation(s), {} stale allow(s) in {} files scanned ({} allowlisted)\n",
            self.violations.len(),
            self.stale_allow.len(),
            self.files_scanned,
            self.allowlisted
        ));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "{}: {}:{}: {}", v.rule, v.path, v.line, v.message)?;
        }
        for e in &self.stale_allow {
            writeln!(f, "stale-allow: {e}")?;
        }
        if self.violations.is_empty() {
            writeln!(
                f,
                "lint: {} files clean ({} allowlisted findings)",
                self.files_scanned, self.allowlisted
            )
        } else {
            writeln!(
                f,
                "lint: {} violation(s) in {} files scanned ({} allowlisted)",
                self.violations.len(),
                self.files_scanned,
                self.allowlisted
            )
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full lint pass.
pub fn run(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let rd = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for c in &crate_dirs {
        collect_rs_files(&c.join("src"), &mut files)?;
    }

    let mut violations = Vec::new();
    let mut allowlisted = 0usize;
    let mut stale_allow = Vec::new();
    let files_scanned = files.len();
    for path in &files {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::new(rel.clone(), raw);
        let markers = file.inline_allow_markers();
        let mut marker_used = vec![false; markers.len()];
        for v in rules::check_file(&file) {
            // A marker excuses its rule on its own line and the next.
            let mut excused = false;
            for ((rule, line), used) in markers.iter().zip(&mut marker_used) {
                if rule == v.rule && (*line == v.line || *line + 1 == v.line) {
                    *used = true;
                    excused = true;
                }
            }
            if excused {
                allowlisted += 1;
            } else {
                violations.push(v);
            }
        }
        for ((rule, line), used) in markers.iter().zip(marker_used) {
            if !used {
                stale_allow.push(format!(
                    "inline `lint:allow({rule})` at {rel}:{line} no longer matches any finding"
                ));
            }
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    Ok(Report {
        violations,
        files_scanned,
        allowlisted,
        stale_allow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, path: &str, line: usize) -> Violation {
        Violation {
            rule,
            path: path.into(),
            line,
            span: (0, 0),
            message: "msg".into(),
        }
    }

    #[test]
    fn report_renders_violations_and_summary() {
        let r = Report {
            violations: vec![v("L8", "crates/a/src/x.rs", 3)],
            files_scanned: 5,
            allowlisted: 1,
            stale_allow: Vec::new(),
        };
        let s = r.to_string();
        assert!(s.contains("L8: crates/a/src/x.rs:3: msg"));
        assert!(s.contains("1 violation(s)"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_report_matches_the_documented_schema() {
        let r = Report {
            violations: vec![Violation {
                rule: "L8",
                path: "crates/a/src/x.rs".into(),
                line: 3,
                span: (41, 52),
                message: "a \"quoted\" msg\nwith newline".into(),
            }],
            files_scanned: 5,
            allowlisted: 1,
            stale_allow: vec![
                "inline `lint:allow(L9)` at a.rs:4 no longer matches any finding".into(),
            ],
        };
        let text = r.to_json();
        json::validate(&text).expect("report is well-formed JSON");
        let doc = json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("rhsd-lint-report/1")
        );
        assert_eq!(doc.get("files_scanned").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(doc.get("allowlisted").and_then(|v| v.as_u64()), Some(1));
        let stale = doc
            .get("stale_allow")
            .and_then(|v| v.as_arr())
            .expect("arr");
        assert_eq!(stale.len(), 1);
        let viols = doc.get("violations").and_then(|v| v.as_arr()).expect("arr");
        assert_eq!(viols.len(), 1);
        assert_eq!(viols[0].get("rule").and_then(|v| v.as_str()), Some("L8"));
        assert_eq!(viols[0].get("line").and_then(|v| v.as_u64()), Some(3));
        let span = viols[0].get("span").and_then(|v| v.as_arr()).expect("span");
        assert_eq!(span[0].as_u64(), Some(41));
        assert_eq!(span[1].as_u64(), Some(52));
        assert_eq!(
            viols[0].get("message").and_then(|v| v.as_str()),
            Some("a \"quoted\" msg\nwith newline")
        );
    }

    #[test]
    fn github_format_escapes_and_annotates() {
        let r = Report {
            violations: vec![Violation {
                rule: "L13",
                path: "crates/a/src/x.rs".into(),
                line: 7,
                span: (0, 6),
                message: "bad: 50% of cases\nsecond line".into(),
            }],
            files_scanned: 2,
            allowlisted: 0,
            stale_allow: vec!["stale entry".into()],
        };
        let s = r.to_github();
        assert!(
            s.contains("::error file=crates/a/src/x.rs,line=7,title=lint L13::"),
            "{s}"
        );
        assert!(s.contains("50%25 of cases%0Asecond line"), "{s}");
        assert!(
            s.contains("::warning title=stale lint allow::stale entry"),
            "{s}"
        );
        assert!(s.contains("1 violation(s), 1 stale allow(s)"));
    }

    #[test]
    fn end_to_end_over_a_temp_tree() {
        let dir = std::env::temp_dir().join("xtask-lint-e2e");
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        // One bare L8 finding, one excused by a marker on its line and
        // one by a marker on the line above.
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() }\n\
             pub fn g(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() } // lint:allow(L8)\n\
             // lint:allow(L8) audited\n\
             pub fn h(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() }\n",
        )
        .expect("write");
        let report = run(&dir).expect("runs");
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "L8");
        assert_eq!(report.violations[0].line, 1);
        assert_eq!(report.allowlisted, 2);
        assert!(report.stale_allow.is_empty(), "{:?}", report.stale_allow);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_markers_are_reported() {
        let dir = std::env::temp_dir().join("xtask-lint-stale");
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        // The first marker excuses the finding on its line; the second
        // names the wrong rule, and the third has no finding near it.
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() } // lint:allow(L8)\n\
             \n\
             pub fn g(a: f32, b: f32) -> bool { a.partial_cmp(&b).is_some() } // lint:allow(L9)\n\
             \n\
             pub fn h() -> u8 { 1 } // lint:allow(L8)\n",
        )
        .expect("write");
        let report = run(&dir).expect("runs");
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].line, 3);
        assert_eq!(report.allowlisted, 1);
        assert_eq!(report.stale_allow.len(), 2, "{:?}", report.stale_allow);
        assert!(report.stale_allow[0].contains("lint:allow(L9)` at crates/demo/src/lib.rs:3"));
        assert!(report.stale_allow[1].contains("lint:allow(L8)` at crates/demo/src/lib.rs:5"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
