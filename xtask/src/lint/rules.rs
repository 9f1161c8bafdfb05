//! The workspace lint rules that clippy cannot express: L4, L6/L12, L8,
//! L9, L11 and L13.
//!
//! Each rule walks a [`SourceFile`]'s token stream and scope facts and
//! returns violations. Rationale and the escape hatch for every rule
//! live in DESIGN.md §Correctness tooling. The missing numbers, L1, L2,
//! L3, L5, L7 and L10, are clippy lints (`Cargo.toml`'s
//! `[workspace.lints.clippy]` and `clippy.toml`).

use super::lex::Kind;
use super::source::SourceFile;
use super::Violation;

/// Scope decisions derived from a file's workspace-relative path.
pub struct FileScope {
    /// Crate directory name under `crates/` (e.g. `tensor`).
    pub crate_name: String,
}

impl FileScope {
    /// Derives the scope from a `crates/<name>/src/...` relative path.
    pub fn of(rel_path: &str) -> FileScope {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        FileScope { crate_name }
    }
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let scope = FileScope::of(&file.rel_path);
    let sig = Sig::new(file);
    let mut v = Vec::new();
    v.extend(l4_shapes_doc(file, &scope));
    v.extend(l6_l12_no_loop_allocs(file, &sig));
    v.extend(l8_float_reductions(file, &sig));
    v.extend(l9_lock_discipline(file, &sig, &scope));
    v.extend(l11_shape_cross_check(file, &scope));
    v.extend(l13_isa_containment(file, &sig));
    v
}

fn violation(
    file: &SourceFile,
    rule: &'static str,
    span: (usize, usize),
    msg: String,
) -> Violation {
    Violation {
        rule,
        path: file.rel_path.clone(),
        line: file.line_of(span.0),
        span,
        message: msg,
    }
}

/// The significant (non-trivia) tokens of a file, indexable for
/// sequence matching.
struct Sig<'a> {
    toks: Vec<&'a super::lex::Token>,
    src: &'a str,
}

impl<'a> Sig<'a> {
    fn new(file: &'a SourceFile) -> Sig<'a> {
        Sig {
            toks: file.significant().collect(),
            src: &file.raw,
        }
    }

    fn text(&self, i: usize) -> &'a str {
        self.toks.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn kind(&self, i: usize) -> Option<Kind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn span(&self, i: usize) -> (usize, usize) {
        self.toks.get(i).map(|t| (t.start, t.end)).unwrap_or((0, 0))
    }

    /// Indices of Ident tokens with the given text.
    fn idents(&self, name: &str) -> Vec<usize> {
        self.toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == Kind::Ident && t.text(self.src) == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the tokens at `i` spell `seg0 :: seg1 :: …`. Returns the
    /// index one past the match.
    fn match_path(&self, i: usize, segs: &[&str]) -> Option<usize> {
        let mut j = i;
        for (k, seg) in segs.iter().enumerate() {
            if k > 0 {
                if self.text(j) != ":" || self.text(j + 1) != ":" {
                    return None;
                }
                j += 2;
            }
            if self.kind(j) != Some(Kind::Ident) || self.text(j) != *seg {
                return None;
            }
            j += 1;
        }
        Some(j)
    }

    /// Whether the token at `i` is preceded by a `.` (method call /
    /// field access rather than a free or path call).
    fn preceded_by_dot(&self, i: usize) -> bool {
        i > 0 && self.text(i - 1) == "."
    }

    /// Whether the token at `i` is preceded by `fn` (a definition, not
    /// a call).
    fn preceded_by_fn(&self, i: usize) -> bool {
        i > 0 && self.text(i - 1) == "fn"
    }
}

/// L4: public tensor-consuming functions in `rhsd-nn`/`rhsd-core` must
/// document their expected shapes in a `/// Shapes:` doc section.
fn l4_shapes_doc(file: &SourceFile, scope: &FileScope) -> Vec<Violation> {
    if scope.crate_name != "nn" && scope.crate_name != "core" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &file.scopes.fns {
        if !f.is_pub || file.in_test(f.fn_kw) {
            continue;
        }
        let params = &file.code[f.params.0..f.params.1];
        if word_offsets(params, "Tensor").next().is_none() {
            continue;
        }
        if !doc_block_mentions_shapes(file, f.fn_kw) {
            out.push(violation(
                file,
                "L4",
                (f.fn_kw, f.fn_kw + 2),
                format!(
                    "public tensor-consuming fn `{}` lacks a `/// Shapes:` doc section",
                    f.name
                ),
            ));
        }
    }
    out
}

/// Files subject to the L12 extension of the no-loop-alloc rule: the
/// litho aerial/window simulation, the region-scan paths of rhsd-core
/// and rhsd-serve, the detection heads (CPN, refinement, h-NMS and the
/// network glue between them) and the tensor indexing they read
/// through.
const L12_FILES: &[&str] = &[
    "crates/litho/src/aerial.rs",
    "crates/litho/src/window.rs",
    "crates/core/src/extractor.rs",
    "crates/core/src/detector.rs",
    "crates/core/src/cpn.rs",
    "crates/core/src/model.rs",
    "crates/core/src/refine.rs",
    "crates/core/src/hnms.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/server.rs",
    "crates/tensor/src/shape.rs",
    "crates/tensor/src/tensor.rs",
];

/// L6 + L12: no buffer allocation (`vec![..]` / `Vec::with_capacity`)
/// inside loop bodies on hot paths.
///
/// The hot kernels draw scratch from `rhsd_tensor::workspace` so
/// steady-state inference performs zero heap allocations; a `vec!` inside
/// a `for`/`while`/`loop` body re-pays the allocator on every iteration.
/// One-time allocations before the loop (and the workspace pool itself,
/// which lives outside `ops/`) are fine. L6 covers the tensor op kernels
/// (`crates/tensor/src/ops/`); L12 extends the same check to the litho
/// aerial/window simulation, the core scan loops, the detection heads
/// and `Shape`/`Tensor` indexing, now that loop detection is
/// token-accurate.
fn l6_l12_no_loop_allocs(file: &SourceFile, sig: &Sig) -> Vec<Violation> {
    let rule: &'static str = if file.rel_path.starts_with("crates/tensor/src/ops/") {
        "L6"
    } else if L12_FILES.contains(&file.rel_path.as_str()) {
        "L12"
    } else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut sites: Vec<(usize, &str)> = Vec::new();
    for i in sig.idents("vec") {
        if sig.text(i + 1) == "!" {
            sites.push((i, "`vec!`"));
        }
    }
    for i in sig.idents("Vec") {
        if sig.match_path(i, &["Vec", "with_capacity"]).is_some() {
            sites.push((i, "`Vec::with_capacity`"));
        }
    }
    for (i, label) in sites {
        let (start, _) = sig.span(i);
        if file.in_test(start) || !file.scopes.in_loop(start) {
            continue;
        }
        out.push(violation(
            file,
            rule,
            sig.span(i),
            format!("{label} inside a hot loop; hoist it or take scratch from the Workspace pool"),
        ));
    }
    out.sort_by_key(|v| v.span.0);
    out
}

/// The module allowed to hold order-sensitive float reductions: it pins
/// the reduction order explicitly and everything else calls into it.
const L8_EXEMPT: &str = "crates/tensor/src/ops/reduce.rs";

/// L8: no order-sensitive float reductions outside the pinned `reduce`
/// helpers.
///
/// `.sum::<f32>()`, float-seeded `fold`s and `partial_cmp` comparators
/// all change results under re-ordering (or misorder NaN), which breaks
/// the bit-identical-at-any-thread-count invariant the determinism
/// tests pin. Sums/maxes go through `rhsd_tensor::ops::reduce`
/// (sequential, pinned order); float sorts use `total_cmp`.
fn l8_float_reductions(file: &SourceFile, sig: &Sig) -> Vec<Violation> {
    if file.rel_path == L8_EXEMPT {
        return Vec::new();
    }
    let mut out = Vec::new();
    // `.sum::<f32>()` / `.product::<f64>()` turbofish over floats.
    for word in ["sum", "product"] {
        for i in sig.idents(word) {
            let (start, _) = sig.span(i);
            if file.in_test(start) {
                continue;
            }
            // Pattern: sum :: < f32|f64
            if sig.text(i + 1) == ":"
                && sig.text(i + 2) == ":"
                && sig.text(i + 3) == "<"
                && matches!(sig.text(i + 4), "f32" | "f64")
            {
                out.push(violation(
                    file,
                    "L8",
                    sig.span(i),
                    format!(
                        "order-sensitive float `.{word}::<{}>()`; use rhsd_tensor::ops::reduce (pinned order)",
                        sig.text(i + 4)
                    ),
                ));
            }
        }
    }
    // `.fold(<float literal>, …)` — a float accumulator seeded inline.
    for i in sig.idents("fold") {
        let (start, _) = sig.span(i);
        if file.in_test(start) || sig.text(i + 1) != "(" {
            continue;
        }
        let mut j = i + 2;
        if sig.text(j) == "-" {
            j += 1;
        }
        let is_float_lit = sig.kind(j) == Some(Kind::Num) && {
            let t = sig.text(j);
            t.contains('.') || t.ends_with("f32") || t.ends_with("f64")
        };
        let is_float_const = matches!(sig.text(j), "f32" | "f64")
            && sig.text(j + 1) == ":"
            && sig.text(j + 2) == ":";
        if is_float_lit || is_float_const {
            out.push(violation(
                file,
                "L8",
                sig.span(i),
                "order-sensitive float `fold`; use rhsd_tensor::ops::reduce (pinned order)"
                    .to_string(),
            ));
        }
    }
    // `partial_cmp` comparators: not total over floats (NaN), and the
    // usual `unwrap_or(Equal)` fallback silently reorders.
    for i in sig.idents("partial_cmp") {
        let (start, _) = sig.span(i);
        if file.in_test(start) {
            continue;
        }
        out.push(violation(
            file,
            "L8",
            sig.span(i),
            "`partial_cmp` is not a total order over floats; use `total_cmp`".to_string(),
        ));
    }
    out.sort_by_key(|v| v.span.0);
    out
}

/// A global-lock class in the observability/parallelism layer.
///
/// `acquirers` are the functions that return the class's guard;
/// `entries` are functions whose call acquires the lock internally.
/// Entry names marked `true` are matched even as method calls
/// (`sw.stop_into(...)`); unmarked names only match free/path calls so
/// generic method names (`.record(…)`, `.close(…)`) don't false-fire.
/// `crates` limits where the class's names are meaningful — `global()`
/// is the ledger sink in rhsd-obs but the pool storage in rhsd-par.
struct LockClass {
    name: &'static str,
    crates: &'static [&'static str],
    acquirers: &'static [&'static str],
    entries: &'static [(&'static str, bool)],
}

const LOCK_CLASSES: &[LockClass] = &[
    LockClass {
        name: "registry",
        crates: &["obs", "par"],
        acquirers: &["registry"],
        entries: &[
            ("counter", false),
            ("record", false),
            ("snapshot", false),
            ("span_tree", false),
            ("stop_into", true),
        ],
    },
    LockClass {
        name: "ledger",
        crates: &["obs"],
        acquirers: &["global"],
        entries: &[("emit", false), ("close", false)],
    },
    LockClass {
        name: "pool",
        crates: &["par"],
        acquirers: &["lock"],
        entries: &[],
    },
];

/// L9: lock discipline across the global locks in `rhsd-obs`/`rhsd-par`.
///
/// The observability layer has three process-global locks (metrics
/// registry, ledger sink, pool queue). They are safe only because no function holds one while
/// taking another — PR 3 recorded that as a comment; this rule checks
/// it. Per function, a lexical call-edge approximation: after a call
/// that *acquires* class A's guard, any later call in the same body
/// that enters class B (B ≠ A) is flagged. Functions that do the
/// cross-class call *before* acquiring their own lock (the "never
/// nest" ordering) pass. The guard may in fact be dropped earlier than
/// the fn end — when that is provable, the site carries an inline
/// `// lint:allow(L9)` with the argument.
fn l9_lock_discipline(file: &SourceFile, sig: &Sig, scope: &FileScope) -> Vec<Violation> {
    if scope.crate_name != "obs" && scope.crate_name != "par" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &file.scopes.fns {
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        if file.in_test(f.fn_kw) {
            continue;
        }
        // (class index, token index) of acquisitions seen so far.
        let mut held: Vec<(usize, usize)> = Vec::new();
        for (i, t) in sig.toks.iter().enumerate() {
            if t.start < body_start || t.start >= body_end {
                continue;
            }
            if t.kind != Kind::Ident || sig.text(i + 1) != "(" {
                continue;
            }
            let name = t.text(sig.src);
            if sig.preceded_by_fn(i) {
                continue; // nested definition, not a call
            }
            let is_method = sig.preceded_by_dot(i);
            for (ci, class) in LOCK_CLASSES.iter().enumerate() {
                if !class.crates.iter().any(|c| *c == scope.crate_name) {
                    continue;
                }
                let acquires = !is_method && class.acquirers.contains(&name);
                let enters = acquires
                    || class
                        .entries
                        .iter()
                        .any(|&(e, as_method)| e == name && (as_method || !is_method));
                if !enters {
                    continue;
                }
                for &(held_ci, _) in &held {
                    if held_ci != ci {
                        out.push(violation(
                            file,
                            "L9",
                            (t.start, t.end),
                            format!(
                                "fn `{}` calls `{name}` (takes the {} lock) after acquiring the {} lock; never nest the global locks",
                                f.name,
                                class.name,
                                LOCK_CLASSES[held_ci].name,
                            ),
                        ));
                    }
                }
                if acquires {
                    held.push((ci, i));
                }
            }
        }
    }
    out.sort_by_key(|v| v.span.0);
    out
}

/// L11: `Shapes:` docs must agree with the fn signature.
///
/// L4 makes public tensor-consuming fns *have* a Shapes section; L11
/// keeps it honest: every `` `name` is `…` `` expression in the doc must
/// name a real parameter, and every Tensor-typed parameter must appear
/// in the doc, so renames and added arguments can't silently strand the
/// contract.
fn l11_shape_cross_check(file: &SourceFile, scope: &FileScope) -> Vec<Violation> {
    if scope.crate_name != "nn" && scope.crate_name != "core" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &file.scopes.fns {
        if !f.is_pub || file.in_test(f.fn_kw) {
            continue;
        }
        let doc = doc_block(file, f.fn_kw);
        if !doc.iter().any(|l| l.contains("Shapes:")) {
            continue; // L4's department
        }
        let params = param_names_and_types(&file.code[f.params.0..f.params.1]);
        let names: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
        // Direction 1: documented names must exist in the signature.
        for l in &doc {
            for name in documented_names(l) {
                if name != "returns" && name != "result" && name != "self" && !names.contains(&name)
                {
                    out.push(violation(
                        file,
                        "L11",
                        (f.fn_kw, f.fn_kw + 2),
                        format!(
                            "Shapes doc of `{}` describes `{name}`, which is not a parameter (doc drifted from signature?)",
                            f.name
                        ),
                    ));
                }
            }
        }
        // Direction 2: every Tensor parameter must be described.
        for (name, ty) in &params {
            if word_offsets(ty, "Tensor").next().is_none() {
                continue;
            }
            let tick = format!("`{name}`");
            if !doc.iter().any(|l| l.contains(&tick)) {
                out.push(violation(
                    file,
                    "L11",
                    (f.fn_kw, f.fn_kw + 2),
                    format!(
                        "Shapes doc of `{}` does not describe tensor parameter `{name}`",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

/// The one tree allowed to contain ISA-specific code: the
/// runtime-dispatched SIMD micro-kernels.
const L13_ISA_PREFIX: &str = "crates/tensor/src/ops/kernels/";

/// The one file allowed to probe CPU features: the `Isa` selector.
const L13_DETECT_FILE: &str = "crates/tensor/src/ops/kernels/mod.rs";

/// L13: ISA-specific code is contained in the kernels module.
///
/// `core::arch`/`std::arch` paths, `_mm*` intrinsics and
/// `#[target_feature]` may appear only under
/// `crates/tensor/src/ops/kernels/`, and `is_x86_feature_detected!`
/// only in the selector (`kernels/mod.rs`): every other dispatch site
/// must go through the single `rhsd_tensor::ops::kernels::Isa` selector
/// so forced-scalar mode (`RHSD_FORCE_SCALAR=1`) and the bitwise
/// scalar/SIMD equivalence tests cover *all* vector code. `unsafe` inside the kernels still
/// needs its `// SAFETY:` comment and `# Safety` doc — clippy's department.
fn l13_isa_containment(file: &SourceFile, sig: &Sig) -> Vec<Violation> {
    let allowed = file.rel_path.starts_with(L13_ISA_PREFIX);
    let may_detect = file.rel_path == L13_DETECT_FILE;
    if allowed && may_detect {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in sig.toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let name = t.text(sig.src);
        if !may_detect && name == "is_x86_feature_detected" {
            out.push(violation(
                file,
                "L13",
                sig.span(i),
                "CPU feature probing outside the Isa selector; dispatch through \
                 `rhsd_tensor::ops::kernels::isa()` so forced-scalar mode stays authoritative"
                    .to_owned(),
            ));
            continue;
        }
        if allowed {
            continue;
        }
        if (name == "core" || name == "std") && sig.match_path(i, &[name, "arch"]).is_some() {
            out.push(violation(
                file,
                "L13",
                sig.span(i),
                format!(
                    "`{name}::arch` outside `{L13_ISA_PREFIX}`; ISA-specific code lives in the \
                     kernels module behind the Isa selector"
                ),
            ));
        } else if name.starts_with("_mm") {
            out.push(violation(
                file,
                "L13",
                sig.span(i),
                format!(
                    "intrinsic `{name}` outside `{L13_ISA_PREFIX}`; call the dispatched \
                     kernels (`weight_tile`, `conv_taps`, …) instead"
                ),
            ));
        } else if name == "target_feature" {
            out.push(violation(
                file,
                "L13",
                sig.span(i),
                format!(
                    "`#[target_feature]` outside `{L13_ISA_PREFIX}`; feature-gated fns belong \
                     next to the kernels so the scalar reference stays side by side"
                ),
            ));
        }
    }
    out.sort_by_key(|v| v.span.0);
    out
}

/// Byte offsets of word-boundary occurrences of `word` in `code`.
fn word_offsets<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    code.match_indices(word).filter_map(move |(i, _)| {
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after = i + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        (before_ok && after_ok).then_some(i)
    })
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The doc-comment block attached to the item whose first keyword sits
/// at byte `item_off` — walks the token stream backward over
/// whitespace, visibility/qualifier keywords, attributes (bracket-
/// matched, so multi-line `#[cfg_attr(…)]` is fine) and plain comments,
/// collecting doc-comment text in source order.
fn doc_block(file: &SourceFile, item_off: usize) -> Vec<String> {
    let Ok(idx) = file.tokens.binary_search_by(|t| t.start.cmp(&item_off)) else {
        return Vec::new();
    };
    let mut lines: Vec<String> = Vec::new();
    let mut bracket_depth = 0usize;
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[j];
        let text = t.text(&file.raw);
        if bracket_depth > 0 {
            // Inside an attribute, consumed right-to-left.
            match text {
                "]" => bracket_depth += 1,
                "[" => bracket_depth -= 1,
                _ => {}
            }
            continue;
        }
        match t.kind {
            Kind::Ws => {}
            Kind::LineComment | Kind::BlockComment => {
                if t.is_doc(&file.raw) {
                    lines.push(
                        text.trim_start_matches('/')
                            .trim_start_matches('*')
                            .trim_start_matches('!')
                            .trim_end_matches('/')
                            .trim_end_matches('*')
                            .to_string(),
                    );
                }
                // plain comments between doc and item are skipped
            }
            Kind::Ident if matches!(text, "pub" | "const" | "unsafe" | "async" | "extern") => {}
            Kind::Str => {} // the ABI string of `extern "C"`
            Kind::Punct if text == "]" => bracket_depth += 1,
            Kind::Punct if text == "#" => {} // the `#` of a consumed attribute
            _ => break,
        }
    }
    lines.reverse();
    lines
}

/// Whether the doc block above the item at `item_off` has a `Shapes:`
/// section.
fn doc_block_mentions_shapes(file: &SourceFile, item_off: usize) -> bool {
    doc_block(file, item_off)
        .iter()
        .any(|l| l.contains("Shapes:"))
}

/// Backticked names that a doc line *describes*: `` `x` is `…` `` or
/// `` `x` and `y` are `…` ``.
fn documented_names(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('`') else { break };
        let name = &tail[..close];
        let after = tail[close + 1..].trim_start();
        if !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && (after.starts_with("is ")
                || after.starts_with("are ")
                || after.starts_with("and ")
                || after.starts_with(", "))
        {
            out.push(name);
        }
        rest = &tail[close + 1..];
    }
    out
}

/// Splits a parameter list into `(name, type)` pairs. Top-level commas
/// only; `self` receivers are reported as `("self", "")`.
fn param_names_and_types(params: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let bytes = params.as_bytes();
    let mut parts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                parts.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&params[start..]);
    for p in parts {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        if p.ends_with("self") {
            out.push(("self".to_string(), String::new()));
            continue;
        }
        let Some((name, ty)) = p.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim().to_string();
        out.push((name, ty.trim().to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        check_file(&SourceFile::new(path, src))
    }

    fn rules(v: &[Violation]) -> Vec<&str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn l4_requires_shapes_doc_on_public_tensor_fns() {
        let bad = "/// Does things.\npub fn f(x: &Tensor) -> f32 { 0.0 }\n";
        let good = "/// Does things.\n///\n/// Shapes: `x` is `[n, 4]`.\npub fn f(x: &Tensor) -> f32 { 0.0 }\n";
        assert_eq!(rules(&lint("crates/nn/src/a.rs", bad)), vec!["L4"]);
        assert!(lint("crates/nn/src/a.rs", good).is_empty());
        // Other crates are out of scope.
        assert!(lint("crates/layout/src/a.rs", bad).is_empty());
    }

    #[test]
    fn l4_skips_private_and_pub_crate_and_tensorless_fns() {
        let src = "fn f(x: &Tensor) {}\npub(crate) fn g(x: &Tensor) {}\npub fn h(n: usize) {}\n";
        assert!(lint("crates/nn/src/a.rs", src).is_empty());
    }

    #[test]
    fn l6_flags_loop_allocs_only_under_tensor_ops() {
        let bad = "fn f(n: usize) {\n    for _i in 0..n {\n        let v = vec![0.0f32; n];\n        let mut w: Vec<f32> = Vec::with_capacity(n);\n        w.push(v[0]);\n    }\n}\n";
        let v = lint("crates/tensor/src/ops/a.rs", bad);
        assert_eq!(rules(&v), vec!["L6", "L6"]);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("Workspace"));
        // the workspace pool itself and other crates are out of scope
        assert!(lint("crates/tensor/src/workspace.rs", bad).is_empty());
        assert!(lint("crates/nn/src/layers/a.rs", bad).is_empty());
    }

    #[test]
    fn l6_ignores_allocs_outside_loops_and_in_tests() {
        let src = "fn f(n: usize) -> Vec<f32> {\n    let v = vec![0.0f32; n];\n    let _w: Vec<f32> = Vec::with_capacity(n);\n    v\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { for _ in 0..3 { let _v = vec![1]; } }\n}\n";
        assert!(lint("crates/tensor/src/ops/a.rs", src).is_empty());
    }

    #[test]
    fn l6_impl_for_is_not_a_loop() {
        let src = "impl Kernel for Packed {\n    fn f(&self, n: usize) -> Vec<f32> {\n        vec![0.0f32; n]\n    }\n}\n";
        assert!(lint("crates/tensor/src/ops/a.rs", src).is_empty());
        let nested = "impl Kernel for Packed {\n    fn f(&self, n: usize) {\n        while n > 0 {\n            let _v = vec![0.0f32; n];\n        }\n    }\n}\n";
        assert_eq!(
            rules(&lint("crates/tensor/src/ops/a.rs", nested)),
            vec!["L6"]
        );
    }

    #[test]
    fn l4_handles_multiline_signatures_and_attrs() {
        let bad =
            "/// Doc.\n#[inline]\npub fn f(\n    x: &Tensor,\n    n: usize,\n) -> f32 { 0.0 }\n";
        let good =
            "/// Shapes: `x` is `[n]`.\n#[inline]\npub fn f(\n    x: &Tensor,\n) -> f32 { 0.0 }\n";
        assert_eq!(rules(&lint("crates/core/src/a.rs", bad)), vec!["L4"]);
        assert!(lint("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn l8_flags_float_turbofish_sums() {
        let v = lint(
            "crates/data/src/a.rs",
            "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\nfn g(xs: &[f64]) -> f64 { xs.iter().product::<f64>() }\n",
        );
        assert_eq!(rules(&v), vec!["L8", "L8"]);
        assert!(v[0].message.contains("reduce"));
        // Integer reductions are order-insensitive and fine.
        let ok = "fn f(xs: &[u32]) -> u32 { xs.iter().sum::<u32>() }";
        assert!(lint("crates/data/src/a.rs", ok).is_empty());
    }

    #[test]
    fn l8_flags_float_seeded_folds_and_partial_cmp() {
        let v = lint(
            "crates/data/src/a.rs",
            "fn f(xs: &[f32]) -> f32 { xs.iter().fold(0.0f32, |a, &b| a.max(b)) }\n\
             fn g(xs: &[f64]) -> f64 { xs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)) }\n\
             fn h(xs: &mut [f32]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n",
        );
        assert_eq!(rules(&v), vec!["L8", "L8", "L8"]);
        assert!(v[2].message.contains("total_cmp"));
        // Integer folds and non-float seeds don't fire.
        let ok = "fn f(xs: &[u32]) -> u32 { xs.iter().fold(0, |a, &b| a + b) }";
        assert!(lint("crates/data/src/a.rs", ok).is_empty());
    }

    #[test]
    fn l8_exempts_reduce_module_and_tests() {
        let sums = "pub fn s(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
        assert!(lint("crates/tensor/src/ops/reduce.rs", sums).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests { fn t(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() } }";
        assert!(lint("crates/data/src/a.rs", in_test).is_empty());
    }

    #[test]
    fn l9_flags_entry_after_acquire_of_other_class() {
        let src = "fn f() {\n    let mut reg = registry();\n    reg.push(1);\n    emit(&e);\n}\n";
        let v = lint("crates/obs/src/a.rs", src);
        assert_eq!(rules(&v), vec!["L9"]);
        assert!(v[0].message.contains("ledger"));
        assert!(v[0].message.contains("registry"));
    }

    #[test]
    fn l9_accepts_never_nest_ordering() {
        // Cross-class call *before* taking our own lock: the correct
        // pattern (ledger::close, SpanGuard::drop) must pass.
        let src = "fn close() {\n    let snap = snapshot();\n    let mut g = global();\n    g.write(&snap);\n}\n";
        assert!(lint("crates/obs/src/ledger.rs", src).is_empty());
    }

    #[test]
    fn l9_same_class_reentry_not_flagged_and_methods_ignored() {
        // Two acquisitions of the same class are the reentrancy bug
        // Mutex already catches at runtime; L9 only covers cross-class
        // nesting. Method calls with entry-like names don't fire.
        let src = "fn f() {\n    let a = registry();\n    let b = snapshot();\n    tx.close();\n    file.record(1);\n}\n";
        assert!(lint("crates/obs/src/a.rs", src).is_empty());
    }

    #[test]
    fn l9_pool_lock_vs_obs_counters() {
        let src =
            "fn worker() {\n    let mut q = lock(&self.queue);\n    counter(\"parks\", 1);\n}\n";
        let v = lint("crates/par/src/a.rs", src);
        assert_eq!(rules(&v), vec!["L9"]);
        // Outside obs/par the rule is off entirely.
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn l11_flags_doc_signature_drift() {
        // Doc names a parameter that no longer exists.
        let drifted = "/// Shapes: `old` is `[n, 4]`.\npub fn f(x: &Tensor) -> f32 { 0.0 }\n";
        let v = lint("crates/nn/src/a.rs", drifted);
        assert!(rules(&v).contains(&"L11"), "{v:?}");
        // Tensor parameter missing from the doc.
        let missing =
            "/// Shapes: `x` is `[n, 4]`.\npub fn f(x: &Tensor, y: &Tensor) -> f32 { 0.0 }\n";
        let v = lint("crates/nn/src/a.rs", missing);
        assert!(rules(&v).contains(&"L11"), "{v:?}");
        // Consistent doc passes.
        let good = "/// Shapes: `x` is `[n, 4]`, `y` is `[n]`.\npub fn f(x: &Tensor, y: &Tensor) -> f32 { 0.0 }\n";
        assert!(lint("crates/nn/src/a.rs", good).is_empty());
    }

    #[test]
    fn l11_only_applies_where_l4_does() {
        let drifted = "/// Shapes: `old` is `[n]`.\npub fn f(x: &Tensor) {}\n";
        assert!(lint("crates/litho/src/a.rs", drifted).is_empty());
        let private = "/// Shapes: `old` is `[n]`.\nfn f(x: &Tensor) {}\n";
        assert!(lint("crates/nn/src/a.rs", private).is_empty());
    }

    #[test]
    fn l12_extends_loop_alloc_rule_to_scan_paths() {
        let bad =
            "fn f(n: usize) {\n    for _ in 0..n {\n        let _v = vec![0.0f32; n];\n    }\n}\n";
        let v = lint("crates/litho/src/aerial.rs", bad);
        assert_eq!(rules(&v), vec!["L12"]);
        let v = lint("crates/core/src/extractor.rs", bad);
        assert_eq!(rules(&v), vec!["L12"]);
        // The detection heads and tensor indexing are on the list too.
        for path in [
            "crates/core/src/cpn.rs",
            "crates/core/src/model.rs",
            "crates/core/src/refine.rs",
            "crates/core/src/hnms.rs",
            "crates/tensor/src/shape.rs",
            "crates/tensor/src/tensor.rs",
        ] {
            assert_eq!(rules(&lint(path, bad)), vec!["L12"], "{path}");
        }
        // Test code in those files is exempt.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
        assert!(lint("crates/core/src/cpn.rs", &in_test).is_empty());
        // Not on the curated hot-path list → no rule.
        assert!(lint("crates/core/src/train.rs", bad).is_empty());
    }

    #[test]
    fn l13_flags_isa_code_outside_kernels() {
        let bad = "#[target_feature(enable = \"avx2\")]\n\
             unsafe fn f(a: &[f32]) { use core::arch::x86_64::*; let _ = _mm256_setzero_ps(); }\n\
             fn g() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n";
        let v = lint("crates/nn/src/layers/conv2d.rs", bad);
        // target_feature, core::arch, _mm256…, std::arch, the probe macro.
        assert_eq!(rules(&v), vec!["L13"; 5], "{v:?}");
        assert!(v[0].message.contains("target_feature"), "{v:?}");
        assert!(
            v.iter().any(|x| x.message.contains("Isa selector")),
            "{v:?}"
        );
    }

    #[test]
    fn l13_allows_only_the_kernels_module() {
        let simd = "#[target_feature(enable = \"avx2\")]\n\
             unsafe fn f() { use core::arch::x86_64::*; let _ = _mm256_setzero_ps(); }\n";
        assert!(lint("crates/tensor/src/ops/kernels/x86.rs", simd).is_empty());
        // Anywhere else target_feature, core::arch and _mm256… all fire.
        assert_eq!(
            rules(&lint("crates/litho/src/kernel.rs", simd)),
            vec!["L13"; 3]
        );
        // Feature probing is narrower still: selector file only.
        let probe = "fn s() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n";
        assert!(lint("crates/tensor/src/ops/kernels/mod.rs", probe).is_empty());
        let v = lint("crates/tensor/src/ops/kernels/x86.rs", probe);
        assert_eq!(rules(&v), vec!["L13"]);
        // Outside the kernels tree both the `std::arch` path and the
        // probe itself fire.
        assert_eq!(
            rules(&lint("crates/litho/src/aerial.rs", probe)),
            vec!["L13"; 2]
        );
    }

    #[test]
    fn param_parsing_handles_nesting_and_self() {
        let ps = param_names_and_types("&self, x: &Tensor, f: impl Fn(u8, u8) -> u8, n: usize");
        let names: Vec<&str> = ps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["self", "x", "f", "n"]);
        assert_eq!(ps[1].1, "&Tensor");
    }

    #[test]
    fn documented_names_parses_shape_expressions() {
        assert_eq!(
            documented_names("Shapes: `x` is `[n, 4]`, `y` is `[n]`."),
            vec!["x", "y"]
        );
        assert_eq!(
            documented_names("Shapes: `a` and `b` are `[c, h, w]`."),
            vec!["a", "b"]
        );
        // Backticked type/expr mentions without "is/are" are not names.
        assert!(documented_names("returns `[n, 4]` boxes").is_empty());
    }
}
