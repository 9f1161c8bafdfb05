//! Item/brace-scope analysis over the token stream.
//!
//! One linear pass over the [`crate::lint::lex`] tokens recovers the
//! structure the rules need without a full parse:
//!
//! - **function items** — name, visibility, parameter-list span and body
//!   span (brace-matched, nesting included);
//! - **`#[cfg(test)]` / `#[test]` subtrees** — byte ranges covered by
//!   test-only items, so rules can skip them;
//! - **loop bodies** — brace spans opened by `for`/`while`/`loop`
//!   headers, with `impl Trait for Type` and `for<'a>` higher-ranked
//!   bounds recognised so their `for` never counts as a loop.
//!
//! Brace matching is exact over the token stream (string/char/comment
//! contents can no longer unbalance it, unlike the old line-stripping
//! heuristics), which is what makes loop-accurate rules like L6/L12
//! feasible outside carefully curated directories.

use super::lex::{Kind, Token};

/// One `fn` item (free function, inherent/trait method, nested fn).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub fn_kw: usize,
    /// Whether the item is written plain `pub` (not `pub(crate)`/
    /// `pub(super)`, which are not public API).
    pub is_pub: bool,
    /// Byte span of the parameter list, *excluding* the parentheses.
    pub params: (usize, usize),
    /// Byte span of the body including braces; `None` for bodyless
    /// declarations (trait methods, extern blocks).
    pub body: Option<(usize, usize)>,
}

/// The scope facts for one file.
#[derive(Debug, Default)]
pub struct Scopes {
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Byte ranges (half-open) covered by `#[cfg(test)]`/`#[test]` items,
    /// from the attribute to the item's closing brace or semicolon.
    pub test_regions: Vec<(usize, usize)>,
    /// Brace spans (including braces) of `for`/`while`/`loop` bodies.
    pub loop_bodies: Vec<(usize, usize)>,
}

impl Scopes {
    /// Whether `offset` falls inside a test-only item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= offset && offset < b)
    }

    /// Whether `offset` falls inside a loop body.
    pub fn in_loop(&self, offset: usize) -> bool {
        self.loop_bodies
            .iter()
            .any(|&(a, b)| a <= offset && offset < b)
    }
}

/// What a `{` belonged to when it was opened.
#[derive(Debug, Clone, Copy)]
enum BraceKind {
    Plain,
    /// Loop body; payload is the loop keyword's byte offset.
    Loop(usize),
    /// Body of the fn at this index in `Scopes::fns`.
    FnBody(usize),
    /// Body of a `#[cfg(test)]`/`#[test]` item; payload is the region
    /// start (the attribute's `#`).
    Test(usize),
}

/// Runs the scope analysis. `tokens` must be the lex of `src`.
pub fn analyze(src: &str, tokens: &[Token]) -> Scopes {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let mut scopes = Scopes::default();
    let mut braces: Vec<BraceKind> = Vec::new();
    // Pending classification for the next `{` at paren/bracket depth 0.
    let mut pending_loop: Option<usize> = None;
    // A test attribute waiting for its item to end; (attr start, brace
    // depth at the attribute).
    let mut pending_test: Option<(usize, usize)> = None;
    // A parsed fn signature waiting for `{` or `;`.
    let mut pending_fn: Option<usize> = None; // index into scopes.fns
                                              // Inside an `impl`/`trait` header (until its `{`): `for` is not a loop.
    let mut in_impl_header = false;
    let mut paren_depth = 0usize; // ( ) and [ ] combined

    let mut i = 0;
    while i < sig.len() {
        let tok = sig[i];
        let text = tok.text(src);
        match tok.kind {
            Kind::Ident => match text {
                "impl" | "trait" => in_impl_header = true,
                "for" | "while" | "loop" if paren_depth == 0 => {
                    // `impl Trait for Type` and `for<'a>` are not loops.
                    let hrtb = sig.get(i + 1).is_some_and(|t| t.text(src) == "<");
                    if !in_impl_header && !hrtb {
                        pending_loop = Some(tok.start);
                    }
                }
                "fn" => {
                    if let Some((item, next)) = parse_fn_sig(src, &sig, i) {
                        scopes.fns.push(item);
                        pending_fn = Some(scopes.fns.len() - 1);
                        // Continue from the token after the param list's
                        // `)` so idents inside params don't re-trigger.
                        i = next;
                        continue;
                    }
                }
                _ => {}
            },
            Kind::Punct => match text.as_bytes().first().copied() {
                Some(b'#') => {
                    // Attribute: `#[…]` (skip inner `#![…]`).
                    let mut j = i + 1;
                    let inner = sig.get(j).is_some_and(|t| t.text(src) == "!");
                    if inner {
                        j += 1;
                    }
                    if sig.get(j).is_some_and(|t| t.text(src) == "[") {
                        let close = match_bracket(src, &sig, j);
                        if !inner && pending_test.is_none() {
                            let attr_text: String = sig[j..(close + 1).min(sig.len())]
                                .iter()
                                .map(|t| t.text(src))
                                .collect();
                            if is_test_attr(&attr_text) {
                                pending_test = Some((tok.start, braces.len()));
                            }
                        }
                        i = close + 1;
                        continue;
                    }
                }
                Some(b'(' | b'[') => paren_depth += 1,
                Some(b')' | b']') => paren_depth = paren_depth.saturating_sub(1),
                Some(b'{') => {
                    let kind = if paren_depth > 0 {
                        BraceKind::Plain
                    } else if let Some(off) = pending_loop.take() {
                        BraceKind::Loop(off)
                    } else if let Some((start, depth)) = pending_test {
                        if braces.len() == depth {
                            pending_test = None;
                            pending_fn = None;
                            BraceKind::Test(start)
                        } else {
                            BraceKind::Plain
                        }
                    } else if let Some(fi) = pending_fn.take() {
                        in_impl_header = false;
                        BraceKind::FnBody(fi)
                    } else {
                        in_impl_header = false;
                        BraceKind::Plain
                    };
                    braces.push(kind);
                }
                Some(b'}') => {
                    if let Some(kind) = braces.pop() {
                        let end = tok.end;
                        match kind {
                            BraceKind::Loop(off) => {
                                // Span from the keyword so allocs in the
                                // header count too; includes the braces.
                                scopes.loop_bodies.push((off, end));
                            }
                            BraceKind::FnBody(fi) => {
                                if let Some(f) = scopes.fns.get_mut(fi) {
                                    let open = f.params.1;
                                    f.body = Some((open, end));
                                    // Refine: body starts at its `{`.
                                    if let Some(b) = body_open(src, open, end) {
                                        f.body = Some((b, end));
                                    }
                                }
                            }
                            BraceKind::Test(start) => {
                                scopes.test_regions.push((start, end));
                            }
                            BraceKind::Plain => {}
                        }
                    }
                }
                Some(b';') => {
                    // A bodyless item ends: cancel a same-depth pending
                    // test attribute (e.g. `#[cfg(test)] use …;`) and any
                    // pending fn (trait method declaration).
                    if let Some((_, depth)) = pending_test {
                        if braces.len() == depth {
                            pending_test = None;
                        }
                    }
                    pending_fn = None;
                    pending_loop = None;
                    if paren_depth == 0 {
                        in_impl_header = false;
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    scopes
}

/// Finds the byte offset of the first `{` in `src[from..to]`.
fn body_open(src: &str, from: usize, to: usize) -> Option<usize> {
    src[from..to].find('{').map(|p| from + p)
}

/// Parses the signature of the `fn` at significant-token index `at`.
/// Returns the item (body filled in later) and the index of the token
/// after the parameter list's closing paren.
fn parse_fn_sig(src: &str, sig: &[&Token], at: usize) -> Option<(FnItem, usize)> {
    let fn_kw = sig[at].start;
    let mut j = at + 1;
    let name_tok = sig.get(j)?;
    if name_tok.kind != Kind::Ident {
        return None; // `fn` in a type position (`fn()` pointers)
    }
    let name = name_tok.text(src).to_owned();
    j += 1;
    // Skip generics `<…>` (angle brackets only nest with themselves in a
    // signature's generic list).
    if sig.get(j).is_some_and(|t| t.text(src) == "<") {
        let mut depth = 0isize;
        while j < sig.len() {
            match sig[j].text(src) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "(" | ")" | "{" | "}" | ";" => return None, // malformed
                _ => {}
            }
            j += 1;
        }
    }
    if sig.get(j).is_none_or(|t| t.text(src) != "(") {
        return None;
    }
    let open = sig[j].start;
    let close_idx = match_paren(src, sig, j);
    let close = sig.get(close_idx).map_or(src.len(), |t| t.start);
    let is_pub = leading_pub(src, sig, at);
    Some((
        FnItem {
            name,
            fn_kw,
            is_pub,
            params: (open + 1, close),
            body: None,
        },
        close_idx + 1,
    ))
}

/// Whether the tokens before the `fn` at index `at` spell a plain `pub`
/// (qualifiers `const`/`unsafe`/`async`/`extern "…"` skipped;
/// `pub(crate)`-style restricted visibility does not count).
fn leading_pub(src: &str, sig: &[&Token], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match (sig[j].kind, sig[j].text(src)) {
            (Kind::Ident, "const" | "unsafe" | "async" | "extern") => continue,
            (Kind::Str, _) => continue, // the ABI string of `extern "C"`
            (Kind::Ident, "pub") => return true,
            _ => return false,
        }
    }
    false
}

/// Index of the token matching the `(` or `[` at `open_idx`.
fn match_paren(src: &str, sig: &[&Token], open_idx: usize) -> usize {
    let mut depth = 0isize;
    let mut j = open_idx;
    while j < sig.len() {
        match sig[j].text(src) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    sig.len()
}

/// Index of the token matching the `[` at `open_idx` (brackets only —
/// attribute contents may hold parens and braces freely).
fn match_bracket(src: &str, sig: &[&Token], open_idx: usize) -> usize {
    let mut depth = 0isize;
    let mut j = open_idx;
    while j < sig.len() {
        match sig[j].text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    sig.len()
}

/// Whether a whitespace-free attribute text marks a test-only item.
fn is_test_attr(compact: &str) -> bool {
    compact.starts_with("[cfg(test)")
        || compact.starts_with("[test]")
        || compact.starts_with("[cfg(all(test")
        || compact.starts_with("[cfg(any(test")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lex::lex;

    fn scopes(src: &str) -> Scopes {
        analyze(src, &lex(src))
    }

    #[test]
    fn finds_fn_items_with_visibility() {
        let src =
            "pub fn a(x: u8) {}\nfn b() {}\npub(crate) fn c() {}\npub const unsafe fn d() {}\n";
        let s = scopes(src);
        let names: Vec<(&str, bool)> = s.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            names,
            vec![("a", true), ("b", false), ("c", false), ("d", true)]
        );
        assert!(s.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn param_spans_cover_the_list() {
        let src = "pub fn f(x: &Tensor, n: usize) -> f32 { 0.0 }";
        let s = scopes(src);
        let (a, b) = s.fns[0].params;
        assert_eq!(&src[a..b], "x: &Tensor, n: usize");
    }

    #[test]
    fn generic_fns_and_trait_decls() {
        let src = "pub fn g<T: Into<Vec<u8>>>(t: T) {}\ntrait X { fn decl(&self); fn with_body(&self) {} }";
        let s = scopes(src);
        assert_eq!(s.fns.len(), 3);
        assert_eq!(&src[s.fns[0].params.0..s.fns[0].params.1], "t: T");
        assert_eq!(s.fns[1].name, "decl");
        assert!(s.fns[1].body.is_none(), "trait decl has no body");
        assert!(s.fns[2].body.is_some());
    }

    #[test]
    fn cfg_test_subtree_boundaries() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scopes(src);
        let unwrap_at = src.find("unwrap").expect("fixture");
        assert!(s.in_test(unwrap_at));
        assert!(!s.in_test(src.find("fn lib()").expect("fixture")));
        assert!(!s.in_test(src.find("fn lib2").expect("fixture")));
        // The whole mod — including the nested #[test] fn — is one region
        // starting at the mod's attribute.
        let attr_at = src.find("#[cfg(test)]").expect("fixture");
        assert!(s.test_regions.iter().any(|&(a, _)| a == attr_at));
    }

    #[test]
    fn cfg_test_attr_with_strings_and_nested_brackets() {
        // Bracket contents (strings, nested brackets) must not confuse
        // the attribute scanner.
        let src = "#[cfg_attr(test, doc = \"a ] tricky ] string\")]\nfn f() {}\n#[cfg(test)]\nfn g() { h(); }\n";
        let s = scopes(src);
        assert!(!s.in_test(src.find("fn f").expect("fixture")));
        assert!(s.in_test(src.find("h()").expect("fixture")));
    }

    #[test]
    fn cfg_test_on_bodyless_item_is_cancelled_by_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() { g(); }\n";
        let s = scopes(src);
        assert!(!s.in_test(src.find("g()").expect("fixture")));
    }

    #[test]
    fn loop_bodies_exclude_impl_for_and_hrtb() {
        let src = "impl Iterator for It {\n    fn next(&mut self) -> Option<u8> { None }\n}\nfn f<F: for<'a> Fn(&'a u8)>(g: F) {\n    for i in 0..3 { body(i); }\n    while cond() { w(); }\n    loop { l(); break; }\n}\n";
        let s = scopes(src);
        assert_eq!(s.loop_bodies.len(), 3, "{:?}", s.loop_bodies);
        assert!(s.in_loop(src.find("body").expect("fixture")));
        assert!(s.in_loop(src.find("w()").expect("fixture")));
        assert!(s.in_loop(src.find("l()").expect("fixture")));
        assert!(!s.in_loop(src.find("None").expect("fixture")));
    }

    #[test]
    fn closure_braces_in_loop_headers() {
        // The `{` inside the header's closure is at paren depth 1 and
        // must not become the loop body.
        let src = "fn f() {\n    for x in ys.iter().map(|y| { y * 2 }) {\n        inner(x);\n    }\n    after();\n}\n";
        let s = scopes(src);
        assert!(s.in_loop(src.find("inner").expect("fixture")));
        assert!(!s.in_loop(src.find("after").expect("fixture")));
    }

    #[test]
    fn labelled_loops_and_nested_loops() {
        let src = "fn f() {\n    'outer: for i in 0..3 {\n        loop {\n            if i > 1 { break 'outer; }\n        }\n    }\n}\n";
        let s = scopes(src);
        assert_eq!(s.loop_bodies.len(), 2);
        assert!(s.in_loop(src.find("break").expect("fixture")));
    }

    #[test]
    fn string_and_comment_braces_cannot_unbalance_scopes() {
        let src = "fn f() {\n    let s = \"}}}{{{\"; // }} stray {{\n    /* { */ g();\n}\nfn h() { i(); }\n";
        let s = scopes(src);
        assert_eq!(s.fns.len(), 2);
        let call = src.find("i()").expect("fixture");
        let (a, b) = s.fns[1].body.expect("h has a body");
        assert_eq!(s.fns[1].name, "h");
        assert!(a <= call && call < b);
    }
}
