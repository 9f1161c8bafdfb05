//! Hierarchical span attribution: closed spans aggregated by their full
//! stack path into a tree with inclusive/exclusive wall-clock time,
//! call counts, and a per-thread breakdown. [`crate::span_tree`] builds
//! it from the registry's per-path totals, and
//! [`crate::ledger::run_end_spans`] from the same totals as a ledger's
//! `run_end` line carries them.
//!
//! *Inclusive* time is the summed duration of every span closing at a
//! node's path. *Exclusive* time subtracts the inclusive time of the
//! node's children — the time spent at the node itself. With worker
//! threads, children run concurrently, so a node's children can sum to
//! more wall-clock than the node; exclusive time clamps at zero in that
//! case. Tree *structure* and *call counts* are identical at any
//! `rhsd-par` thread count (worker spans inherit the submitting thread's
//! path); durations remain wall-clock and machine-dependent.

use std::collections::BTreeMap;

use crate::span::PATH_SEP;

/// One node of the aggregated span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Number of spans that closed at exactly this path.
    pub count: u64,
    /// Summed duration of spans closing at this path, seconds.
    pub incl_secs: f64,
    /// `incl_secs` minus the children's inclusive time, clamped at 0
    /// (children on concurrent workers can out-sum their parent).
    pub excl_secs: f64,
    /// Inclusive seconds per logical thread id.
    pub by_thread: BTreeMap<u64, f64>,
    /// Child nodes by span name (BTreeMap: deterministic iteration).
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Counts one span of `secs` closed on thread `tid`.
    pub(crate) fn add(&mut self, secs: f64, tid: u64) {
        self.count += 1;
        self.incl_secs += secs;
        *self.by_thread.entry(tid).or_insert(0.0) += secs;
    }
}

/// The aggregated span tree of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Root nodes by span name.
    pub roots: BTreeMap<String, SpanNode>,
}

impl SpanTree {
    /// Builds the tree from per-path totals: childless nodes keyed by
    /// their full path.
    pub(crate) fn from_totals(totals: &BTreeMap<String, SpanNode>) -> Self {
        let mut tree = SpanTree::default();
        for (path, total) in totals {
            if let Some(node) = tree.node_mut(path) {
                node.count += total.count;
                node.incl_secs += total.incl_secs;
                node.by_thread.extend(&total.by_thread);
            }
        }
        tree.finish();
        tree
    }

    /// The node at `path`, created along with any missing ancestor;
    /// `None` for an empty path.
    fn node_mut(&mut self, path: &str) -> Option<&mut SpanNode> {
        if path.is_empty() {
            return None;
        }
        let mut frames = path.split(PATH_SEP);
        let mut node = self.roots.entry(frames.next()?.to_owned()).or_default();
        for frame in frames {
            node = node.children.entry(frame.to_owned()).or_default();
        }
        Some(node)
    }

    /// Fills in every node's exclusive time.
    fn finish(&mut self) {
        fn fixup(node: &mut SpanNode) {
            let mut child_incl = 0.0;
            for child in node.children.values_mut() {
                fixup(child);
                child_incl += child.incl_secs;
            }
            node.excl_secs = (node.incl_secs - child_incl).max(0.0);
        }
        for node in self.roots.values_mut() {
            fixup(node);
        }
    }

    /// Every node with its full `;`-joined path, in pre-order with
    /// children sorted by name.
    pub fn nodes(&self) -> Vec<(String, &SpanNode)> {
        fn walk<'a>(path: String, node: &'a SpanNode, out: &mut Vec<(String, &'a SpanNode)>) {
            out.push((path.clone(), node));
            for (name, child) in &node.children {
                walk(format!("{path}{PATH_SEP}{name}"), child, out);
            }
        }
        let mut out = Vec::new();
        for (name, node) in &self.roots {
            walk(name.clone(), node, &mut out);
        }
        out
    }

    /// Total inclusive seconds across the root spans.
    pub fn total_secs(&self) -> f64 {
        self.roots.values().map(|n| n.incl_secs).sum()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Deterministic `(path, count)` pairs for every node, in
    /// [`SpanTree::nodes`] order — the thread-count-invariant *shape* of
    /// the tree (durations and thread ids excluded), pinned by the
    /// determinism tests.
    pub fn shape(&self) -> Vec<(String, u64)> {
        self.nodes()
            .into_iter()
            .map(|(path, node)| (path, node.count))
            .collect()
    }

    /// The `n` nodes with the largest exclusive time, as
    /// `(path, excl_secs, count)`, descending.
    pub fn top_exclusive(&self, n: usize) -> Vec<(String, f64, u64)> {
        let mut all: Vec<(String, f64, u64)> = self
            .nodes()
            .into_iter()
            .map(|(path, node)| (path, node.excl_secs, node.count))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1));
        all.truncate(n);
        all
    }

    /// Renders the tree as indented text: one line per node with call
    /// count, inclusive/exclusive seconds and the number of distinct
    /// threads that executed it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("span tree: (no spans recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "span tree ({} total inclusive across {} root span(s))\n",
            fmt_secs(self.total_secs()),
            self.roots.len()
        ));
        fn walk(name: &str, node: &SpanNode, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth + 1);
            let label = format!("{indent}{name}");
            let threads = node.by_thread.len();
            out.push_str(&format!(
                "{label:<38} {:>8} call(s)  {:>10} incl  {:>10} excl  {} thread(s)\n",
                node.count,
                fmt_secs(node.incl_secs),
                fmt_secs(node.excl_secs),
                threads.max(1),
            ));
            for (cname, child) in &node.children {
                walk(cname, child, depth + 1, out);
            }
        }
        for (name, node) in &self.roots {
            walk(name, node, 0, &mut out);
        }
        out
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else {
        format!("{:.3}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the tree from `(path, dur_secs, tid)` closes, the way the
    /// registry totals them.
    fn from_closes<'a>(closes: impl IntoIterator<Item = (&'a str, f64, u64)>) -> SpanTree {
        let mut totals = BTreeMap::<String, SpanNode>::new();
        for (path, secs, tid) in closes {
            totals.entry(path.to_owned()).or_default().add(secs, tid);
        }
        SpanTree::from_totals(&totals)
    }

    fn sample_tree() -> SpanTree {
        from_closes([
            ("scan", 10.0, 1),
            ("scan;raster", 2.0, 1),
            ("scan;cpn", 3.0, 2),
            ("scan;cpn", 1.0, 3),
            ("scan;cpn;hnms", 0.5, 2),
            ("train", 4.0, 1),
        ])
    }

    #[test]
    fn aggregates_counts_inclusive_and_exclusive() {
        let tree = sample_tree();
        let scan = &tree.roots["scan"];
        assert_eq!(scan.count, 1);
        assert_eq!(scan.incl_secs, 10.0);
        // 10 - (2 + 4) = 4 exclusive
        assert!((scan.excl_secs - 4.0).abs() < 1e-12);
        let cpn = &scan.children["cpn"];
        assert_eq!(cpn.count, 2);
        assert_eq!(cpn.incl_secs, 4.0);
        assert!((cpn.excl_secs - 3.5).abs() < 1e-12);
        assert_eq!(cpn.by_thread.len(), 2);
        assert_eq!(tree.roots["train"].count, 1);
        assert!((tree.total_secs() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_time_clamps_when_children_outsum_parent() {
        // Concurrent children on workers: 3s + 3s under a 4s parent.
        let tree = from_closes([("p", 4.0, 1), ("p;a", 3.0, 2), ("p;b", 3.0, 3)]);
        assert_eq!(tree.roots["p"].excl_secs, 0.0);
    }

    #[test]
    fn shape_is_deterministic_and_duration_free() {
        let a = sample_tree().shape();
        let b = from_closes([
            // Same structure, different durations/threads/order.
            ("train", 1.0, 9),
            ("scan;cpn;hnms", 9.0, 8),
            ("scan;cpn", 1.0, 7),
            ("scan;cpn", 2.0, 7),
            ("scan;raster", 7.0, 6),
            ("scan", 1.0, 5),
        ])
        .shape();
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                ("scan".to_owned(), 1),
                ("scan;cpn".to_owned(), 2),
                ("scan;cpn;hnms".to_owned(), 1),
                ("scan;raster".to_owned(), 1),
                ("train".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn top_exclusive_ranks_descending() {
        let top = sample_tree().top_exclusive(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, "scan");
        assert!((top[0].1 - 4.0).abs() < 1e-12);
        assert_eq!(top[1].0, "train");
        assert_eq!(top[2].0, "scan;cpn");
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn renders_all_nodes_and_handles_empty() {
        let text = sample_tree().render();
        for name in ["scan", "raster", "cpn", "hnms", "train"] {
            assert!(text.contains(name), "render missing {name}:\n{text}");
        }
        assert!(text.contains("incl"));
        let empty = SpanTree::default();
        assert!(empty.render().contains("no spans"));
        assert!(empty.is_empty());
    }

    #[test]
    fn paths_with_missing_parents_still_build() {
        // A parent span can still be open (never closed) when the tree is
        // built: the intermediate node exists with zero count.
        let tree = from_closes([("a;b;c", 1.0, 1)]);
        let a = &tree.roots["a"];
        assert_eq!(a.count, 0);
        assert_eq!(a.incl_secs, 0.0);
        assert_eq!(a.children["b"].children["c"].count, 1);
        // Exclusive of the phantom parent clamps at zero.
        assert_eq!(a.excl_secs, 0.0);
    }
}
