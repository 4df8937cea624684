//! Graphviz rendering of the dynamic task reachability graph — the
//! Figure-3/Table-1 style picture: one cluster per disjoint set, each task
//! annotated with its interval label, red arrows for non-tree predecessor
//! edges, dashed arrows for lowest-significant-ancestor pointers.

use crate::dtrg::Dtrg;
use futrace_util::ids::TaskId;
use futrace_util::{FxHashMap, FxHashSet};
use std::fmt::Write as _;

/// Renders the DTRG's current state as a DOT document.
pub fn to_dot(dtrg: &mut Dtrg, title: &str) -> String {
    let n = dtrg.task_count();
    // Group tasks by set (representative keyed by the set label's pre).
    let mut groups: FxHashMap<u64, Vec<TaskId>> = FxHashMap::default();
    for i in 0..n {
        let t = TaskId::from_index(i);
        let key = dtrg.set_data(t).interval.pre;
        groups.entry(key).or_default().push(t);
    }
    let mut keys: Vec<u64> = groups.keys().copied().collect();
    keys.sort_unstable();

    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    for (gi, key) in keys.iter().enumerate() {
        let members = &groups[key];
        let set_label = dtrg.set_data(members[0]).interval;
        let _ = writeln!(out, "  subgraph cluster_set{gi} {{");
        let _ = writeln!(
            out,
            "    label=\"set [{}, {}]\"; style=rounded;",
            set_label.pre,
            if set_label.post >= futrace_util::interval::TMPID_START / 2 {
                "live".to_string()
            } else {
                set_label.post.to_string()
            }
        );
        for &t in members {
            let own = dtrg.meta(t).own;
            let kind = if t == TaskId::MAIN {
                "main"
            } else if dtrg.is_future(t) {
                "future"
            } else {
                "async"
            };
            let post = if own.post >= futrace_util::interval::TMPID_START / 2 {
                "·".to_string()
            } else {
                own.post.to_string()
            };
            let _ = writeln!(
                out,
                "    t{} [label=\"{t} ({kind})\\n[{}, {post}]\"];",
                t.0, own.pre
            );
        }
        let _ = writeln!(out, "  }}");
    }
    // Non-tree predecessor edges (red) and LSA pointers (dashed).
    for i in 0..n {
        let t = TaskId::from_index(i);
        // Only draw each set's nt list once, from its representative-most
        // member (the first member encountered per set key). A merged list
        // may repeat a source or name a member of the set itself; draw
        // each outside source once.
        let key = dtrg.set_data(t).interval.pre;
        if groups[&key][0] == t {
            let mut drawn = FxHashSet::default();
            for p in dtrg.set_data(t).nt.to_vec() {
                if drawn.insert(p) && !dtrg.same_set(p, t) {
                    let _ = writeln!(out, "  t{} -> t{} [color=red, label=\"nt\"];", p.0, t.0);
                }
            }
        }
        if let Some(l) = dtrg.set_data(t).lsa {
            let _ = writeln!(
                out,
                "  t{} -> t{} [style=dashed, color=gray, label=\"lsa\"];",
                t.0, l.0
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::monitor::TaskKind;

    #[test]
    fn renders_sets_nt_and_lsa() {
        let mut g = Dtrg::new();
        let m = TaskId::MAIN;
        g.on_task_create(m, TaskId(1), TaskKind::Future); // A
        g.on_task_end(TaskId(1));
        g.on_task_create(m, TaskId(2), TaskKind::Future); // B
        g.on_get(TaskId(2), TaskId(1)); // non-tree edge A -> B
        g.on_task_create(TaskId(2), TaskId(3), TaskKind::Async); // C: lsa = B
        let dot = to_dot(&mut g, "dtrg");
        assert!(dot.contains("digraph \"dtrg\""));
        assert!(dot.contains("cluster_set0"));
        assert!(dot.contains("T1 (future)"));
        assert!(dot.contains("color=red"), "nt edge rendered");
        assert!(dot.contains("lsa"), "lsa pointer rendered");
        assert!(dot.contains("live"), "live sets marked");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn merged_nt_repeats_and_self_edges_are_drawn_once_or_not_at_all() {
        // Future 5 gets sibling 4; main gets 5 and then 4, so main's
        // reused nt list names its own member 4. Futures 2 and 3 both get
        // sibling 1; main gets both, so its list holds source 1 twice.
        let mut g = Dtrg::new();
        let m = TaskId::MAIN;
        let t = TaskId;
        g.on_task_create(m, t(1), TaskKind::Future);
        g.on_task_end(t(1));
        for f in [2, 3] {
            g.on_task_create(m, t(f), TaskKind::Future);
            g.on_get(t(f), t(1));
            g.on_task_end(t(f));
        }
        g.on_task_create(m, t(4), TaskKind::Future);
        g.on_task_end(t(4));
        g.on_task_create(m, t(5), TaskKind::Future);
        g.on_get(t(5), t(4));
        g.on_task_end(t(5));
        for f in [5, 4, 2, 3] {
            g.on_get(m, t(f));
        }
        let nt = g.set_data(m).nt.to_vec();
        assert_eq!(nt.iter().filter(|&&p| p == t(1)).count(), 2, "{nt:?}");
        assert!(nt.contains(&t(4)), "self-edge kept in the list: {nt:?}");
        let dot = to_dot(&mut g, "dups");
        assert_eq!(dot.matches("t1 -> t0 [color=red").count(), 1, "{dot}");
        assert!(!dot.contains("t4 -> t0 [color=red"), "{dot}");
        assert_eq!(dot.matches("color=red").count(), 1, "{dot}");
    }

    #[test]
    fn merged_sets_share_a_cluster() {
        let mut g = Dtrg::new();
        let m = TaskId::MAIN;
        g.on_task_create(m, TaskId(1), TaskKind::Future);
        g.on_task_end(TaskId(1));
        g.on_get(m, TaskId(1)); // merge
        let dot = to_dot(&mut g, "merged");
        // Exactly one cluster with both tasks.
        assert_eq!(dot.matches("subgraph cluster_set").count(), 1);
        assert!(dot.contains("T0 (main)"));
        assert!(dot.contains("T1 (future)"));
    }
}
