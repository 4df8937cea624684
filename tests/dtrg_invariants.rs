//! White-box invariants of the dynamic task reachability graph, checked
//! over random program executions (§4.1's data-structure properties).

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::compgraph::GraphBuilder;
use futrace::detector::RaceDetector;
use futrace::runtime::monitor::{Monitor, Pair, TaskKind};
use futrace::runtime::run_serial;
use futrace_util::ids::{FinishId, LocId, TaskId};

fn run_both(seed: u64, params: &GenParams) -> (RaceDetector, futrace::compgraph::CompGraph) {
    let prog = generate(seed, params);
    let mut mon = Pair(RaceDetector::new(), GraphBuilder::new());
    run_serial(&mut mon, |ctx| {
        execute(ctx, &prog);
    });
    let Pair(det, builder) = mon;
    (det, builder.into_graph())
}

#[test]
fn own_interval_labels_encode_spawn_tree_ancestry() {
    for seed in 0..150u64 {
        let (det, graph) = run_both(seed, &GenParams::future_heavy());
        let dtrg = det.dtrg();
        let n = graph.task_count();
        assert_eq!(dtrg.task_count(), n);
        for a in 0..n {
            for d in 0..n {
                let (ta, td) = (TaskId::from_index(a), TaskId::from_index(d));
                assert_eq!(
                    dtrg.is_ancestor(ta, td),
                    graph.is_ancestor(ta, td),
                    "seed {seed}: ancestry of {ta} vs {td}"
                );
            }
        }
    }
}

#[test]
fn intervals_are_laminar() {
    for seed in 0..150u64 {
        let (det, _) = run_both(seed, &GenParams::default());
        let dtrg = det.dtrg();
        let n = dtrg.task_count();
        for a in 0..n {
            for b in 0..n {
                let (ia, ib) = (
                    dtrg.meta(TaskId::from_index(a)).own,
                    dtrg.meta(TaskId::from_index(b)).own,
                );
                assert!(
                    ia.contains(&ib) || ib.contains(&ia) || ia.disjoint(&ib),
                    "seed {seed}: intervals must nest or be disjoint"
                );
            }
        }
    }
}

#[test]
fn set_labels_are_ancestor_most_member_labels() {
    // The label of a disjoint set equals the own label of the member
    // closest to the spawn-tree root (Definition 1 of §4.1).
    for seed in 0..150u64 {
        let (det, _) = run_both(seed, &GenParams::future_heavy());
        let mut dtrg = det.dtrg().clone();
        let n = dtrg.task_count();
        // Group members by representative.
        let mut groups: std::collections::HashMap<u64, Vec<TaskId>> = Default::default();
        for t in 0..n {
            let tid = TaskId::from_index(t);
            let label = dtrg.set_data(tid).interval;
            groups.entry(label.pre).or_default().push(tid);
        }
        for (pre, members) in groups {
            // The ancestor-most member is the one whose own label has the
            // smallest preorder; the set label must equal its own label.
            let top = members
                .iter()
                .min_by_key(|t| dtrg.meta(**t).own.pre)
                .copied()
                .unwrap();
            let own = dtrg.meta(top).own;
            assert_eq!(own.pre, pre, "seed {seed}: set label is top's label");
            for m in members {
                assert!(
                    own.contains(&dtrg.meta(m).own),
                    "seed {seed}: top member dominates the set"
                );
            }
        }
    }
}

#[test]
fn set_members_join_into_the_set_top() {
    // The property the detector's same-set short-circuit relies on: every
    // member of a disjoint set is connected *to the set's ancestor-most
    // member (its top)* by tree-join/continue edges, i.e. the member's
    // last step reaches the top's last step in the computation graph.
    // (Members need no join path between *each other*: a finish-end merges
    // all of its IEF registrants into the finish owner's set at once.)
    use futrace::compgraph::oracle::Reachability;
    for seed in 0..100u64 {
        let (det, graph) = run_both(seed, &GenParams::default());
        let mut dtrg = det.dtrg().clone();
        let reach = Reachability::build(&graph);
        let n = graph.task_count();
        // Find each set's top: the member with the smallest own preorder.
        let mut top: std::collections::HashMap<u64, TaskId> = Default::default();
        for t in 0..n {
            let tid = TaskId::from_index(t);
            let key = dtrg.set_data(tid).interval.pre;
            let e = top.entry(key).or_insert(tid);
            if dtrg.meta(tid).own.pre < dtrg.meta(*e).own.pre {
                *e = tid;
            }
        }
        for t in 0..n {
            let tid = TaskId::from_index(t);
            let key = dtrg.set_data(tid).interval.pre;
            let top_id = top[&key];
            if top_id == tid {
                continue;
            }
            let from = graph.tasks[t].last_step;
            let to = graph.tasks[top_id.index()].last_step;
            assert!(
                reach.reaches(from, to) || from == to,
                "seed {seed}: {tid} merged into {top_id}'s set without a join path to it"
            );
        }
    }
}

/// Forwards every event to a detector and, after each control event,
/// checks that the DTRG stores no more non-tree entries than `get`s have
/// recorded (Theorem 1's O(n) space term: `Merge` only moves or drops
/// entries, never creates them).
struct SpaceBoundCheck(RaceDetector);

impl SpaceBoundCheck {
    fn check(&self) {
        let dtrg = self.0.dtrg();
        let (stored, recorded) = (dtrg.stored_nt_edges() as u64, dtrg.counters.nt_edges);
        assert!(stored <= recorded, "{stored} stored nt entries > {recorded} nt edges");
    }
}

impl Monitor for SpaceBoundCheck {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.0.task_create(parent, child, kind, ief);
        self.check();
    }
    fn task_end(&mut self, task: TaskId) {
        self.0.task_end(task);
        self.check();
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.0.finish_start(task, finish);
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.0.finish_end(task, finish, joined);
        self.check();
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.0.get(waiter, awaited);
        self.check();
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.0.read(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.0.write(task, loc);
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.0.alloc(base, n, name);
    }
}

#[test]
fn stored_nt_entries_never_exceed_recorded_nt_edges() {
    let mixes = [
        GenParams::default(),
        GenParams::future_heavy(),
        GenParams::nontree_heavy(),
    ];
    for params in &mixes {
        for seed in 0..150u64 {
            let prog = generate(seed, params);
            let mut mon = SpaceBoundCheck(RaceDetector::new());
            run_serial(&mut mon, |ctx| {
                execute(ctx, &prog);
            });
        }
    }
}
