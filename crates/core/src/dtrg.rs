//! The dynamic task reachability graph (DTRG) — §4.1 and Algorithms 1–7,
//! 10 of the paper.
//!
//! The DTRG answers, during a serial depth-first execution, the query
//! *"must every already-executed step of task `A` precede the currently
//! executing step of task `B`?"* ([`Dtrg::precede`], the paper's
//! `Precede`). It encodes reachability at task granularity with three
//! mechanisms:
//!
//! 1. **Disjoint sets over tree joins.** Tasks connected to an ancestor by
//!    tree-join + continue edges share a set ([`futrace_util::UnionFind`]);
//!    `Merge` (Algorithm 7) keeps the ancestor-most label and `lsa`, and
//!    unions the non-tree predecessor lists.
//! 2. **Interval labels.** Each set carries a `[pre, post]` spawn-tree
//!    interval ([`futrace_util::interval`]); subsumption answers
//!    ancestor-reachability in O(1).
//! 3. **Non-tree predecessors + lowest significant ancestor.** Non-tree
//!    join edges (future `get`s that cannot merge) are stored per set
//!    (`nt`), and each task remembers its lowest ancestor that performed a
//!    non-tree join (`lsa`), so `Visit` (Algorithm 10) only walks the
//!    "significant" part of the spawn path.
//!
//! `Precede` is implemented iteratively (explicit work stack + visited
//! marks) rather than recursively: a wavefront program like Smith-Waterman
//! can chain thousands of non-tree edges, which would overflow the call
//! stack. A set is marked visited by stamping its representative's slot in
//! a per-task `u32` array with the query's generation number, so each set
//! is expanded at most once per query (the "each non-tree edge visited
//! once" bound of Theorem 1) and starting a query costs O(1).
//!
//! A query costs what that bound says (DESIGN S45). `find(b)` and `b`'s
//! label are computed once and `Visit` starts from `b`'s set already
//! marked. When an expanded set's `nt` slice holds `a` itself, the query
//! answers true before pushing anything, scanning newest first because a
//! consumer's most recent `get` is usually its producer. Verdicts are
//! memoized in a small direct-mapped table whose slots carry the epoch they
//! were stored in, so a graph mutation invalidates them without clearing
//! anything. A walk that found nothing and pruned nothing is kept, and the
//! memo answers the next queries from the same set in the same epoch by
//! replaying it: an access re-checking many stored readers walks once. The
//! memo switch gates only these lookups and the store; cached and uncached
//! queries share one traversal.
//!
//! `Merge` appends the smaller `nt` list onto the larger one without
//! deduplicating (DESIGN, "Linear-time Merge and Visit"), so a stored list
//! may hold a source twice or a source inside its own set. Neither changes
//! a query: `Visit` marks a set before pushing its `nt`, so such entries
//! are found already visited and never expanded.

use futrace_runtime::monitor::TaskKind;
use futrace_util::ids::TaskId;
use futrace_util::interval::{Interval, IntervalLabeler};
use futrace_util::UnionFind;

/// Inline capacity of [`NtSet`]. The paper observes (§5) that producers
/// and consumers sit 1–2 non-tree hops apart, and across the benchsuite
/// almost every set stores at most a couple of non-tree predecessors, so
/// four inline slots cover the common case without heap traffic.
const NT_INLINE: usize = 4;

/// Small-set of non-tree predecessor tasks: up to [`NT_INLINE`] entries
/// inline, spilling to a heap vector only for sets that accumulate many
/// unjoined producers (wavefront programs under heavy merging).
#[derive(Clone, Debug)]
pub enum NtSet {
    /// At most `NT_INLINE` entries, stored in place.
    Inline {
        /// Number of valid entries in `buf`.
        len: u8,
        /// Entry storage; only `buf[..len]` is meaningful.
        buf: [TaskId; NT_INLINE],
    },
    /// Spilled storage once the inline capacity is exceeded.
    Spilled(Vec<TaskId>),
}

impl Default for NtSet {
    fn default() -> Self {
        NtSet::new()
    }
}

impl NtSet {
    /// Empty set (no allocation).
    pub const fn new() -> Self {
        NtSet::Inline {
            len: 0,
            buf: [TaskId(0); NT_INLINE],
        }
    }

    /// Number of stored predecessors.
    pub fn len(&self) -> usize {
        match self {
            NtSet::Inline { len, .. } => *len as usize,
            NtSet::Spilled(v) => v.len(),
        }
    }

    /// True if no predecessor is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `t` is stored.
    pub fn contains(&self, t: TaskId) -> bool {
        self.as_slice().contains(&t)
    }

    /// The stored predecessors as a slice (inline or spilled).
    #[inline]
    pub fn as_slice(&self) -> &[TaskId] {
        match self {
            NtSet::Inline { len, buf } => &buf[..*len as usize],
            NtSet::Spilled(v) => v,
        }
    }

    /// Copies the stored predecessors into a fresh vector.
    pub fn to_vec(&self) -> Vec<TaskId> {
        self.as_slice().to_vec()
    }

    /// Appends `t` without deduplication, spilling when the inline buffer
    /// is full.
    pub fn push(&mut self, t: TaskId) {
        match self {
            NtSet::Inline { len, buf } => {
                if (*len as usize) < NT_INLINE {
                    buf[*len as usize] = t;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(NT_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(t);
                    *self = NtSet::Spilled(v);
                }
            }
            NtSet::Spilled(v) => v.push(t),
        }
    }
}

/// Per-set attributes (the record the paper attaches to every disjoint
/// set: `pre`/`post`, `nt`, `lsa`; `parent` lives per task).
#[derive(Clone, Debug)]
pub struct SetData {
    /// Interval label of the set — the label of the member closest to the
    /// spawn-tree root.
    pub interval: Interval,
    /// Sources of non-tree join edges into any member of this set. After
    /// a merge it may repeat a source or name a member of the set itself.
    pub nt: NtSet,
    /// Lowest significant ancestor: the nearest ancestor task whose set had
    /// performed a non-tree join when this task was spawned.
    pub lsa: Option<TaskId>,
}

/// Per-task immutable facts.
#[derive(Clone, Copy, Debug)]
pub struct TaskMeta {
    /// Spawn-tree parent (`None` for main).
    pub parent: Option<TaskId>,
    /// Async vs future vs main.
    pub kind: TaskKind,
    /// The task's *own* interval label (distinct from its set's label once
    /// merged); used for exact ancestor queries and statistics.
    pub own: Interval,
}

/// Counters the DTRG maintains for Theorem-1 style accounting and for
/// Table 2's structural columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DtrgCounters {
    /// `get()` operations observed.
    pub gets: u64,
    /// Gets that merged disjoint sets (Algorithm 4's then-branch).
    pub merging_gets: u64,
    /// Gets recorded as non-tree predecessors (Algorithm 4's else-branch).
    pub nt_edges: u64,
    /// Non-tree joins in the computation-graph sense: gets whose waiter is
    /// *not* an ancestor of the awaited task (Table 2's #NTJoins).
    pub graph_nt_joins: u64,
    /// Set merges performed (gets + finish joins).
    pub merges: u64,
    /// `Precede` queries answered.
    pub precede_calls: u64,
    /// Nodes expanded across all `Visit` traversals.
    pub visit_expansions: u64,
    /// `Precede` queries answered from a memo slot (no `Visit` run).
    pub memo_hits: u64,
    /// `Precede` queries that missed the memo slots and stored their
    /// verdict in one, after running `Visit` or replaying the last walk.
    pub memo_misses: u64,
    /// Access checks answered by the shadow-cell fast path without
    /// consulting the DTRG at all (maintained by the detector).
    pub shadow_hits: u64,
}

/// Sentinel in the `task_parent` column for "no parent" (main).
const NO_PARENT: u32 = u32::MAX;

/// log2 of [`MEMO_SLOTS`].
const MEMO_BITS: u32 = 8;
/// Slots in the `precede` memo: 256 × 24 bytes fits in L1 beside the
/// traversal's working set.
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// One `precede` memo slot: the verdict for the representative pair
/// `(ra, rb)` as of graph-mutation epoch `epoch`.
#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    epoch: u64,
    ra: u32,
    rb: u32,
    verdict: bool,
}

impl MemoSlot {
    /// An unused slot. Its keys are equal, and `precede` answers every
    /// query with `Find(a) == Find(b)` before the lookup, so no lookup
    /// ever matches it.
    const EMPTY: MemoSlot = MemoSlot {
        epoch: 0,
        ra: 0,
        rb: 0,
        verdict: false,
    };
}

/// Memo slot for the representative pair `(ra, rb)` (Fibonacci hashing of
/// the packed pair; the top bits index the table).
#[inline]
fn memo_slot(ra: u32, rb: u32) -> usize {
    let key = (u64::from(ra) << 32) | u64::from(rb);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
}

/// Pushes the non-tree predecessors `nt` of a set `Visit` expands onto
/// `stack`, or returns true without pushing if `a` itself is one of them.
/// Every expanded set reaches the query's step, so a source of its `nt`
/// precedes that step; popping the source would find `a`'s set anyway. The
/// slice is scanned newest first: the latest `get` is usually the producer
/// the query is about.
#[inline]
fn push_nt(stack: &mut Vec<TaskId>, nt: &[TaskId], a: TaskId) -> bool {
    if nt.iter().rev().any(|&s| s == a) {
        return true;
    }
    stack.extend_from_slice(nt);
    false
}

/// The dynamic task reachability graph.
#[derive(Clone, Debug)]
pub struct Dtrg {
    labeler: IntervalLabeler,
    sets: UnionFind<SetData>,
    /// Per-task facts in struct-of-arrays layout: the hot queries
    /// (`is_future` in Algorithm 9's reader rule, `own` in the O(1)
    /// ancestor test) each touch one dense homogeneous column instead of
    /// striding over a wider record.
    task_parent: Vec<u32>,
    task_kind: Vec<TaskKind>,
    task_own: Vec<Interval>,
    /// `Visit`'s work list. It is kept after a query, so that the memo can
    /// replay it (see `last_walk`).
    visit_stack: Vec<TaskId>,
    /// Visited marks for `precede`, indexed by set representative: a set
    /// is visited in the current query iff its slot equals `visit_gen`.
    /// Bumping the generation clears every mark at once; the array is
    /// zeroed only when the generation wraps.
    visited: Vec<u32>,
    visit_gen: u32,
    /// `(epoch, rb)` when the last `Visit` started from set `rb` in `epoch`,
    /// did not find its source and pruned nothing, so `visit_stack` holds
    /// every set it reached (DESIGN S45). `on_task_end` clears it, since it
    /// relabels a set.
    last_walk: Option<(u64, u32)>,
    /// Set when the running `Visit` prunes a set.
    pruned: bool,
    /// Graph-mutation epoch: bumped exactly when an ordering edge is added
    /// between existing nodes — a real set union (merging `get`, finish
    /// end) or a newly stored non-tree predecessor. `on_task_create` /
    /// `on_task_end` never add edges between existing nodes, so they keep
    /// the epoch, and every cached `precede` verdict stays valid within
    /// one epoch (verdicts are monotone: they can only flip false→true,
    /// and only when an edge is added; see DESIGN S39).
    epoch: u64,
    /// Memoized `precede` verdicts: a direct-mapped table of
    /// [`MEMO_SLOTS`] slots, each tagged with the epoch it was stored in and
    /// keyed on `(Find(a), Find(b))` set representatives. Representatives
    /// are stable within an epoch (only unions change them, and unions bump
    /// the epoch), so a slot answers a query only if its tag equals the
    /// current epoch and both keys match. Stores overwrite; the table is
    /// never cleared, since an epoch is never reused (DESIGN S45).
    memo: Box<[MemoSlot; MEMO_SLOTS]>,
    memo_enabled: bool,
    /// Counters.
    pub counters: DtrgCounters,
}

impl Default for Dtrg {
    fn default() -> Self {
        Self::new()
    }
}

impl Dtrg {
    /// Algorithm 1: initialization with the main task. Main gets the label
    /// `[0, MAXINT]`, no parent, no `lsa`.
    pub fn new() -> Self {
        let mut labeler = IntervalLabeler::new();
        let own = labeler.on_spawn();
        let mut sets = UnionFind::with_capacity(1024);
        let key = sets.make_set(SetData {
            interval: own,
            nt: NtSet::new(),
            lsa: None,
        });
        debug_assert_eq!(key, TaskId::MAIN.index());
        Dtrg {
            labeler,
            sets,
            task_parent: vec![NO_PARENT],
            task_kind: vec![TaskKind::Main],
            task_own: vec![own],
            visit_stack: Vec::new(),
            visited: vec![0],
            visit_gen: 0,
            last_walk: None,
            pruned: false,
            epoch: 0,
            memo: Box::new([MemoSlot::EMPTY; MEMO_SLOTS]),
            memo_enabled: true,
            counters: DtrgCounters::default(),
        }
    }

    /// Number of tasks known (including main).
    pub fn task_count(&self) -> usize {
        self.task_own.len()
    }

    /// Per-task facts, assembled by value from the SoA columns.
    pub fn meta(&self, t: TaskId) -> TaskMeta {
        TaskMeta {
            parent: self.parent_of(t),
            kind: self.task_kind[t.index()],
            own: self.task_own[t.index()],
        }
    }

    /// Spawn-tree parent (`None` for main).
    #[inline]
    pub fn parent_of(&self, t: TaskId) -> Option<TaskId> {
        let p = self.task_parent[t.index()];
        if p == NO_PARENT {
            None
        } else {
            Some(TaskId(p))
        }
    }

    /// The paper's `IsFuture`.
    #[inline]
    pub fn is_future(&self, t: TaskId) -> bool {
        self.task_kind[t.index()].is_future()
    }

    /// Current graph-mutation epoch (see the field docs; the detector's
    /// shadow fast path keys its cached verdicts on this).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enables or disables the `precede` memo (enabled by default): the
    /// epoch-tagged slots and the replay of the last walk. Disabled, every
    /// query that the O(1) tests cannot answer runs `Visit`, the same
    /// traversal as with the memo on. This is the reference the
    /// equivalence suites compare against.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
    }

    /// Set attributes of the set currently containing `t`.
    pub fn set_data(&mut self, t: TaskId) -> &SetData {
        self.sets.payload(t.index())
    }

    /// True if `a` and `b` currently share a disjoint set.
    pub fn same_set(&mut self, a: TaskId, b: TaskId) -> bool {
        self.sets.same_set(a.index(), b.index())
    }

    /// Exact spawn-tree ancestry from the tasks' own labels: `a` is a weak
    /// ancestor of `d`.
    #[inline]
    pub fn is_ancestor(&self, a: TaskId, d: TaskId) -> bool {
        self.task_own[a.index()].contains(&self.task_own[d.index()])
    }

    /// Algorithm 2: task creation. Assigns the child its preorder value and
    /// a temporary postorder value, creates its singleton set, and derives
    /// its `lsa` from the parent's set.
    pub fn on_task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind) {
        debug_assert_eq!(child.index(), self.task_own.len(), "dense spawn-order ids");
        let own = self.labeler.on_spawn();
        let pdata = self.sets.payload(parent.index());
        let lsa = if pdata.nt.is_empty() {
            pdata.lsa
        } else {
            Some(parent)
        };
        let key = self.sets.make_set(SetData {
            interval: own,
            nt: NtSet::new(),
            lsa,
        });
        debug_assert_eq!(key, child.index());
        self.task_parent.push(parent.0);
        self.task_kind.push(kind);
        self.task_own.push(own);
        self.visited.push(0);
    }

    /// Algorithm 3: task termination. Replaces the temporary postorder with
    /// the final one, on both the task's own label and its set's label (at
    /// termination the task is the ancestor-most member of its set, so the
    /// set's label is its label).
    pub fn on_task_end(&mut self, task: TaskId) {
        let post = self.labeler.on_terminate();
        self.task_own[task.index()].post = post;
        let data = self.sets.payload_mut(task.index());
        debug_assert_eq!(data.interval.pre, self.task_own[task.index()].pre);
        data.interval.post = post;
        self.last_walk = None;
    }

    /// Algorithm 7: `Merge(S_A, S_B)` — union keeping `S_A`'s label and
    /// `lsa`, with `nt` the union of both sides. Bumps the mutation epoch
    /// only when the union actually joins two distinct sets (a repeated
    /// `get` on an already-merged future adds no edge, so cached verdicts
    /// stay valid).
    ///
    /// The union is linear in the smaller list: the larger `nt` list is
    /// kept and the smaller one's entries are appended, minus sources that
    /// already lie in either merging set (they would point into the merged
    /// set itself). Nothing is deduplicated; see the module docs for why
    /// repeats and self-edges leave every query unchanged.
    fn merge(&mut self, a: TaskId, b: TaskId) {
        self.counters.merges += 1;
        let ra = self.sets.find(a.index());
        let rb = self.sets.find(b.index());
        if ra == rb {
            return;
        }
        self.epoch += 1;
        let nt_a = std::mem::take(&mut self.sets.payload_mut(ra).nt);
        let nt_b = std::mem::take(&mut self.sets.payload_mut(rb).nt);
        let (mut nt, smaller) = if nt_a.len() >= nt_b.len() {
            (nt_a, nt_b)
        } else {
            (nt_b, nt_a)
        };
        for &t in smaller.as_slice() {
            let rt = self.sets.find(t.index());
            if rt != ra && rt != rb {
                nt.push(t);
            }
        }
        self.sets.union_with(ra, rb, |pa, _| SetData { nt, ..pa });
    }

    /// Marks set `r` visited in the current `precede` query; false if it
    /// already was.
    #[inline]
    fn mark_visited(&mut self, r: usize) -> bool {
        let slot = &mut self.visited[r];
        if *slot == self.visit_gen {
            return false;
        }
        *slot = self.visit_gen;
        true
    }

    /// Algorithm 4: `get()` by task `a` on future task `b`. Merges when the
    /// whole ancestor chain between them has already joined (`Find-Set(a) ==
    /// Find-Set(b.parent)`), otherwise records a non-tree predecessor.
    pub fn on_get(&mut self, a: TaskId, b: TaskId) {
        self.counters.gets += 1;
        if !self.is_ancestor(a, b) {
            self.counters.graph_nt_joins += 1;
        }
        let bparent = self.parent_of(b).expect("future task has a parent");
        if self.sets.same_set(a.index(), bparent.index()) {
            self.counters.merging_gets += 1;
            self.merge(a, b);
        } else {
            self.counters.nt_edges += 1;
            let data = self.sets.payload_mut(a.index());
            if !data.nt.contains(b) {
                data.nt.push(b);
                self.epoch += 1;
            }
        }
    }

    /// Algorithm 6: end of finish `F` executed by `a`; every task in
    /// `F.joins` (tasks whose IEF is `F`) merges into `a`'s set.
    pub fn on_finish_end(&mut self, a: TaskId, joined: &[TaskId]) {
        for &b in joined {
            self.merge(a, b);
        }
    }

    /// The paper's `Precede(T_A, T_B)` (Algorithm 10), asked while `b` is
    /// the currently executing task (or, recursively, a recorded
    /// predecessor): true iff every step of `a` executed so far must
    /// precede `b`'s current step in the computation graph.
    ///
    /// The first `Visit` iteration's two O(1) verdicts (same set, ancestor
    /// subsumption) are answered from `b`'s representative and label,
    /// computed once. Otherwise the memo slot for `(Find(a), Find(b))` is
    /// consulted, then the last walk is replayed if it can stand in for
    /// this one (`replay_walk`), else `visit` runs from `b`'s set; the
    /// verdict is stored in the slot. With the memo disabled the slot
    /// lookup, the replay and the store are skipped; the traversal is the
    /// same.
    pub fn precede(&mut self, a: TaskId, b: TaskId) -> bool {
        self.counters.precede_calls += 1;
        if a == b {
            return true;
        }
        let ra = self.sets.find(a.index());
        let rb = self.sets.find(b.index());
        if ra == rb {
            return true;
        }
        let la = self.sets.payload_no_compress(ra).interval;
        let lb = self.sets.payload_no_compress(rb).interval;
        if la.contains(&lb) {
            return true;
        }
        let (ra32, rb32) = (ra as u32, rb as u32);
        let slot = memo_slot(ra32, rb32);
        let mut replayed = None;
        if self.memo_enabled {
            let m = self.memo[slot];
            if m.epoch == self.epoch && m.ra == ra32 && m.rb == rb32 {
                self.counters.memo_hits += 1;
                return m.verdict;
            }
            self.counters.memo_misses += 1;
            replayed = self.replay_walk(ra, la, rb32, lb);
        }
        let found = replayed.unwrap_or_else(|| self.visit(a, ra, la, rb));
        if self.memo_enabled {
            self.memo[slot] = MemoSlot {
                epoch: self.epoch,
                ra: ra32,
                rb: rb32,
                verdict: found,
            };
        }
        found
    }

    /// Iterative `Visit` from `b`'s set `rb`, which the caller has already
    /// tested against `a`'s set `ra` (label `la`): expands `rb`, then the
    /// non-tree predecessors of every expanded set and of its
    /// significant-ancestor chain, transitively, skipping sets already
    /// visited in this query.
    ///
    /// Breadth-first examination order (index walk = FIFO): the paper
    /// observes producers and consumers sit 1–2 non-tree hops apart, so the
    /// target is almost always among the nearest predecessors — depth-first
    /// order would wander into older regions of the graph before examining
    /// near siblings (measured 5–50× more expansions on the Jacobi
    /// wavefront).
    fn visit(&mut self, a: TaskId, ra: usize, la: Interval, rb: usize) -> bool {
        self.visit_stack.clear();
        self.pruned = false;
        self.visit_gen = self.visit_gen.wrapping_add(1);
        if self.visit_gen == 0 {
            self.visited.fill(0);
            self.visit_gen = 1;
        }
        self.mark_visited(rb);
        let mut found = self.expand(a, ra, la, rb);
        let mut head = 0usize;
        while !found && head < self.visit_stack.len() {
            let t = self.visit_stack[head];
            head += 1;
            let rt = self.sets.find(t.index());
            if self.mark_visited(rt) {
                found = self.expand(a, ra, la, rt);
            }
        }
        self.last_walk = (!found && !self.pruned).then_some((self.epoch, rb as u32));
        found
    }

    /// Answers a query from set `rb` (label `lb`) with source set `ra`
    /// (label `la`) by replaying the last `Visit`, if that walk started from
    /// `rb` in this epoch and reached every set it could (`last_walk`): the
    /// sets it reached are tested in the order it reached them. `None` if
    /// there is no such walk, or as soon as `la` would prune a set, since a
    /// walk for `la` would then reach fewer sets and must run instead.
    fn replay_walk(&mut self, ra: usize, la: Interval, rb: u32, lb: Interval) -> Option<bool> {
        if self.last_walk != Some((self.epoch, rb)) || lb.post < la.pre {
            return None;
        }
        for i in 0..self.visit_stack.len() {
            let rt = self.sets.find(self.visit_stack[i].index());
            let lt = self.sets.payload_no_compress(rt).interval;
            if rt == ra || la.contains(&lt) {
                return Some(true);
            }
            if lt.post < la.pre {
                return None;
            }
        }
        Some(false)
    }

    /// Expands the freshly marked set `rt` in `Visit`: true if it proves
    /// that `a` precedes the query's step, otherwise pushes its non-tree
    /// predecessors and those of its significant-ancestor chain.
    fn expand(&mut self, a: TaskId, ra: usize, la: Interval, rt: usize) -> bool {
        self.counters.visit_expansions += 1;
        if rt == ra {
            return true;
        }
        let data = self.sets.payload_no_compress(rt);
        let lt = data.interval;
        // Lines 6–11: the interval of A's set subsumes the interval of
        // this set — A's set is an ancestor along tree joins.
        if la.contains(&lt) {
            return true;
        }
        // Lines 12–14 (prune): if this set finished before A's set was even
        // spawned, no step of A can reach into it (paths respect serial
        // execution order, Lemma 2), so its predecessors cannot lead back
        // to A either. Note the comparison uses the set's *final*
        // postorder: a live set carries a temporary postorder far above
        // every preorder, so live sets are never pruned. The paper prunes
        // on preorder ("the source of a non-tree join edge has a lower
        // preorder than the sink"), which holds for task labels but not
        // for merged-set labels — a set merged into a low-preorder
        // ancestor would be pruned while still carrying explorable
        // non-tree predecessors, so we prune on the completion-order test
        // instead.
        if lt.post < la.pre {
            self.pruned = true;
            return false;
        }
        // Lines 15–20: immediate non-tree predecessors of this node.
        if push_nt(&mut self.visit_stack, data.nt.as_slice(), a) {
            return true;
        }
        // Lines 21–29: walk the significant-ancestor chain, exploring each
        // significant set's non-tree predecessors.
        let mut anc = data.lsa;
        while let Some(x) = anc {
            let rx = self.sets.find_no_compress(x.index());
            if !self.mark_visited(rx) {
                break; // chain tail already explored
            }
            self.counters.visit_expansions += 1;
            let adata = self.sets.payload_no_compress(rx);
            if push_nt(&mut self.visit_stack, adata.nt.as_slice(), a) {
                return true;
            }
            anc = adata.lsa;
        }
        false
    }

    /// Exact ancestor query by walking parent pointers — the naive
    /// alternative to the O(1) interval-label subsumption test, kept for
    /// the ablation bench (`benches/ablation.rs`) that quantifies what the
    /// labeling scheme buys.
    pub fn is_ancestor_walk(&self, a: TaskId, d: TaskId) -> bool {
        let mut cur = d;
        loop {
            if cur == a {
                return true;
            }
            match self.parent_of(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Total non-tree predecessor entries currently stored across all sets
    /// — the `O(n)` term of Theorem 1's space bound.
    pub fn stored_nt_edges(&self) -> usize {
        self.sets.sets().map(|(_, d)| d.nt.len()).sum()
    }

    /// The spawn path from the main task to `t` (inclusive), for race
    /// reports: "who created the racing task".
    pub fn spawn_path(&self, t: TaskId) -> Vec<TaskId> {
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper mirroring the executor's event order for hand-built
    /// scenarios: spawn a child, run `body`-style events, end it.
    struct Driver {
        g: Dtrg,
        next: u32,
    }

    impl Driver {
        fn new() -> Self {
            Driver {
                g: Dtrg::new(),
                next: 1,
            }
        }
        fn spawn(&mut self, parent: TaskId, kind: TaskKind) -> TaskId {
            let c = TaskId(self.next);
            self.next += 1;
            self.g.on_task_create(parent, c, kind);
            c
        }
    }

    const M: TaskId = TaskId::MAIN;

    #[test]
    fn init_state() {
        let mut g = Dtrg::new();
        assert_eq!(g.task_count(), 1);
        assert!(!g.is_future(M));
        assert_eq!(g.meta(M).parent, None);
        assert_eq!(g.set_data(M).lsa, None);
        assert!(g.set_data(M).nt.is_empty());
        assert_eq!(g.set_data(M).interval.pre, 0);
    }

    #[test]
    fn precede_same_task() {
        let mut g = Dtrg::new();
        assert!(g.precede(M, M));
    }

    #[test]
    fn ancestor_precedes_running_descendant() {
        // main spawns A (still running): main's completed steps precede A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        assert!(d.g.precede(M, a), "ancestor set contains descendant");
        assert!(!d.g.precede(a, M), "running child is parallel to parent");
    }

    #[test]
    fn completed_unjoined_future_is_parallel() {
        // main spawns future A; A ends; no get. A's steps are parallel to
        // main's continuation.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M));
        assert!(d.g.precede(M, a)); // main's earlier steps precede A
    }

    #[test]
    fn parent_get_merges_and_orders() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        d.g.on_get(M, a); // Find-Set(M) == Find-Set(A.parent=M): merge
        assert!(d.g.same_set(M, a));
        assert!(d.g.precede(a, M), "after get, A precedes main");
        assert_eq!(d.g.counters.merging_gets, 1);
        assert_eq!(d.g.counters.nt_edges, 0);
        assert_eq!(d.g.counters.graph_nt_joins, 0, "ancestor get is a tree join");
    }

    #[test]
    fn sibling_get_records_non_tree_edge() {
        // main spawns future A (ends), then future B which gets A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a); // Find-Set(B) != Find-Set(A.parent=M)
        assert!(!d.g.same_set(a, b));
        assert_eq!(d.g.counters.nt_edges, 1);
        assert_eq!(d.g.counters.graph_nt_joins, 1);
        assert!(d.g.precede(a, b), "A precedes B via the non-tree edge");
        assert!(!d.g.precede(b, a));
        // Main's completed steps (before spawning B) also precede B.
        assert!(d.g.precede(M, b));
    }

    #[test]
    fn finish_end_merges_all_ief_tasks() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Async);
        let b = d.spawn(a, TaskKind::Async); // same IEF as a
        d.g.on_task_end(b);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M));
        assert!(!d.g.precede(b, M));
        d.g.on_finish_end(M, &[a, b]);
        assert!(d.g.same_set(M, a));
        assert!(d.g.same_set(M, b));
        assert!(d.g.precede(a, M));
        assert!(d.g.precede(b, M));
    }

    #[test]
    fn transitive_non_tree_paths() {
        // Figure-1 shape: A; B gets A; C gets B; main gets C.
        // Then A must precede main transitively.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_task_end(b);
        let c = d.spawn(M, TaskKind::Future);
        d.g.on_get(c, b);
        d.g.on_task_end(c);
        d.g.on_get(M, c); // merge C into main's set
        assert!(d.g.precede(c, M));
        assert!(d.g.precede(b, M), "via C's non-tree predecessor");
        assert!(d.g.precede(a, M), "two non-tree hops");
        assert_eq!(d.g.counters.nt_edges, 2);
    }

    #[test]
    fn lsa_chain_orders_descendants_of_getter() {
        // A ends; main gets A via... no: main spawns A (future, ends),
        // then B gets A (non-tree), B spawns C. A must precede C because
        // C's lsa is B and B's nt contains A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        let c = d.spawn(b, TaskKind::Future);
        assert_eq!(d.g.set_data(c).lsa, Some(b));
        assert!(d.g.precede(a, c), "join into ancestor B precedes C");
        // And deeper descendants inherit the lsa (C performed no non-tree
        // join itself, so E's lsa is still B).
        let e = d.spawn(c, TaskKind::Async);
        assert_eq!(d.g.set_data(e).lsa, Some(b));
    }

    #[test]
    fn lsa_inherited_when_parent_has_no_nt() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a); // b.nt = {a}
        let c = d.spawn(b, TaskKind::Future); // lsa = b (b has nt)
        let e = d.spawn(c, TaskKind::Future); // c has no nt: lsa inherited = b
        assert_eq!(d.g.set_data(c).lsa, Some(b));
        assert_eq!(d.g.set_data(e).lsa, Some(b));
        assert!(d.g.precede(a, e), "a -> b join visible from e via lsa chain");
    }

    #[test]
    fn unrelated_siblings_are_parallel() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        assert!(!d.g.precede(a, b));
        assert!(!d.g.precede(b, a));
    }

    #[test]
    fn merge_keeps_ancestor_label() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let main_label = d.g.set_data(M).interval;
        d.g.on_get(M, a);
        assert_eq!(d.g.set_data(a).interval, main_label, "merged set keeps main's label");
    }

    #[test]
    fn merge_unions_nt_lists() {
        // B gets A (nt edge), then main gets B (merge B into main's set):
        // main's set must inherit B's nt predecessor A.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_task_end(b);
        d.g.on_get(M, b);
        assert!(d.g.set_data(M).nt.contains(a));
    }

    #[test]
    fn repeated_gets_on_same_future_are_idempotent() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        d.g.on_get(b, a);
        assert_eq!(d.g.set_data(b).nt.len(), 1);
        assert_eq!(d.g.counters.gets, 2);
    }

    #[test]
    fn preorder_prune_blocks_later_tasks() {
        // B spawned after A ended and never joined: B cannot precede A's
        // set members, and precede(B, anything-earlier) is false quickly.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(b);
        assert!(!d.g.precede(b, a));
    }

    #[test]
    fn counters_track_queries() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let before = d.g.counters.precede_calls;
        let _ = d.g.precede(a, M);
        let _ = d.g.precede(M, a);
        assert_eq!(d.g.counters.precede_calls, before + 2);
        assert!(d.g.counters.visit_expansions > 0);
    }

    #[test]
    fn memo_epoch_invalidates_on_get() {
        // A ends unjoined; B is a later sibling, so precede(A, B) is false
        // and the verdict lands in the memo. B's get() then stores a
        // non-tree edge, which must bump the epoch and flip the recomputed
        // verdict to true.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        assert!(!d.g.precede(a, b));
        assert_eq!(d.g.counters.memo_misses, 1);
        assert!(!d.g.precede(a, b), "repeat query served from the memo");
        assert_eq!(d.g.counters.memo_hits, 1);

        let e0 = d.g.epoch();
        d.g.on_get(b, a); // non-tree edge
        assert!(d.g.epoch() > e0, "stored nt edge must bump the epoch");
        assert!(d.g.precede(a, b), "stale memo entry must not survive");
        assert_eq!(d.g.counters.memo_hits, 1, "post-bump query recomputes");
    }

    #[test]
    fn memo_epoch_invalidates_on_finish_end() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Async);
        d.g.on_task_end(a);
        assert!(!d.g.precede(a, M), "unjoined async is parallel to main");
        let e0 = d.g.epoch();
        d.g.on_finish_end(M, &[a]); // merge: an ordering edge appears
        assert!(d.g.epoch() > e0, "finish-end merge must bump the epoch");
        assert!(d.g.precede(a, M), "verdict flips after the merge");
    }

    #[test]
    fn idempotent_operations_keep_the_epoch() {
        // Epoch bumps only on *actual* graph mutations: repeated gets on
        // an already-recorded future (both the nt-edge and merged shapes)
        // and plain task create/end add no edges between existing nodes.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        let e = d.g.epoch();
        d.g.on_get(b, a); // nt edge already stored
        assert_eq!(d.g.epoch(), e);
        d.g.on_task_end(b);
        d.g.on_get(M, a); // merge A into main's set
        let e = d.g.epoch();
        d.g.on_get(M, a); // already merged
        assert_eq!(d.g.epoch(), e);
        let c = d.spawn(M, TaskKind::Async);
        d.g.on_task_end(c);
        assert_eq!(d.g.epoch(), e, "create/end add no edges");
    }

    #[test]
    fn memo_disabled_matches_enabled_verdicts() {
        let build = |memo: bool| {
            let mut d = Driver::new();
            d.g.set_memo_enabled(memo);
            let a = d.spawn(M, TaskKind::Future);
            d.g.on_task_end(a);
            let b = d.spawn(M, TaskKind::Future);
            d.g.on_get(b, a);
            let c = d.spawn(b, TaskKind::Future);
            let tasks = [M, a, b, c];
            let mut verdicts = Vec::new();
            for x in tasks {
                for y in tasks {
                    verdicts.push(d.g.precede(x, y));
                    verdicts.push(d.g.precede(x, y)); // repeat: memo path
                }
            }
            (verdicts, d.g.counters)
        };
        let (with, cw) = build(true);
        let (without, cwo) = build(false);
        assert_eq!(with, without);
        assert_eq!(cw.precede_calls, cwo.precede_calls);
        assert!(cw.memo_hits > 0, "repeat queries must hit the memo");
        assert_eq!(cwo.memo_hits + cwo.memo_misses, 0, "disabled mode never memoizes");
        assert!(
            cw.visit_expansions < cwo.visit_expansions,
            "memo must save traversal work: {} vs {}",
            cw.visit_expansions,
            cwo.visit_expansions
        );
    }

    #[test]
    fn nt_set_spills_past_inline_capacity() {
        let mut s = NtSet::new();
        assert!(s.is_empty());
        for i in 1..=9u32 {
            s.push(TaskId(i));
        }
        s.push(TaskId(9)); // push never deduplicates
        assert_eq!(s.len(), 10);
        assert!(matches!(s, NtSet::Spilled(_)));
        assert!(s.contains(TaskId(4)));
        assert_eq!(s.as_slice()[0], TaskId(1));
        assert_eq!(s.to_vec()[9], TaskId(9));
    }

    /// Graphwalk's shape: main spawns `n` futures in order, future `i`
    /// gets its earlier siblings `i / 2` and `i / 3`, then main gets every
    /// future in spawn order. Returns the stored `nt` entries once main has
    /// joined them all.
    fn graphwalk_shape(n: u32) -> usize {
        let preds = |i: u32| [i / 2, i / 3].into_iter().filter(|&p| p >= 1);
        // reach[x] = set of futures y >= x that x reaches through gets.
        let mut reach = vec![vec![false; n as usize + 1]; n as usize + 1];
        let mut d = Driver::new();
        for i in 1..=n {
            let f = d.spawn(M, TaskKind::Future);
            assert_eq!(f, TaskId(i));
            reach[i as usize][i as usize] = true;
            for p in preds(i) {
                d.g.on_get(f, TaskId(p));
                for row in &mut reach[1..=p as usize] {
                    row[i as usize] |= row[p as usize];
                }
            }
            for x in [1, i / 3, i / 2, i.saturating_sub(3), i - 1] {
                if x >= 1 && x < i {
                    let want = reach[x as usize][i as usize];
                    assert_eq!(d.g.precede(TaskId(x), f), want, "n={n}: T{x} -> T{i}");
                }
            }
            d.g.on_task_end(f);
        }
        for k in 1..=n {
            d.g.on_get(M, TaskId(k));
            for x in [1, k / 2, k, k + 1, n] {
                if (1..=n).contains(&x) {
                    assert_eq!(d.g.precede(TaskId(x), M), x <= k, "n={n}: T{x} after get {k}");
                }
            }
            assert!(d.g.stored_nt_edges() as u64 <= d.g.counters.nt_edges);
        }
        d.g.stored_nt_edges()
    }

    #[test]
    fn joining_many_futures_keeps_stored_nt_flat() {
        // Every source main inherits already sits in main's set, so the
        // merge drops it instead of accumulating one entry per future.
        let small = graphwalk_shape(100);
        let large = graphwalk_shape(1000);
        assert_eq!(small, large, "stored nt entries must not grow with n");
        assert!(large <= 2, "{large}");
    }

    #[test]
    fn visited_marks_survive_generation_wraparound() {
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, a);
        let c = d.spawn(b, TaskKind::Future);
        d.g.set_memo_enabled(false);
        // The next query wraps the generation. Stale stamps equal to the
        // first post-wrap generation would read as already visited unless
        // the wrap clears them.
        d.g.visited.fill(1);
        d.g.visit_gen = u32::MAX;
        assert!(d.g.precede(a, c));
        assert_eq!(d.g.visit_gen, 1, "generation wrapped and restarted at 1");
        for _ in 0..3 {
            assert!(d.g.precede(a, b));
            assert!(d.g.precede(a, c));
            assert!(!d.g.precede(b, a));
        }
    }

    #[test]
    fn merge_keeps_a_side_attributes_when_b_holds_the_longer_nt() {
        // x2, x3 end unjoined; c gets x1 so p (spawned by c) has lsa = c.
        // p spawns future b, which gets x2 and x3; p then gets b, merging
        // b's two-entry nt into p's empty one.
        let mut d = Driver::new();
        let x1 = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(x1);
        let x2 = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(x2);
        let x3 = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(x3);
        let c = d.spawn(M, TaskKind::Future);
        d.g.on_get(c, x1);
        let p = d.spawn(c, TaskKind::Future);
        let b = d.spawn(p, TaskKind::Future);
        d.g.on_get(b, x2);
        d.g.on_get(b, x3);
        d.g.on_task_end(b);
        assert!(d.g.set_data(p).nt.is_empty());
        assert_eq!(d.g.set_data(b).nt.len(), 2);
        d.g.on_get(p, b);
        assert!(d.g.same_set(p, b));
        let merged = d.g.set_data(b).clone();
        assert_eq!(merged.interval, d.g.meta(p).own, "S_A's interval survives");
        assert_eq!(merged.lsa, Some(c), "S_A's lsa survives");
        assert_eq!(merged.nt.to_vec(), vec![x2, x3]);
        assert!(d.g.precede(x2, p) && d.g.precede(x3, p) && d.g.precede(x1, p));
    }

    /// One future `get`s `n` completed siblings, oldest first, and after
    /// each `get` asks whether the future it just joined precedes it — the
    /// actor client's request/response shape. Returns the `Visit`
    /// expansions those `n` queries cost.
    fn newest_producer_expansions(n: u32, memo: bool) -> u64 {
        let mut d = Driver::new();
        d.g.set_memo_enabled(memo);
        let producers: Vec<TaskId> = (0..n)
            .map(|_| {
                let f = d.spawn(M, TaskKind::Future);
                d.g.on_task_end(f);
                f
            })
            .collect();
        let waiter = d.spawn(M, TaskKind::Future);
        let before = d.g.counters.visit_expansions;
        for &f in &producers {
            d.g.on_get(waiter, f);
            assert!(d.g.precede(f, waiter));
        }
        assert_eq!(d.g.set_data(waiter).nt.len(), n as usize);
        d.g.counters.visit_expansions - before
    }

    #[test]
    fn newest_producer_is_found_without_scanning_older_ones() {
        // Each query must hit its producer in the waiter's own `nt` slice
        // before pushing the older entries; expanding them costs n²/2.
        for n in [1000u32, 4000] {
            for memo in [true, false] {
                let e = newest_producer_expansions(n, memo);
                assert!(e <= u64::from(n), "n={n} memo={memo}: {e} expansions");
            }
        }
    }

    /// Future `i` gets its completed siblings `i / 2` and `i / 3`, as in
    /// graphwalk. Then, with no mutation in between, every ordered pair of
    /// tasks is queried twice in a row, and all pairs once more in reverse
    /// order. Returns the verdicts and the counters.
    fn all_pairs_in_one_epoch(n: u32, memo: bool) -> (Vec<bool>, DtrgCounters) {
        let mut d = Driver::new();
        d.g.set_memo_enabled(memo);
        for i in 1..=n {
            let f = d.spawn(M, TaskKind::Future);
            for p in [i / 2, i / 3] {
                if p >= 1 {
                    d.g.on_get(f, TaskId(p));
                }
            }
            d.g.on_task_end(f);
        }
        let epoch = d.g.epoch();
        let pairs: Vec<(TaskId, TaskId)> = (0..=n)
            .flat_map(|x| (0..=n).map(move |y| (TaskId(x), TaskId(y))))
            .collect();
        let mut verdicts = Vec::new();
        for &(x, y) in &pairs {
            verdicts.push(d.g.precede(x, y));
            verdicts.push(d.g.precede(x, y));
        }
        for &(x, y) in pairs.iter().rev() {
            verdicts.push(d.g.precede(x, y));
        }
        assert_eq!(d.g.epoch(), epoch, "queries never mutate the graph");
        (verdicts, d.g.counters)
    }

    #[test]
    fn memo_slots_overflowing_one_epoch_keep_every_verdict() {
        let n = 40u32;
        let (cached, cc) = all_pairs_in_one_epoch(n, true);
        let (uncached, cu) = all_pairs_in_one_epoch(n, false);
        assert_eq!(cached, uncached);
        assert!(cached.contains(&true) && cached.contains(&false));
        // Distinct siblings never share a set or nest, so every ordered
        // pair of distinct futures reaches the memo: far more than slots.
        let distinct = u64::from(n * (n - 1));
        assert!(distinct > MEMO_SLOTS as u64);
        assert!(cc.memo_misses >= distinct, "every first query misses");
        assert!(cc.memo_hits >= distinct, "every immediate repeat hits");
        let reverse_hits = cc.memo_hits - distinct;
        assert!(reverse_hits > 0, "the reverse pass reaches recent slots");
        assert!(
            cc.memo_misses > distinct,
            "evicted slots miss and recompute"
        );
        assert_eq!(cu.memo_hits + cu.memo_misses, 0);
        assert_eq!(cc.precede_calls, cu.precede_calls);
    }

    #[test]
    fn slot_from_an_older_epoch_is_never_read() {
        // A ends; C gets A; B is a later sibling. precede(A, B) is false
        // and lands in its slot. B's get of C adds an edge (two hops from
        // A), bumping the epoch: the same query must recompute and flip.
        let mut d = Driver::new();
        let a = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(a);
        let c = d.spawn(M, TaskKind::Future);
        d.g.on_get(c, a);
        d.g.on_task_end(c);
        let b = d.spawn(M, TaskKind::Future);
        assert!(!d.g.precede(a, b));
        let (ra, rb) = (
            d.g.sets.find(a.index()) as u32,
            d.g.sets.find(b.index()) as u32,
        );
        let stored = d.g.memo[memo_slot(ra, rb)];
        assert!(stored.ra == ra && stored.rb == rb && !stored.verdict);
        assert_eq!(stored.epoch, d.g.epoch());

        d.g.on_get(b, c);
        assert!(d.g.epoch() > stored.epoch);
        let misses = d.g.counters.memo_misses;
        assert!(
            d.g.precede(a, b),
            "the false verdict is from an older epoch"
        );
        assert_eq!(d.g.counters.memo_misses, misses + 1);
        assert!(
            d.g.memo[memo_slot(ra, rb)].verdict,
            "the store overwrote the slot"
        );
        assert!(d.g.precede(a, b));
        assert_eq!(
            d.g.counters.memo_misses,
            misses + 1,
            "now served from the slot"
        );
    }

    /// Twenty completed readers, then a non-tree chain p0 → p1 → p2 → b with
    /// `b` running, and `q` spawned between p0's end and p1: the shape of a
    /// location whose racy readers every access by `b` re-checks. Queries
    /// every reader, the chain, and `q` (which would prune p0), then
    /// relabels a set by ending a child of `b` and queries again.
    fn readers_against_a_chain(memo: bool) -> (Vec<bool>, Vec<u64>) {
        let mut d = Driver::new();
        d.g.set_memo_enabled(memo);
        let readers: Vec<TaskId> = (0..20)
            .map(|_| {
                let r = d.spawn(M, TaskKind::Future);
                d.g.on_task_end(r);
                r
            })
            .collect();
        let p0 = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(p0);
        let q = d.spawn(M, TaskKind::Future);
        d.g.on_task_end(q);
        let p1 = d.spawn(M, TaskKind::Future);
        d.g.on_get(p1, p0);
        d.g.on_task_end(p1);
        let p2 = d.spawn(M, TaskKind::Future);
        d.g.on_get(p2, p1);
        d.g.on_task_end(p2);
        let b = d.spawn(M, TaskKind::Future);
        d.g.on_get(b, p2);
        let mut verdicts = Vec::new();
        let mut expansions = Vec::new();
        let mut ask = |d: &mut Driver, x: TaskId| {
            verdicts.push(d.g.precede(x, b));
            expansions.push(d.g.counters.visit_expansions);
        };
        for &r in &readers[..10] {
            ask(&mut d, r);
        }
        for x in [p0, p1, q, readers[10], readers[11], p2] {
            ask(&mut d, x);
        }
        let c = d.spawn(b, TaskKind::Future);
        d.g.on_task_end(c);
        for &r in &readers[12..] {
            ask(&mut d, r);
        }
        (verdicts, expansions)
    }

    #[test]
    fn a_negative_walk_is_replayed_for_later_sources() {
        let (cached, with) = readers_against_a_chain(true);
        let (uncached, without) = readers_against_a_chain(false);
        assert_eq!(cached, uncached);
        let want: Vec<bool> = [
            [false; 10].as_slice(),
            &[true, true, false, false, false, true],
            &[false; 8],
        ]
        .concat();
        assert_eq!(cached, want);
        // Uncached, every reader query walks b, p2, p1, p0.
        assert_eq!(without[0], 4);
        assert!(without.windows(2).all(|w| w[1] > w[0]));
        // Cached, the first reader walks; the next nine, and p0 and p1,
        // replay it without expanding anything.
        assert_eq!(with[0], 4);
        assert_eq!(with[11], 4, "replayed queries expand nothing");
        // q's label would prune p0, so its query walks (and prunes), and
        // the next reader cannot replay that pruned walk.
        assert!(with[12] > with[11], "q walks");
        assert!(with[13] > with[12], "a pruned walk is not replayed");
        assert_eq!(with[14], with[13], "the reader's complete walk is");
        // Ending c relabels a set: the first query after it walks again.
        assert!(with[16] > with[15], "on_task_end forgets the walk");
        assert_eq!(with[23], with[16]);
    }

    /// A long pure non-tree chain (future i gets future i−1) plus a
    /// disconnected straggler: queries that visit every chain node.
    #[test]
    fn long_non_tree_chain_queries_are_correct() {
        let mut g = Dtrg::new();
        let n = 200u32;
        for i in 1..=n {
            g.on_task_create(M, TaskId(i), TaskKind::Future);
            if i > 1 {
                g.on_get(TaskId(i), TaskId(i - 1));
            }
            g.on_task_end(TaskId(i));
        }
        // Straggler future created last, never joined to the chain.
        let straggler = TaskId(n + 1);
        g.on_task_create(M, straggler, TaskKind::Future);
        g.on_task_end(straggler);

        // Positive long-range query: walks the whole chain.
        assert!(g.precede(TaskId(1), TaskId(n)));
        // Negative query from the straggler: nothing reaches it.
        assert!(!g.precede(straggler, TaskId(n)));
        // Negative long-range reverse query: must visit every chain node
        // and still answer false.
        assert!(!g.precede(TaskId(n), TaskId(1)));
        // Re-querying stays consistent (scratch reuse).
        assert!(g.precede(TaskId(7), TaskId(n)));
        assert!(!g.precede(TaskId(n), TaskId(7)));
    }
}
