//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. Spans nest (a check contains its layer calls) and are
//! kept in memory until the run ends, then written out as TSV. A layer's
//! *self time* is its spans' durations minus the time their child spans
//! cover; over a traced phase the self times of all spans must add up to
//! the phase's wall time, which [`Tracer::addup_error`] measures.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span times (a crate/module name such as `core.dtrg`, or
    /// `bench` for the benchmark's own glue).
    pub layer: &'static str,
    /// The operation within the layer.
    pub op: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// The check (or probe) the span belongs to.
    pub check: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one traced phase.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    check: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            check: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the check id stamped on spans opened from now on.
    pub fn set_check(&mut self, check: u32) {
        self.check = check;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, op: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            layer,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            check: self.check,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit() without a matching enter()");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.enter(layer, op);
        let r = f(self);
        self.exit();
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<i64> {
        assert!(self.open.is_empty(), "self times need every span closed");
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent as usize] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Total self time per `(layer, op)`, in ns.
    pub fn self_time_by_op(&self) -> BTreeMap<(&'static str, &'static str), i64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry((s.layer, s.op)).or_insert(0) += own;
        }
        out
    }

    /// Total self time per layer, in ns.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, i64> {
        let mut out = BTreeMap::new();
        for ((layer, _), ns) in self.self_time_by_op() {
            *out.entry(layer).or_insert(0) += ns;
        }
        out
    }

    /// Durations (ns) of every span with this layer and op, in order.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(Span::duration_ns)
            .collect()
    }

    /// How far the layers' self times, summed, miss `wall_ns` (the wall
    /// time of the traced phase, measured independently), as a share of
    /// `wall_ns`. A negative self time — a child outliving its parent —
    /// is reported as a full miss.
    pub fn addup_error(&self, wall_ns: u64) -> f64 {
        let own = self.self_ns();
        if own.iter().any(|&ns| ns < 0) {
            return 1.0;
        }
        let total: i64 = own.iter().sum();
        (wall_ns as f64 - total as f64).abs() / wall_ns.max(1) as f64
    }

    /// Writes the spans as TSV, after a `#` header line. A span with
    /// children gets a line of its own; sibling leaf spans of one layer and
    /// op (the detector's per-run spans number in the millions) are written
    /// as one line carrying their count, the first start, the last end and
    /// their summed duration.
    pub fn write_tsv(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "# {header}")?;
        writeln!(
            out,
            "idx\tlayer\top\tstart_ns\tend_ns\tparent\tcheck\tcount\tbusy_ns"
        )?;
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                has_child[s.parent as usize] = true;
            }
        }
        // Leaf spans group by (parent, layer, op); a span with children is
        // a group of its own. Groups are written in order of first span.
        struct Group {
            first: usize,
            end_ns: u64,
            count: u64,
            busy_ns: u64,
        }
        let mut index: BTreeMap<(u32, &str, &str), usize> = BTreeMap::new();
        let mut groups: Vec<Group> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let key = if has_child[i] {
                (i as u32, "", "")
            } else {
                (s.parent, s.layer, s.op)
            };
            let g = *index.entry(key).or_insert_with(|| {
                groups.push(Group {
                    first: i,
                    end_ns: 0,
                    count: 0,
                    busy_ns: 0,
                });
                groups.len() - 1
            });
            let g = &mut groups[g];
            g.end_ns = s.end_ns;
            g.count += 1;
            g.busy_ns += s.duration_ns();
        }
        for g in groups {
            let s = &self.spans[g.first];
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                g.first, s.layer, s.op, s.start_ns, g.end_ns, s.check, g.count, g.busy_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_adds_up_to_the_wall() {
        let mut tr = Tracer::new();
        let wall = Instant::now();
        tr.set_check(7);
        tr.span("bench", "check", |tr| {
            spin(200_000);
            tr.span("core.detector", "access", |_| spin(300_000));
            tr.span("core.detector", "control", |_| spin(100_000));
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let by_layer = tr.self_time_by_layer();
        let bench = by_layer["bench"];
        let detector = by_layer["core.detector"];
        assert!(detector >= 400_000, "{detector}");
        assert!((200_000..400_000).contains(&bench), "{bench}");
        assert!(
            tr.addup_error(wall_ns) < 0.05,
            "{}",
            tr.addup_error(wall_ns)
        );
        assert!(tr.spans().iter().all(|s| s.check == 7));
        assert_eq!(tr.spans()[1].parent, 0);
        assert_eq!(tr.durations("core.detector", "access").len(), 1);
    }

    #[test]
    fn uncovered_wall_time_shows_as_an_addup_error() {
        let mut tr = Tracer::new();
        let wall = Instant::now();
        tr.span("bench", "check", |_| spin(100_000));
        spin(300_000); // outside every span
        let err = tr.addup_error(wall.elapsed().as_nanos() as u64);
        assert!(err > 0.5, "{err}");
    }

    #[test]
    fn tsv_groups_sibling_leaves() {
        let mut tr = Tracer::new();
        tr.span("bench", "check", |tr| {
            tr.span("runtime.serial", "record", |_| ());
            for _ in 0..3 {
                tr.span("core.detector", "control", |_| ());
                tr.span("core.detector", "access", |_| ());
            }
        });
        let mut buf = Vec::new();
        tr.write_tsv(&mut buf, "host nproc=1").unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Header, column names, the check, record, control x3, access x3.
        assert_eq!(text.lines().count(), 6, "{text}");
        assert!(text.starts_with("# host nproc=1\n"));
        let control = text.lines().find(|l| l.contains("\tcontrol\t")).unwrap();
        let cols: Vec<&str> = control.split('\t').collect();
        assert_eq!(cols[5], "0", "parent is the check span");
        assert_eq!(cols[7], "3", "three control runs in one line");
    }
}
