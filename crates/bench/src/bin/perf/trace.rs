//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program: one root span per
//! operation, a child around every call into a layer's public
//! function, and grandchildren copied from what the call returned
//! (`RunStats` phases, `QueryTrace` spans). They stay in memory and
//! are written to `<out>/trace_<workload>.json` when the window
//! closes. Spans inside the program are a later issue.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept per trace file; operations past the cap are counted in
/// `dropped_ops` instead of recorded (the wire-bound workload makes
/// several hundred thousand requests in a window).
const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<u32>,
    /// Spans of one operation share its id.
    pub op_id: u64,
    pub name: &'static str,
    /// The operation's class (`hybrid`, `ind_pref`, `insert`, …).
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A stage total returned by the program (a `RunStats` phase or an
/// aggregated `QueryTrace` span): a name and how long it took in all.
pub type Stage = (&'static str, Duration);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    next_op: u64,
    dropped_ops: u64,
}

/// An operation being recorded: its root span's slot and id.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    root: Option<usize>,
    op_id: u64,
    class: &'static str,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            next_op: 0,
            dropped_ops: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty recorder on the same time origin, for one client
    /// thread; hand it back through [`absorb`](Self::absorb).
    pub fn fork(&self) -> Recorder {
        Recorder {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
            next_op: 0,
            dropped_ops: 0,
        }
    }

    /// Appends a forked recorder's spans, renumbering span and
    /// operation ids past the ones already held.
    pub fn absorb(&mut self, other: Recorder) {
        let (span_base, op_base) = (self.spans.len() as u32, self.next_op);
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        // Cut on an operation boundary so no op is recorded in part.
        let mut keep = other.spans.len().min(room);
        while keep > 0 && keep < other.spans.len() && other.spans[keep].parent.is_some() {
            keep -= 1;
        }
        let cut_ops = other.spans[keep..].iter().filter(|s| s.parent.is_none());
        self.dropped_ops += other.dropped_ops + cut_ops.count() as u64;
        self.spans.extend(other.spans[..keep].iter().map(|s| Span {
            id: s.id + span_base,
            parent: s.parent.map(|p| p + span_base),
            op_id: s.op_id + op_base,
            ..s.clone()
        }));
        self.next_op += other.next_op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u32>, op: &Op, name: &'static str, s: u64, e: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op_id: op.op_id,
            name,
            class: op.class,
            start_ns: s,
            end_ns: e,
        });
        id
    }

    /// Opens the root span of the next operation.
    pub fn begin(&mut self, class: &'static str) -> Op {
        let mut op = Op {
            root: None,
            op_id: self.next_op,
            class,
        };
        self.next_op += 1;
        if !self.enabled {
            return op;
        }
        // Room for the root, a call and its stages.
        if self.spans.len() + 16 > MAX_SPANS {
            self.dropped_ops += 1;
            return op;
        }
        let now = self.ns(Instant::now());
        op.root = Some(self.push(None, &op, "op", now, now) as usize);
        op
    }

    /// Records a child span around a call that ran from `start` to
    /// `end`, with `stages` as its grandchildren. Stage totals are
    /// aggregates (an α-block algorithm enters each phase once per
    /// block), so they are laid end to end from the call's start in
    /// the order given — canonical, not chronological — and cut off at
    /// the call's end should rounding make them overrun it.
    pub fn call(
        &mut self,
        op: &Op,
        name: &'static str,
        start: Instant,
        end: Instant,
        stages: &[Stage],
    ) {
        let Some(root) = op.root else { return };
        let (s, e) = (self.ns(start), self.ns(end));
        let parent = self.push(Some(root as u32), op, name, s, e);
        let mut at = s;
        for &(stage, total) in stages {
            let stop = (at + total.as_nanos() as u64).min(e);
            if stop > at {
                self.push(Some(parent), op, stage, at, stop);
            }
            at = stop;
        }
    }

    /// Closes the operation's root span.
    pub fn end(&mut self, op: Op) {
        if let Some(root) = op.root {
            self.spans[root].end_ns = self.ns(Instant::now());
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans, each with its self time, as one JSON document.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace_{workload}.json"));
        let selfs = self_times(&self.spans);
        let mut text = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped_ops\": {}, \"spans\": [\n",
            self.dropped_ops
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"op_id\": {}, \"name\": \"{}\", \
                 \"class\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id, s.op_id, s.name, s.class, s.start_ns, s.end_ns
            );
            text.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("]}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover (the union of the children's intervals,
/// clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Checks what the acceptance criteria ask of a trace: every child
/// lies inside its parent and belongs to the same operation, and per
/// operation the self times sum to the root's duration within 5 %.
pub fn check(spans: &[Span]) -> Result<(), String> {
    let selfs = self_times(spans);
    let mut per_op: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        let entry = per_op.entry(s.op_id).or_default();
        entry.1 += self_ns;
        match s.parent {
            None => entry.0 += s.duration_ns(),
            Some(p) => {
                let parent = spans
                    .get(p as usize)
                    .ok_or_else(|| format!("span {} names a missing parent {p}", s.id))?;
                if parent.op_id != s.op_id {
                    return Err(format!("span {} and its parent are of different ops", s.id));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                        s.id,
                        s.name,
                        s.start_ns,
                        s.end_ns,
                        parent.id,
                        parent.name,
                        parent.start_ns,
                        parent.end_ns
                    ));
                }
            }
        }
    }
    for (op, (root, self_sum)) in per_op {
        if (root as f64 - self_sum as f64).abs() > 0.05 * root as f64 {
            return Err(format!(
                "op {op}: self times sum to {self_sum} ns, the op took {root} ns"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, op_id: u64, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op_id,
            name: "s",
            class: "c",
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 60),
            span(2, Some(1), 0, 10, 30),
            span(3, Some(1), 0, 30, 55),
            span(4, Some(0), 0, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 5, 20, 25, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert!(check(&spans).is_ok());
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 60),
            span(2, Some(0), 0, 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // 30 + 50 + 40 = 120 ≠ 100: overlap breaks the per-op sum.
        assert!(check(&spans).unwrap_err().contains("self times"));
    }

    #[test]
    fn escaping_children_and_foreign_parents_are_caught() {
        let escaping = vec![span(0, None, 0, 0, 100), span(1, Some(0), 0, 50, 101)];
        assert!(check(&escaping).unwrap_err().contains("leaves its parent"));
        let foreign = vec![span(0, None, 0, 0, 100), span(1, Some(0), 1, 10, 20)];
        assert!(check(&foreign).unwrap_err().contains("different ops"));
    }

    #[test]
    fn recorder_lays_stages_end_to_end_inside_the_call() {
        let mut rec = Recorder::new(true);
        let op = rec.begin("hybrid");
        let start = Instant::now();
        let end = start + Duration::from_micros(100);
        rec.call(
            &op,
            "core.run",
            start,
            end,
            &[
                ("init", Duration::from_micros(30)),
                ("skipped", Duration::ZERO),
                ("phase1", Duration::from_micros(50)),
                ("overrun", Duration::from_micros(500)),
            ],
        );
        std::thread::sleep(Duration::from_micros(200));
        rec.end(op);
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "core.run", "init", "phase1", "overrun"]);
        assert_eq!(spans[2].end_ns, spans[3].start_ns);
        assert_eq!(spans[4].end_ns, spans[1].end_ns);
        assert!(spans.iter().all(|s| s.op_id == 0 && s.class == "hybrid"));
        check(spans).unwrap();
        let second = rec.begin("qflow");
        rec.end(second);
        assert_eq!(rec.spans().last().unwrap().op_id, 1);
    }

    #[test]
    fn forked_recorders_are_renumbered_when_absorbed() {
        let mut main = Recorder::new(true);
        let op = main.begin("a");
        main.end(op);
        let mut forks: Vec<Recorder> = (0..2).map(|_| main.fork()).collect();
        for fork in &mut forks {
            for _ in 0..2 {
                let op = fork.begin("b");
                let now = Instant::now();
                fork.call(&op, "call", now, now, &[]);
                fork.end(op);
            }
        }
        for fork in forks {
            main.absorb(fork);
        }
        let spans = main.spans();
        assert_eq!(spans.len(), 1 + 2 * 4);
        assert!(spans.iter().enumerate().all(|(i, s)| s.id as usize == i));
        let mut ops: Vec<u64> = spans.iter().map(|s| s.op_id).collect();
        ops.dedup();
        assert_eq!(ops, [0, 1, 2, 3, 4]);
        check(spans).unwrap();
        assert_eq!(main.begin("c").op_id, 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let op = rec.begin("x");
        rec.call(&op, "y", Instant::now(), Instant::now(), &[]);
        rec.end(op);
        assert!(rec.spans().is_empty());
    }
}
