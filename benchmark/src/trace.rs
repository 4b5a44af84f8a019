//! In-memory spans around every call the harness makes into a layer.
//!
//! The harness, not the crates, records these: a span is opened right
//! before a public function is called and closed right after. Spans are
//! kept in memory and written out once, at exit. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover, so nested measurements (a batch and the schedule / kernel /
//! scatter calls inside it) never count the same nanosecond twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `oracle.estimate_grouped`.
    pub name: &'static str,
    /// What the call ran on (the served oracle's name, or `""`).
    pub label: &'static str,
    /// Measurement round the call belongs to.
    pub round: u32,
    /// Request / repetition id within the round.
    pub id: u64,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
}

/// Records spans when enabled; when disabled it still times the call, so
/// traced and untraced runs share one code path and differ only in what
/// is kept.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates to
    /// measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the round stamped on every span opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// A tracer for another thread: same epoch, same mode, same round.
    /// Fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            round: self.round,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends another thread's spans; its root spans become children of
    /// the span currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let adopt = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            self.spans.push(s);
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// nanoseconds. `f` receives the tracer so it can open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_nanos() as u64);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            label,
            round: self.round,
            id,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per `(name, label, round)` — computed once, after
    /// the run.
    pub fn self_totals(&self) -> SelfTotals {
        let selfs = self_times(&self.spans);
        let mut totals: BTreeMap<(&'static str, &'static str), BTreeMap<u32, u64>> =
            BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&selfs) {
            *totals
                .entry((s.name, s.label))
                .or_default()
                .entry(s.round)
                .or_insert(0) += ns;
        }
        SelfTotals(totals)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"label\":\"{}\",\"round\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.label, s.round, s.id, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Per-round self-time sums of every `(name, label)` in a trace.
pub struct SelfTotals(BTreeMap<(&'static str, &'static str), BTreeMap<u32, u64>>);

impl SelfTotals {
    /// Nanoseconds of self time of `name` on `label`, one entry per round
    /// that recorded it, in round order.
    pub fn per_round(&self, name: &str, label: &str) -> Vec<f64> {
        self.0
            .get(&(name, label))
            .map(|rounds| rounds.values().map(|&ns| ns as f64).collect())
            .unwrap_or_default()
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals, clipped to the span (children of different threads may
/// overlap each other, and a child may outlive a parent it was adopted
/// by).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
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
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "x",
            label: "",
            round: 0,
            id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..70.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two threads' children overlap on 30..50; one child outlives
        // the parent and is clipped to it.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(90, 140, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 50, 50]);
    }

    #[test]
    fn tracer_records_parents_rounds_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        let ((), outer_ns) = tr.span("outer", "pde", 7, |tr| {
            tr.span("inner", "pde", 8, |_| std::hint::black_box(1 + 1));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].round, spans[1].id), (3, 8));
        assert_eq!(outer_ns, spans[0].end_ns - spans[0].start_ns);
        let inner = spans[1].end_ns - spans[1].start_ns;
        let totals = tr.self_totals();
        assert_eq!(
            totals.per_round("outer", "pde"),
            vec![(outer_ns - inner) as f64]
        );
        assert!(totals.per_round("outer", "rtc").is_empty());
        assert!(tr.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, _ns) = tr.span("outer", "", 0, |_| 5);
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn forked_spans_are_adopted_by_the_open_span() {
        let mut tr = Tracer::new(true);
        tr.span("phase", "", 0, |tr| {
            let mut worker = tr.fork();
            worker.span("request", "", 1, |w| {
                w.span("recv", "", 1, |_| ());
            });
            tr.absorb(worker);
        });
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }
}
