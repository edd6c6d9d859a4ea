//! Spans recorded from outside the program.
//!
//! A traced rep timestamps the solver's own [`ProgressEvent`]s
//! (`Started / Merged / Sweep / Iteration / Finished`) plus the calls the
//! benchmark itself makes around the library (`load_graph`, `run()`,
//! the assignment write). Spans are kept in memory and written once, at
//! exit, as JSON lines `{name, start_ns, end_ns, parent, rep}` where
//! `parent` is the line index of the enclosing span (or `null`).
//!
//! The nesting is `rep ⊃ {graph.load, api.prologue, solve, api.epilogue,
//! api.write}` and `solve ⊃ iteration[i] ⊃ {merge[i], mcmc[i] ⊃
//! sweep[i,j]}`. A span's *self time* is its duration minus the part of
//! it its children cover ([`self_times`]).

use edist::prelude::ProgressEvent;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed interval on the rep's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `merge[3]`.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    /// `end − start` in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of
/// its direct children's intervals (clipped to the span, so overlapping
/// or overhanging children never drive it negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
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
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// Timestamps events against one origin and assembles the span tree.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Raw solver events with their arrival times.
    events: Vec<(u64, SolverMark)>,
}

/// The solver events a traced rep keeps (everything else is ignored).
#[derive(Clone, Copy, Debug, PartialEq)]
enum SolverMark {
    Started,
    Merged(usize),
    Sweep(usize, usize),
    Iteration(usize),
    Finished,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (the rep's first
    /// instruction, so process start-up cost is inside the root span).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a closed span and returns its index.
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `index` (the root is closed last).
    pub fn set_end(&mut self, index: usize, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(index) {
            s.end_ns = end_ns;
        }
    }

    /// Timestamps one solver event (call from the `ProgressFn`).
    pub fn on_event(&mut self, event: &ProgressEvent) {
        let mark = match event {
            ProgressEvent::Started { .. } => SolverMark::Started,
            ProgressEvent::Merged { iteration, .. } => SolverMark::Merged(*iteration),
            ProgressEvent::Sweep {
                iteration, sweep, ..
            } => SolverMark::Sweep(*iteration, *sweep),
            ProgressEvent::Iteration { iteration, .. } => SolverMark::Iteration(*iteration),
            ProgressEvent::Finished { .. } | ProgressEvent::Cancelled { .. } => {
                SolverMark::Finished
            }
            _ => return,
        };
        self.events.push((self.now_ns(), mark));
    }

    /// Arrival time of the solver's `Started` event, if one was seen.
    pub fn started_ns(&self) -> Option<u64> {
        self.events
            .iter()
            .find(|(_, m)| *m == SolverMark::Started)
            .map(|&(t, _)| t)
    }

    /// Arrival time of the solver's terminal event, if one was seen.
    pub fn finished_ns(&self) -> Option<u64> {
        self.events
            .iter()
            .rev()
            .find(|(_, m)| *m == SolverMark::Finished)
            .map(|&(t, _)| t)
    }

    /// Turns the recorded solver events into `solve ⊃ iteration ⊃
    /// {merge, mcmc ⊃ sweep}` spans under `parent`. An iteration runs
    /// from the previous boundary (`Started` or the previous `Iteration`
    /// event) to its own `Iteration` event, so the blockmodel rebuild and
    /// bracket bookkeeping between phases land in `merge[i]`'s interval.
    pub fn close_solve(&mut self, parent: Option<usize>) {
        let (Some(start), Some(end)) = (self.started_ns(), self.finished_ns()) else {
            return;
        };
        let solve = self.push("solve", start, end, parent);
        let events = std::mem::take(&mut self.events);
        let mut boundary = start;
        // (merged_at, sweeps) of the iteration being assembled.
        let mut merged_at: Option<u64> = None;
        let mut sweeps: Vec<(usize, u64)> = Vec::new();
        for &(t, mark) in &events {
            match mark {
                SolverMark::Merged(_) => {
                    merged_at = Some(t);
                    sweeps.clear();
                }
                SolverMark::Sweep(_, j) if merged_at.is_some() => sweeps.push((j, t)),
                SolverMark::Iteration(i) => {
                    let Some(m) = merged_at.take() else { continue };
                    let it = self.push(&format!("iteration[{i}]"), boundary, t, Some(solve));
                    self.push(&format!("merge[{i}]"), boundary, m, Some(it));
                    let mcmc = self.push(&format!("mcmc[{i}]"), m, t, Some(it));
                    let mut from = m;
                    for &(j, at) in &sweeps {
                        self.push(&format!("sweep[{i},{j}]"), from, at, Some(mcmc));
                        from = at;
                    }
                    boundary = t;
                }
                _ => {}
            }
        }
        self.events = events;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans whose name starts with `prefix`.
    pub fn total_seconds(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::seconds)
            .sum()
    }

    /// Durations (seconds) of the spans whose name starts with `prefix`.
    pub fn durations(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::seconds)
            .collect()
    }
}

/// Writes spans as JSON lines (`name, start_ns, end_ns, parent, rep`).
pub fn write_jsonl(path: &Path, spans: &[Span], rep: usize) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, rep
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps `a` by 10
            span("a.1", 15, 25, Some(1)),
        ];
        let own = self_times(&spans);
        // root: 100 − |[10,60]| = 50; a: 30 − 10 = 20; leaves keep all.
        assert_eq!(own, vec![50, 20, 30, 10]);
    }

    #[test]
    fn self_time_clips_children_that_overhang() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    #[test]
    fn solver_events_become_nested_spans() {
        let mut t = Tracer::new(Instant::now());
        let marks = [
            (100, SolverMark::Started),
            (200, SolverMark::Merged(0)),
            (250, SolverMark::Sweep(0, 0)),
            (300, SolverMark::Sweep(0, 1)),
            (310, SolverMark::Iteration(0)),
            (400, SolverMark::Merged(1)),
            (450, SolverMark::Sweep(1, 0)),
            (460, SolverMark::Iteration(1)),
            (470, SolverMark::Finished),
        ];
        t.events.extend(marks);
        let root = t.push("rep", 0, 500, None);
        t.close_solve(Some(root));
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "rep",
                "solve",
                "iteration[0]",
                "merge[0]",
                "mcmc[0]",
                "sweep[0,0]",
                "sweep[0,1]",
                "iteration[1]",
                "merge[1]",
                "mcmc[1]",
                "sweep[1,0]"
            ]
        );
        let by = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!((by("solve").start_ns, by("solve").end_ns), (100, 470));
        assert_eq!((by("merge[1]").start_ns, by("merge[1]").end_ns), (310, 400));
        assert_eq!(by("sweep[0,1]").parent, Some(4));
        // iteration ⊃ merge + mcmc exactly; mcmc[0] keeps the 10 ns after
        // its last sweep as self time.
        let own = self_times(t.spans());
        assert_eq!(own[2], 0);
        assert_eq!(own[4], 10);
        assert!((t.total_seconds("merge[") - 190e-9).abs() < 1e-15);
    }
}
