//! The benchmark's own spans: name, start, end, parent, job id.
//!
//! Spans are recorded from the benchmark's files, around its calls into each
//! layer's public functions, kept in memory and written out when the run ends
//! (spans inside the program are a later issue). A disabled tracer costs one
//! branch per call, which is how the gated metrics are taken: tracing off.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its tracer; [`Tracer::enter`] on a disabled tracer returns
/// [`NO_SPAN`].
pub type SpanId = usize;

/// The id a disabled tracer hands out.
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded interval. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<SpanId>,
    /// Spans of one job share its id; 0 for spans that belong to no job.
    pub job: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder for one thread of control.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Switch recording on or off between rounds (the traced run alternates, so
    /// both halves of the overhead comparison see the same machine state).
    pub fn set_on(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "cannot toggle tracing inside an open span"
        );
        self.on = on;
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Record a span the callee timed itself (a hook's checksum seconds, a service
    /// job's queue wait): `duration_s` long, starting `offset_s` into `parent`.
    pub fn record_child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        job: u64,
        offset_s: f64,
        duration_s: f64,
    ) -> SpanId {
        if parent == NO_SPAN {
            return NO_SPAN;
        }
        let start_s = self.spans[parent].start_s + offset_s;
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s + duration_s,
            parent: Some(parent),
            job,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, summed per name over the spans of `job`
    /// (all jobs when `None`), sorted by name.
    pub fn self_time_by_name(&self, job: Option<u64>) -> Vec<(&'static str, f64)> {
        let selfs = self_times(&self.spans);
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for (span, self_s) in self.spans.iter().zip(selfs) {
            if job.is_none_or(|j| span.job == j) {
                *by_name.entry(span.name).or_default() += self_s;
            }
        }
        by_name.into_iter().collect()
    }

    /// Write one JSON object per span. Names are code-controlled identifiers, so
    /// no string escaping is needed.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"job\":{}}}",
                s.name,
                s.start_s * 1e6,
                s.end_s * 1e6,
                s.job
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once, and a child
/// reaching outside its parent only counts for the part inside).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_s.max(spans[p].start_s), s.end_s.min(spans[p].end_s));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.duration_s() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("factor", 1.0, 6.0, Some(0)),
            span("checksum", 2.0, 4.0, Some(1)),
            span("verify", 6.0, 9.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![2.0, 3.0, 2.0, 3.0]);
        // Self times of a tree add up to the root's duration.
        assert!((st.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // a ∪ b covers [1,7] = 6, c counts for [9,10] = 1.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::on();
        let job = tr.enter("job", 7);
        let run = tr.enter("run", 7);
        let cs = tr.record_child(run, "checksum", 7, 0.0, 0.0);
        tr.exit(run);
        tr.exit(job);
        assert_eq!(tr.spans()[run].parent, Some(job));
        assert_eq!(tr.spans()[cs].parent, Some(run));
        assert!(tr.spans()[job].end_s >= tr.spans()[run].end_s);
        let names: Vec<_> = tr
            .self_time_by_name(Some(7))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["checksum", "job", "run"]);
        assert!(tr.self_time_by_name(Some(8)).is_empty());

        let mut off = Tracer::off();
        let id = off.enter("job", 7);
        assert_eq!(id, NO_SPAN);
        assert_eq!(off.record_child(id, "x", 7, 0.0, 1.0), NO_SPAN);
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
