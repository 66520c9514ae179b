//! The benchmark's own spans: recorded in memory around calls into the
//! program, reduced to per-layer self time, and written out in Chrome
//! trace format when the run ends. Nothing here touches the program's
//! own tracer.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` indexes the recorder's span list; spans
/// of one job share `job`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u32,
}

/// An in-memory span list with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`; recorders that
    /// will be merged share one origin.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a closed span timed by the caller's own clock readings
    /// (against the same origin), under the innermost open span.
    pub fn interval(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        id
    }

    /// Records an interval reported by the program (a phase of a
    /// returned report, a server-side time) as a closed child of `parent`.
    pub fn child(&mut self, parent: u32, name: &'static str, start_ns: u64, dur_ns: u64) {
        let job = self.spans[parent as usize].job;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            job,
        });
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's closed spans (same origin).
    pub fn merge(&mut self, other: Recorder) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-job totals of one span name: `(self time in ms, span count)` for
/// each job that has at least one span of any name, in job order.
pub fn per_job(spans: &[Span], name: &str) -> Vec<(f64, usize)> {
    let selfs = self_times_ns(spans);
    let mut jobs: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let slot = jobs.entry(s.job).or_default();
        if s.name == name {
            slot.0 += self_ns as f64 / 1e6;
            slot.1 += 1;
        }
    }
    jobs.into_values().collect()
}

/// Chrome trace format (`chrome://tracing`, Perfetto): one complete
/// event per span, one row (`tid`) per job; `metadata` is an
/// already-encoded JSON object.
pub fn chrome_json(spans: &[Span], metadata: &str) -> String {
    let mut out = format!("{{\"displayTimeUnit\":\"ms\",\"metadata\":{metadata}");
    out += ",\"traceEvents\":[\n";
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out += &format!(
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            if i > 0 { ",\n" } else { "" },
            s.name,
            s.job,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
    }
    out += "\n]}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, job: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("job", 0, 100, None, 0),
            span("build", 10, 30, Some(0), 0),
            span("search", 30, 70, Some(0), 0),
            span("inner", 40, 50, Some(2), 0),
            // Overlapping children count once; a child poking out of its
            // parent is clipped.
            span("apply", 60, 90, Some(0), 0),
            span("late", 95, 120, Some(0), 0),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(
            selfs[0],
            100 - (20 + 40 + 20 + 5),
            "job: gaps 0-10 and 90-95"
        );
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30, "search minus inner");
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 30);
    }

    #[test]
    fn per_job_sums_by_name_and_keeps_empty_jobs() {
        let spans = vec![
            span("job", 0, 10_000_000, None, 0),
            span("search", 0, 2_000_000, Some(0), 0),
            span("search", 3_000_000, 4_000_000, Some(0), 0),
            span("job", 20_000_000, 30_000_000, None, 1),
        ];
        assert_eq!(per_job(&spans, "search"), vec![(3.0, 2), (0.0, 0)]);
        assert_eq!(per_job(&spans, "job"), vec![(7.0, 1), (10.0, 1)]);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.set_job(3);
        let job = a.begin("job");
        let inner = a.begin("search");
        a.end(inner);
        a.end(job);
        let at = a.span(job).start_ns;
        a.child(job, "phase", at, 5);
        assert_eq!(a.span(inner).parent, Some(job));
        assert_eq!(a.spans()[2], span("phase", at, at + 5, Some(job), 3));

        let mut b = Recorder::new(origin);
        let other = b.begin("job");
        b.end(other);
        b.merge(a);
        assert_eq!(b.spans().len(), 4);
        assert_eq!(b.spans()[2].parent, Some(1), "parents shift with the merge");

        let json = chrome_json(b.spans(), "{\"seed\":1}");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
