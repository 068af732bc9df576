//! In-memory spans around the calls into each crate, written out when the
//! benchmark ends.
//!
//! The libraries are not instrumented: every span is opened and closed in
//! the benchmark's own code, around a public function of the layer it is
//! named after (`cypher.parse`, `opt.optimize_any`, `storage.log_delta`,
//! ...). Spans nest by call order, spans of one op share its `op_id`, and a
//! span's self time is its duration minus its direct children's. Counts
//! taken at the same boundaries (`dlir.rules`, `storage.fsyncs`, ...) are
//! kept beside the spans so ratios are measured where the work happens.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// The op this span belongs to (0 = set-up and probes).
    pub op_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(usize);

/// Collects spans and counts for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    /// Ops begun so far, and how many of them get their counts kept.
    ops_begun: u64,
    counted_ops: u64,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are relative to this moment.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            ops_begun: 0,
            counted_ops: u64::MAX,
            counts: BTreeMap::new(),
        }
    }

    /// Spans opened from now on belong to op `op_id` (0 = set-up and
    /// probes, which are not ops).
    pub fn set_op(&mut self, op_id: u64) {
        self.ops_begun += u64::from(op_id != 0 && op_id != self.op_id);
        self.op_id = op_id;
    }

    /// Keep the counts of the first `n` ops only (and of set-up and probes):
    /// counts over a fixed stretch of the seeded stream repeat exactly,
    /// counts over however many ops a time box held do not.
    pub fn count_ops(&mut self, n: u64) {
        self.counted_ops = n;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op_id: self.op_id, parent, start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close a span (which must be the innermost open one) and return its
    /// duration in milliseconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close in the order they nest");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e6
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Run `f` inside a span; also return the span's duration (ms).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Record one observation of a count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.op_id == 0 || self.ops_begun <= self.counted_ops {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Median duration (ms) of the spans called `name`; 0 if there are none.
    pub fn p50_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Median of the observations of count `name`; 0 if there are none.
    pub fn count_p50(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| median(v))
    }

    /// Write one JSON object per span: `{name, op_id, id, parent, start_ns,
    /// end_ns, self_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op_id\":{},\"id\":{id},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns, own[id]
            )?;
        }
        out.flush()
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Time `f` — inside a span called `name` when there is a tracer, with a
/// bare clock when there is none — and return its duration (ms).
pub fn timed<T>(t: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match t {
        Some(t) => t.timed(name, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, ms_since(start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: op(0..100) > compile(10..70) >
    /// {parse(10..30), lower(30..60)}, run(70..95).
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let mut push = |name, parent, start_ns, end_ns| {
            t.spans.push(Span { name, op_id: 1, parent, start_ns, end_ns });
        };
        push("op", None, 0, 100);
        push("compile", Some(0), 10, 70);
        push("parse", Some(1), 10, 30);
        push("lower", Some(1), 30, 60);
        push("run", Some(0), 70, 95);
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixture();
        // op: 100 - (60 + 25); compile: 60 - (20 + 30); leaves keep all.
        assert_eq!(t.self_times_ns(), vec![15, 10, 20, 30, 25]);
        // Self times partition the root's duration.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn enter_exit_nest_and_carry_the_op_id() {
        let mut t = Tracer::new();
        t.set_op(7);
        let outer = t.enter("outer");
        let got = t.time("inner", || 42);
        assert_eq!(got, 42);
        t.exit(outer);
        t.set_op(8);
        t.time("next", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op_id), ("outer", None, 7));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op_id), ("inner", Some(0), 7));
        assert_eq!((spans[2].name, spans[2].parent, spans[2].op_id), ("next", None, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn medians_by_name_and_counts() {
        let mut t = fixture();
        assert_eq!(t.p50_ms("parse"), 20.0 / 1e6);
        assert_eq!(t.p50_ms("absent"), 0.0);
        for v in [3.0, 1.0, 2.0] {
            t.count("rules", v);
        }
        assert_eq!(t.count_p50("rules"), 2.0);
        assert_eq!(t.count_p50("absent"), 0.0);
    }

    #[test]
    fn counts_stop_after_the_counted_ops_but_not_for_probes() {
        let mut t = Tracer::new();
        t.count_ops(2);
        for op in 1..=5 {
            t.set_op(op);
            t.count("per_op", op as f64);
        }
        t.set_op(0);
        t.count("probe", 9.0);
        assert_eq!(t.counts["per_op"], vec![1.0, 2.0]);
        assert_eq!(t.counts["probe"], vec![9.0]);
    }
}
