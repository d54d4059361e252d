//! The traced run's instruments: spans the benchmark records around its
//! own calls into each layer, and a pet-obs sink for the counters and
//! spans the program already emits.

use pet_obs::{Event, Sink, Summary};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Request (or trial) the span belongs to.
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

impl SpanRec {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has been opened but not yet closed.
#[must_use]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    req: u64,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Collects spans in memory, from any thread, until the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn open(&self, name: &'static str, parent: Option<&Open>, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            name,
            req,
            start: self.now(),
        }
    }

    pub fn close(&self, open: Open) -> SpanRec {
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            start: open.start,
            end: self.now(),
        };
        self.spans.lock().expect("span store poisoned").push(rec);
        rec
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::nanos)
        .collect()
}

/// Sum of the durations of every span named `name`.
pub fn total(spans: &[SpanRec], name: &str) -> u64 {
    durations(spans, name).iter().sum()
}

/// A span's duration minus the part of it its children cover. Children may
/// overlap one another (trials on parallel threads) and may reach outside
/// the parent; each covered instant counts once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Self time of every span named `name`, summed.
pub fn total_self_time(spans: &[SpanRec], name: &str) -> u64 {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            self_time(
                (s.start, s.end),
                children.get(&s.id).map_or(&[], Vec::as_slice),
            )
        })
        .sum()
}

/// The pet-obs names aggregated without a lock: the per-round ones fire
/// millions of times in a sweep, and a contended lock there would inflate
/// the very layer times being measured.
const FAST: [&str; 14] = [
    "core.round",
    "core.rounds",
    "core.round.slots",
    "core.round.command_bits",
    "core.round.slots.idle",
    "core.round.slots.singleton",
    "core.round.slots.collision",
    "core.session.kernel",
    "hash.bulk_hash",
    "hash.radix_sort",
    "cache.codes.hit",
    "cache.codes.miss",
    "cache.keys.hit",
    "runner.trial",
];

/// In-memory pet-obs sink: counter totals, span counts and span nanos.
pub struct ObsSink {
    /// Per [`FAST`] name: events (counters: summed deltas) and span nanos.
    fast: [(AtomicU64, AtomicU64); FAST.len()],
    rest: Mutex<Summary>,
}

impl ObsSink {
    pub fn new() -> Self {
        Self {
            fast: std::array::from_fn(|_| (AtomicU64::new(0), AtomicU64::new(0))),
            rest: Mutex::new(Summary::default()),
        }
    }

    /// Counter total, or span count, for `name`.
    pub fn count(&self, name: &str) -> u64 {
        match FAST.iter().position(|&n| n == name) {
            Some(i) => self.fast[i].0.load(Ordering::Relaxed),
            None => {
                let rest = self.rest.lock().expect("sink poisoned");
                rest.span_stats(name)
                    .map_or_else(|| rest.counter(name), |s| s.count)
            }
        }
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn span_nanos(&self, name: &str) -> u64 {
        match FAST.iter().position(|&n| n == name) {
            Some(i) => self.fast[i].1.load(Ordering::Relaxed),
            None => self
                .rest
                .lock()
                .expect("sink poisoned")
                .span_stats(name)
                .map_or(0, |s| s.total_nanos),
        }
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        for (count, nanos) in &self.fast {
            count.store(0, Ordering::Relaxed);
            nanos.store(0, Ordering::Relaxed);
        }
        *self.rest.lock().expect("sink poisoned") = Summary::default();
    }
}

impl Sink for ObsSink {
    fn record(&self, event: &Event) {
        let name = event.name();
        let Some(i) = FAST.iter().position(|&n| n == name) else {
            self.rest.lock().expect("sink poisoned").accumulate(event);
            return;
        };
        match event {
            Event::Counter { delta, .. } => {
                self.fast[i].0.fetch_add(*delta, Ordering::Relaxed);
            }
            Event::Span { nanos, .. } => {
                self.fast[i].0.fetch_add(1, Ordering::Relaxed);
                self.fast[i].1.fetch_add(*nanos, Ordering::Relaxed);
            }
            Event::Gauge { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children (parallel trials) count each instant once.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 70)]), 40);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        // Fully covered.
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn tracer_links_parents_and_sums_self_time() {
        let tracer = Tracer::new();
        let root = tracer.open("request", None, 7);
        tracer.time("parse", Some(&root), 7, || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let parse = spans.iter().find(|s| s.name == "parse").unwrap();
        let request = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(parse.parent, Some(request.id));
        assert_eq!(parse.req, 7);
        assert_eq!(
            total_self_time(&spans, "request"),
            request.nanos() - parse.nanos()
        );
    }

    #[test]
    fn obs_sink_aggregates_fast_and_other_names() {
        let sink = ObsSink::new();
        let counter = |name: &'static str, delta| Event::Counter {
            name: name.into(),
            delta,
        };
        sink.record(&counter("core.rounds", 3));
        sink.record(&counter("core.rounds", 4));
        sink.record(&counter("elsewhere", 2));
        sink.record(&Event::Span {
            name: "hash.bulk_hash".into(),
            nanos: 50,
        });
        assert_eq!(sink.count("core.rounds"), 7);
        assert_eq!(sink.count("elsewhere"), 2);
        assert_eq!(sink.count("hash.bulk_hash"), 1);
        assert_eq!(sink.span_nanos("hash.bulk_hash"), 50);
        sink.reset();
        assert_eq!(sink.count("core.rounds"), 0);
        assert_eq!(sink.count("elsewhere"), 0);
    }
}
