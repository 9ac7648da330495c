//! Span tracing from the benchmark's own side of each layer boundary.
//!
//! A span has a name, a start, an end, its parent (the span open around
//! it) and the id of the beat or app-quantum it serves. Spans are kept in
//! memory (up to [`STORED_SPANS`]; every span is aggregated regardless)
//! and written out when the run ends. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;

use crate::common::{now_ns, quantile};

/// Spans kept verbatim for the span file; later spans are aggregated only.
const STORED_SPANS: usize = 1 << 18;

/// Per-name durations kept for quantiles.
const STORED_DURATIONS: usize = 1 << 18;

#[derive(Debug, Default, Clone)]
pub struct Aggregate {
    /// Spans closed under this name.
    pub spans: u64,
    /// Units of work (beats, apps, calls) the spans covered.
    pub units: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Aggregate {
    /// Self time per unit of work, net of the tracer's own cost per span.
    pub fn self_ns_per_unit(&self, span_overhead_ns: f64) -> f64 {
        let net = self.self_ns as f64 - span_overhead_ns * self.spans as f64;
        net.max(0.0) / self.units.max(1) as f64
    }

    pub fn total_ns_per_unit(&self) -> f64 {
        self.total_ns as f64 / self.units.max(1) as f64
    }

    /// Quantile `q` of the recorded span durations, nanoseconds.
    pub fn duration_ns(&self, q: f64) -> f64 {
        quantile(&self.durations_ns, q).unwrap_or(0) as f64
    }
}

struct Open {
    name: &'static str,
    start: u64,
    child_ns: u64,
    record: Option<usize>,
}

struct Record {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
    self_ns: u64,
}

/// Open-span handle returned by [`Tracer::begin`].
#[must_use]
pub struct SpanGuard(bool);

pub struct Tracer {
    enabled: bool,
    stack: Vec<Open>,
    records: Vec<Record>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            stack: Vec::with_capacity(16),
            records: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanGuard {
        if !self.enabled {
            return SpanGuard(false);
        }
        let parent = self.stack.last().and_then(|open| open.record);
        let record = (self.records.len() < STORED_SPANS).then(|| {
            self.records.push(Record {
                name,
                id,
                parent,
                start: 0,
                end: 0,
                self_ns: 0,
            });
            self.records.len() - 1
        });
        let start = now_ns();
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            record,
        });
        SpanGuard(true)
    }

    /// Closes the innermost open span; `units` is the work it covered.
    pub fn end(&mut self, guard: SpanGuard, units: u64) {
        if !guard.0 {
            return;
        }
        let end = now_ns();
        let open = self.stack.pop().expect("span closed twice");
        let duration = end.saturating_sub(open.start);
        let self_ns = duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(index) = open.record {
            let record = &mut self.records[index];
            record.start = open.start;
            record.end = end;
            record.self_ns = self_ns;
        }
        let aggregate = self.aggregates.entry(open.name).or_default();
        aggregate.spans += 1;
        aggregate.units += units;
        aggregate.total_ns += duration;
        aggregate.self_ns += self_ns;
        if aggregate.durations_ns.len() < STORED_DURATIONS {
            aggregate.durations_ns.push(duration);
        }
    }

    pub fn aggregate(&self, name: &str) -> Option<&Aggregate> {
        self.aggregates.get(name)
    }

    /// Mean cost of one empty span on this tracer. Call before recording
    /// anything: the probe spans are discarded with everything else.
    pub fn calibrate_overhead_ns(&mut self) -> f64 {
        const PROBES: u64 = 20_000;
        let was = self.enabled;
        self.enabled = true;
        let outer = self.begin("trace.calibration", 0);
        for _ in 0..PROBES {
            let span = self.begin("trace.empty", 0);
            self.end(span, 1);
        }
        self.end(outer, PROBES);
        self.enabled = was;
        let per_span = self.aggregates["trace.calibration"].total_ns as f64 / PROBES as f64;
        self.aggregates.clear();
        // Release the probe spans' memory too: a daemon forked later
        // inherits this process's resident pages.
        self.records = Vec::new();
        per_span
    }

    /// Writes every stored span as CSV: index, name, id, parent, start,
    /// end and self time in nanoseconds.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,name,id,parent,start_ns,end_ns,self_ns")?;
        for (index, record) in self.records.iter().enumerate() {
            let parent = record.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{index},{},{},{parent},{},{},{}",
                record.name, record.id, record.start, record.end, record.self_ns
            )?;
        }
        out.flush()
    }
}
