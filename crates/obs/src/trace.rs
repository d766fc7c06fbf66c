//! Trace data model and JSONL serialization.
//!
//! The wire format is one JSON object per line:
//!
//! ```text
//! {"type":"meta","version":1}
//! {"type":"span","id":0,"name":"optimize_depth","start_us":12,"dur_us":90314,"fields":{...}}
//! {"type":"span","id":1,"parent":0,"name":"iteration","start_us":40,"dur_us":1202,"fields":{"t_bound":4,...}}
//! {"type":"event","span":1,"at_us":310,"name":"restart","fields":{"conflicts":512}}
//! {"type":"counter","name":"sat.conflicts","value":9123}
//! {"type":"hist","name":"solve_us","count":9,"sum":41231,"min":80,"max":20110,"p50":512,"p95":16384,"p99":32768}
//! ```
//!
//! Serialization lives here so traces written by [`crate::Recorder`] and
//! reports rendered offline (`olsq2 trace-report`) agree on one schema.

use crate::json::write_string;
use crate::recorder::FieldValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Trace-unique id (dense, in open order).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name (a phase: `optimize_depth`, `iteration`, `encode`, …).
    pub name: String,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Wall-clock duration; `None` while the span is still open.
    pub dur_us: Option<u64>,
    /// Attached key/value fields, in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

/// One recorded point-in-time event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventData {
    /// The span open on the recording thread, if any.
    pub span: Option<u64>,
    /// Microseconds since the recorder's epoch.
    pub at_us: u64,
    /// Event name (`restart`, `reduce`, …).
    pub name: String,
    /// Attached key/value fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// A log₂-bucketed histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones).
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).saturating_sub(1)
    }

    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Nearest-rank quantile over bucket lower bounds, accurate to one
    /// power of two and clamped into `[min, max]`.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    pub(crate) fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    // Bucket i holds values in [2^i, 2^(i+1)) (plus zeros
                    // in bucket 0): the inclusive upper bound is 2^(i+1)-1.
                    let le = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                    (le, c)
                })
                .collect(),
        }
    }
}

/// Summary statistics of a histogram. Quantiles are estimates accurate to
/// one power of two (log₂ bucketing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Occupied log₂ buckets as `(inclusive upper bound, count)`, in
    /// ascending bound order — the raw data behind Prometheus
    /// `_bucket{le=...}` series ([`crate::PromText::histogram`]).
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of everything a [`crate::Recorder`] holds.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All spans, ordered by id (open order).
    pub spans: Vec<SpanData>,
    /// All events, in recording order.
    pub events: Vec<EventData>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Current JSONL trace format version (the `meta` line).
pub(crate) const TRACE_VERSION: u64 = 1;

impl TraceSnapshot {
    /// Serializes the snapshot as JSONL (see the module docs for the line
    /// schema). The output always starts with a `meta` line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"type\":\"meta\",\"version\":{TRACE_VERSION}}}");
        for span in &self.spans {
            out.push_str("{\"type\":\"span\",\"id\":");
            let _ = write!(out, "{}", span.id);
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str(",\"name\":");
            write_string(&span.name, &mut out);
            let _ = write!(out, ",\"start_us\":{}", span.start_us);
            if let Some(dur) = span.dur_us {
                let _ = write!(out, ",\"dur_us\":{dur}");
            }
            write_fields(&span.fields, &mut out);
            out.push_str("}\n");
        }
        for event in &self.events {
            out.push_str("{\"type\":\"event\"");
            if let Some(span) = event.span {
                let _ = write!(out, ",\"span\":{span}");
            }
            let _ = write!(out, ",\"at_us\":{}", event.at_us);
            out.push_str(",\"name\":");
            write_string(&event.name, &mut out);
            write_fields(&event.fields, &mut out);
            out.push_str("}\n");
        }
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_string(name, &mut out);
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"hist\",\"name\":");
            write_string(name, &mut out);
            let _ = writeln!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            );
        }
        out
    }

    /// Writes [`TraceSnapshot::to_jsonl`] to an `io::Write`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        out.write_all(self.to_jsonl().as_bytes())
    }
}

fn write_fields(fields: &[(String, FieldValue)], out: &mut String) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(k, out);
        out.push(':');
        write_field_value(v, out);
    }
    out.push('}');
}

fn write_field_value(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => write_string(s, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // p50 lands in the [2,4) bucket → lower bound 2.
        assert_eq!(s.p50, 2);
        // p99 is in the last occupied bucket [512,1024) → lower bound 512.
        assert_eq!(s.p99, 512);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::new().summarize();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn jsonl_contains_every_record_kind() {
        let rec = Recorder::new();
        {
            let span = rec.span("phase");
            span.set("k", "v\"with quotes\"");
            rec.event("tick", &[("n", 1u64.into())]);
        }
        rec.add("total", 5);
        rec.observe("lat_us", 123);
        let text = rec.snapshot().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"meta\""));
        assert!(lines.iter().any(|l| l.contains("\"span\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\"")));
        assert!(lines.iter().any(|l| l.contains("\"counter\"")));
        assert!(lines.iter().any(|l| l.contains("\"hist\"")));
        // Escaping survived.
        assert!(text.contains("v\\\"with quotes\\\""));
    }
}
