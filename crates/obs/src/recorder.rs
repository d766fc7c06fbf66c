//! The [`Recorder`] handle and its in-memory backing store.

use crate::trace::{EventData, Histogram, SpanData, TraceSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A typed field value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

struct State {
    spans: Vec<SpanData>,
    events: Vec<EventData>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Per-thread stack of open span ids — the implicit parent chain.
    stacks: HashMap<ThreadId, Vec<u64>>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A handle for recording spans, events, counters, and histograms.
///
/// Cloning is cheap (an `Option<Arc>`); all clones share one store. The
/// [`Recorder::disabled`] handle (also the `Default`) drops everything at
/// the cost of a single branch per call, so instrumentation can stay in
/// release hot paths unconditionally.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Recorder {
    /// Creates an enabled recorder with an empty store.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    events: Vec::new(),
                    counters: BTreeMap::new(),
                    histograms: BTreeMap::new(),
                    stacks: HashMap::new(),
                }),
            })),
        }
    }

    /// The no-op recorder: records nothing, costs one branch per call.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. Its parent is the innermost span still open *on this
    /// thread*; it closes (recording its duration) when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { slot: None };
        };
        let start_us = inner.now_us();
        let mut state = inner.state.lock().expect("obs state lock");
        let id = state.spans.len() as u64;
        let tid = std::thread::current().id();
        let stack = state.stacks.entry(tid).or_default();
        let parent = stack.last().copied();
        stack.push(id);
        state.spans.push(SpanData {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us: None,
            fields: Vec::new(),
        });
        drop(state);
        SpanGuard {
            slot: Some((inner.clone(), id)),
        }
    }

    /// Records a point-in-time event, attached to the innermost open span
    /// on this thread (if any).
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let at_us = inner.now_us();
        let mut state = inner.state.lock().expect("obs state lock");
        let tid = std::thread::current().id();
        let span = state.stacks.get(&tid).and_then(|s| s.last().copied());
        state.events.push(EventData {
            span,
            at_us,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Adds `delta` to a monotonic counter (created at zero on first use).
    pub fn add(&self, counter: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state lock");
        match state.counters.get_mut(counter) {
            Some(v) => *v += delta,
            None => {
                state.counters.insert(counter.to_string(), delta);
            }
        }
    }

    /// Records one sample into a log₂-bucketed histogram.
    pub fn observe(&self, histogram: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("obs state lock");
        match state.histograms.get_mut(histogram) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                state.histograms.insert(histogram.to_string(), h);
            }
        }
    }

    /// A point-in-time copy of everything recorded so far. Spans still
    /// open appear with `dur_us: None`.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let state = inner.state.lock().expect("obs state lock");
        TraceSnapshot {
            spans: state.spans.clone(),
            events: state.events.clone(),
            counters: state.counters.clone(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summarize()))
                .collect(),
        }
    }
}

/// RAII guard for an open span; records the duration on drop.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard {
    slot: Option<(Arc<Inner>, u64)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("id", &self.slot.as_ref().map(|(_, id)| *id))
            .finish()
    }
}

impl SpanGuard {
    /// Attaches (or overwrites) a key/value field on the span.
    pub fn set(&self, key: &str, value: impl Into<FieldValue>) {
        let Some((inner, id)) = &self.slot else {
            return;
        };
        let value = value.into();
        let mut state = inner.state.lock().expect("obs state lock");
        let span = &mut state.spans[*id as usize];
        match span.fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => span.fields.push((key.to_string(), value)),
        }
    }

    /// The span's id in the trace, if recording is enabled.
    pub fn id(&self) -> Option<u64> {
        self.slot.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, id)) = self.slot.take() else {
            return;
        };
        let end_us = inner.now_us();
        let mut state = inner.state.lock().expect("obs state lock");
        let start = state.spans[id as usize].start_us;
        state.spans[id as usize].dur_us = Some(end_us.saturating_sub(start));
        let tid = std::thread::current().id();
        if let Some(stack) = state.stacks.get_mut(&tid) {
            // Guards normally drop in LIFO order; tolerate stragglers.
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                state.stacks.remove(&tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_thread() {
        let rec = Recorder::new();
        {
            let outer = rec.span("outer");
            outer.set("k", 1u64);
            {
                let inner = rec.span("inner");
                inner.set("k", 2u64);
            }
            rec.event("tick", &[("n", 7u64.into())]);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.dur_us.is_some() && inner.dur_us.is_some());
        // The event fired after `inner` closed, inside `outer`.
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].span, Some(outer.id));
    }

    #[test]
    fn sibling_threads_get_separate_roots() {
        let rec = Recorder::new();
        let _root = rec.span("main-root");
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let s = rec2.span("worker-root");
            s.set("worker", true);
        })
        .join()
        .unwrap();
        let snap = rec.snapshot();
        let worker = snap.spans.iter().find(|s| s.name == "worker-root").unwrap();
        // Not parented under the other thread's open span.
        assert_eq!(worker.parent, None);
    }

    #[test]
    fn counters_accumulate_and_fields_overwrite() {
        let rec = Recorder::new();
        rec.add("c", 1);
        rec.add("c", 2);
        let span = rec.span("s");
        span.set("x", 1u64);
        span.set("x", 2u64);
        drop(span);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.spans[0].fields, vec![("x".into(), FieldValue::U64(2))]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let span = rec.span("x");
        span.set("y", 1u64);
        assert_eq!(span.id(), None);
        rec.add("c", 5);
        rec.observe("h", 10);
        rec.event("e", &[]);
        drop(span);
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn open_spans_appear_in_snapshot() {
        let rec = Recorder::new();
        let _open = rec.span("still-running");
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].dur_us, None);
    }
}
