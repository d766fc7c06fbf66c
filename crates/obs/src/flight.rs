//! The search flight recorder: a fixed-capacity, lock-free ring of
//! [`SearchSample`] records emitted from the hot search loops.
//!
//! The CDCL solver emits one sample every K conflicts through a
//! [`Probe`] handle; the cube scheduler emits samples tagged with its own
//! [`SampleSource`]. The ring keeps
//! the newest `capacity` samples, so when a run dies — deadline expiry,
//! cancellation, refusal to extend a window, or a panic — the last
//! moments of the search are still there to dump as a post-mortem
//! ([`Probe::to_jsonl`]).
//!
//! # Overhead invariant
//!
//! A disabled probe is a `None` behind the handle: every instrumented
//! call sites costs exactly one branch. An enabled probe writes one
//! slot of relaxed atomics per sample — no locks, no allocation, and
//! the total memory is bounded by the ring capacity chosen up front.
//!
//! # Lock-freedom and torn samples
//!
//! Writers claim a ticket with one `fetch_add` and then store the
//! sample's words into the slot as relaxed `AtomicU64`s, publishing the
//! ticket into the slot's sequence word with `Release` ordering last.
//! Readers ([`Probe::snapshot`]) validate the sequence word before and
//! after copying a slot and discard slots that were concurrently
//! overwritten. If the ring wraps *while* a slot is being written the
//! reader sees a sequence mismatch and skips it — a lost telemetry
//! sample, never undefined behavior and never a blocked solver.
//!
//! # Dump format
//!
//! [`Probe::to_jsonl`] writes one JSON object per line, versioned by a
//! leading `flight_meta` line:
//!
//! ```text
//! {"type":"flight_meta","version":3,"capacity":4096,"every":128,"emitted":9613}
//! {"type":"flight","seq":5517,"source":"search","at_us":81213,"conflicts":707328,...}
//! ```
//!
//! [`FlightDump::parse_jsonl`] reads the same format back (standalone or
//! embedded in a trace file), which is what `olsq2 trace-diff` ingests.

use crate::json::{self, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Current flight-dump format version (the `flight_meta` line).
/// Version 2 added the `chrono_backtracks` and `blocked_restarts`
/// search-policy counters. Version 3 added a `bound` sample source,
/// since retired with the bound-race scheduler that wrote it.
pub const FLIGHT_VERSION: u64 = 3;

/// Which subsystem emitted a sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SampleSource {
    /// The CDCL search loop (every K conflicts).
    #[default]
    Search,
    /// A clause-sharing endpoint (import/export flow). Nothing writes
    /// this source any more; it stays so older dumps remain readable.
    Sharing,
    /// The cube scheduler (pool occupancy).
    Cube,
}

impl SampleSource {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SampleSource::Search => "search",
            SampleSource::Sharing => "sharing",
            SampleSource::Cube => "cube",
        }
    }

    /// Inverse of [`SampleSource::name`].
    pub fn parse(s: &str) -> Option<SampleSource> {
        match s {
            "search" => Some(SampleSource::Search),
            "sharing" => Some(SampleSource::Sharing),
            "cube" => Some(SampleSource::Cube),
            _ => None,
        }
    }

    fn to_word(self) -> u64 {
        match self {
            SampleSource::Search => 0,
            SampleSource::Sharing => 1,
            SampleSource::Cube => 2,
        }
    }

    fn from_word(w: u64) -> SampleSource {
        match w {
            1 => SampleSource::Sharing,
            2 => SampleSource::Cube,
            _ => SampleSource::Search,
        }
    }
}

/// One flight-recorder record: a point-in-time snapshot of search
/// dynamics. Fields not meaningful for a given [`SampleSource`] are
/// zero (e.g. `pool_depth` outside the cube scheduler).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchSample {
    /// Emitting subsystem.
    pub source: SampleSource,
    /// Microseconds since the probe was created (filled by
    /// [`Probe::record`]).
    pub at_us: u64,
    /// Cumulative conflicts at sample time.
    pub conflicts: u64,
    /// Cumulative decisions.
    pub decisions: u64,
    /// Cumulative propagations.
    pub propagations: u64,
    /// Cumulative restarts.
    pub restarts: u64,
    /// Cumulative clause-database reductions.
    pub reduces: u64,
    /// Cumulative rephases.
    pub rephases: u64,
    /// Assignment-trail length at sample time.
    pub trail_len: u64,
    /// Decision level at sample time.
    pub decision_level: u64,
    /// Fast-horizon LBD exponential moving average (α = 2⁻⁵).
    pub lbd_ema_fast: f64,
    /// Slow-horizon LBD exponential moving average (α = 2⁻¹²).
    pub lbd_ema_slow: f64,
    /// Learnt clauses in the Core tier.
    pub learnts_core: u64,
    /// Learnt clauses in the Mid tier.
    pub learnts_mid: u64,
    /// Learnt clauses in the Local tier.
    pub learnts_local: u64,
    /// Clauses exported into a sharing pool. The solver shares no
    /// clauses and writes 0; kept so older dumps remain readable.
    pub exported: u64,
    /// Clauses imported from a sharing pool (0, as `exported`).
    pub imported: u64,
    /// Open cubes in the cube pool (scheduler samples).
    pub pool_depth: u64,
    /// Queued cubes on the emitting worker's deque (scheduler samples).
    pub queue_len: u64,
    /// Cumulative chronological backtracks (search samples).
    pub chrono_backtracks: u64,
    /// Cumulative restarts postponed on an abnormally deep trail
    /// (search samples).
    pub blocked_restarts: u64,
}

/// Number of `u64` words a sample occupies in a ring slot.
const WORDS: usize = 21;

impl SearchSample {
    fn to_words(self) -> [u64; WORDS] {
        [
            self.source.to_word(),
            self.at_us,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
            self.reduces,
            self.rephases,
            self.trail_len,
            self.decision_level,
            self.lbd_ema_fast.to_bits(),
            self.lbd_ema_slow.to_bits(),
            self.learnts_core,
            self.learnts_mid,
            self.learnts_local,
            self.exported,
            self.imported,
            self.pool_depth,
            self.queue_len,
            self.chrono_backtracks,
            self.blocked_restarts,
        ]
    }

    fn from_words(w: &[u64; WORDS]) -> SearchSample {
        SearchSample {
            source: SampleSource::from_word(w[0]),
            at_us: w[1],
            conflicts: w[2],
            decisions: w[3],
            propagations: w[4],
            restarts: w[5],
            reduces: w[6],
            rephases: w[7],
            trail_len: w[8],
            decision_level: w[9],
            lbd_ema_fast: f64::from_bits(w[10]),
            lbd_ema_slow: f64::from_bits(w[11]),
            learnts_core: w[12],
            learnts_mid: w[13],
            learnts_local: w[14],
            exported: w[15],
            imported: w[16],
            pool_depth: w[17],
            queue_len: w[18],
            chrono_backtracks: w[19],
            blocked_restarts: w[20],
        }
    }
}

/// One ring slot: the publication sequence word plus the sample payload.
/// `seq == ticket + 1` means the slot holds ticket's sample; any other
/// value means empty, mid-write, or overwritten by a later lap.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct Ring {
    epoch: Instant,
    every: u64,
    capacity: u64,
    /// Next ticket to assign; tickets are global sample indices.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// A cheap-to-clone handle on a flight ring (or on nothing).
///
/// The disabled probe is the `Default`; instrumented call sites gate on
/// [`Probe::is_enabled`] / [`Probe::sample_due`], which cost one branch.
#[derive(Clone, Default)]
pub struct Probe {
    inner: Option<Arc<Ring>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Probe(disabled)"),
            Some(r) => f
                .debug_struct("Probe")
                .field("capacity", &r.capacity)
                .field("every", &r.every)
                .field("emitted", &r.head.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl Probe {
    /// A probe that records nothing and allocates nothing.
    pub fn disabled() -> Probe {
        Probe { inner: None }
    }

    /// A probe over a ring of `capacity` slots sampling every
    /// `every_conflicts` conflicts (both clamped to ≥ 1).
    pub fn new(capacity: usize, every_conflicts: u64) -> Probe {
        let capacity = capacity.max(1);
        Probe {
            inner: Some(Arc::new(Ring {
                epoch: Instant::now(),
                every: every_conflicts.max(1),
                capacity: capacity as u64,
                head: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::new()).collect(),
            })),
        }
    }

    /// Whether a ring is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The single-branch hot-path gate: true when enabled *and*
    /// `conflicts` falls on the sampling cadence.
    #[inline]
    pub fn sample_due(&self, conflicts: u64) -> bool {
        match &self.inner {
            None => false,
            Some(r) => conflicts.is_multiple_of(r.every),
        }
    }

    /// Sampling cadence in conflicts (0 when disabled).
    pub fn every(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.every)
    }

    /// Ring capacity in samples (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.capacity as usize)
    }

    /// Total samples ever recorded (may exceed capacity).
    pub fn emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.head.load(Ordering::Acquire))
    }

    /// Microseconds since the probe was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.epoch.elapsed().as_micros() as u64)
    }

    /// Records `sample` into the ring, stamping `at_us`. No-op when
    /// disabled. Lock-free: one `fetch_add` plus relaxed stores.
    pub fn record(&self, mut sample: SearchSample) {
        let Some(ring) = &self.inner else { return };
        sample.at_us = ring.epoch.elapsed().as_micros() as u64;
        let ticket = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(ticket % ring.capacity) as usize];
        // Invalidate the slot for concurrent readers, write the payload,
        // then publish the ticket.
        slot.seq.store(u64::MAX, Ordering::Relaxed);
        for (w, v) in slot.words.iter().zip(sample.to_words()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// The surviving samples, oldest first, each paired with its global
    /// sequence number. Slots mid-write or lapped during the scan are
    /// skipped.
    pub fn snapshot(&self) -> Vec<(u64, SearchSample)> {
        let Some(ring) = &self.inner else {
            return Vec::new();
        };
        let head = ring.head.load(Ordering::Acquire);
        let start = head.saturating_sub(ring.capacity);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &ring.slots[(ticket % ring.capacity) as usize];
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue; // overwritten while copying
            }
            out.push((ticket, SearchSample::from_words(&words)));
        }
        out
    }

    /// Serializes the ring as versioned JSONL (see the module docs).
    /// Empty string when disabled.
    pub fn to_jsonl(&self) -> String {
        let Some(ring) = &self.inner else {
            return String::new();
        };
        use std::fmt::Write as _;
        let samples = self.snapshot();
        let mut out = String::with_capacity(64 + samples.len() * 256);
        let _ = writeln!(
            out,
            "{{\"type\":\"flight_meta\",\"version\":{FLIGHT_VERSION},\
             \"capacity\":{},\"every\":{},\"emitted\":{}}}",
            ring.capacity,
            ring.every,
            ring.head.load(Ordering::Acquire)
        );
        for (seq, s) in samples {
            let _ = write!(
                out,
                "{{\"type\":\"flight\",\"seq\":{seq},\"source\":\"{}\",\"at_us\":{}",
                s.source.name(),
                s.at_us
            );
            let _ = write!(
                out,
                ",\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"restarts\":{}",
                s.conflicts, s.decisions, s.propagations, s.restarts
            );
            let _ = write!(
                out,
                ",\"reduces\":{},\"rephases\":{},\"trail_len\":{},\"decision_level\":{}",
                s.reduces, s.rephases, s.trail_len, s.decision_level
            );
            let _ = write!(
                out,
                ",\"lbd_ema_fast\":{:.4},\"lbd_ema_slow\":{:.4}",
                fin(s.lbd_ema_fast),
                fin(s.lbd_ema_slow)
            );
            let _ = write!(
                out,
                ",\"learnts_core\":{},\"learnts_mid\":{},\"learnts_local\":{}",
                s.learnts_core, s.learnts_mid, s.learnts_local
            );
            let _ = write!(
                out,
                ",\"exported\":{},\"imported\":{},\"pool_depth\":{},\"queue_len\":{}",
                s.exported, s.imported, s.pool_depth, s.queue_len
            );
            let _ = writeln!(
                out,
                ",\"chrono_backtracks\":{},\"blocked_restarts\":{}}}",
                s.chrono_backtracks, s.blocked_restarts
            );
        }
        out
    }

    /// Writes [`Probe::to_jsonl`] to `path`. No-op when disabled or when
    /// nothing was recorded.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.is_enabled() || self.emitted() == 0 {
            return Ok(());
        }
        std::fs::write(path, self.to_jsonl())
    }
}

/// JSON numbers must be finite; NaN/inf collapse to 0.
fn fin(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A parsed flight dump: the `flight_meta` header plus the samples, in
/// sequence order.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Format version from the `flight_meta` line.
    pub version: u64,
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Sampling cadence in conflicts.
    pub every: u64,
    /// Total samples emitted over the run (≥ `samples.len()`).
    pub emitted: u64,
    /// The surviving samples with their global sequence numbers.
    pub samples: Vec<(u64, SearchSample)>,
}

impl FlightDump {
    /// Parses flight lines out of `text`, ignoring any non-flight lines
    /// (so both standalone dumps and traces with embedded flight lines
    /// work).
    ///
    /// # Errors
    ///
    /// Malformed flight lines or an unsupported `flight_meta` version.
    pub fn parse_jsonl(text: &str) -> Result<FlightDump, String> {
        let mut dump = FlightDump::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || !line.contains("\"flight") {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            match v.get("type").and_then(Json::as_str) {
                Some("flight_meta") => {
                    dump.version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
                    if dump.version != FLIGHT_VERSION {
                        return Err(format!(
                            "unsupported flight version {} (expected {FLIGHT_VERSION})",
                            dump.version
                        ));
                    }
                    dump.capacity = v.get("capacity").and_then(Json::as_u64).unwrap_or(0);
                    dump.every = v.get("every").and_then(Json::as_u64).unwrap_or(0);
                    dump.emitted = v.get("emitted").and_then(Json::as_u64).unwrap_or(0);
                }
                Some("flight") => {
                    let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                    let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    let source = v
                        .get("source")
                        .and_then(Json::as_str)
                        .and_then(SampleSource::parse)
                        .ok_or_else(|| format!("line {}: bad flight source", i + 1))?;
                    dump.samples.push((
                        u("seq"),
                        SearchSample {
                            source,
                            at_us: u("at_us"),
                            conflicts: u("conflicts"),
                            decisions: u("decisions"),
                            propagations: u("propagations"),
                            restarts: u("restarts"),
                            reduces: u("reduces"),
                            rephases: u("rephases"),
                            trail_len: u("trail_len"),
                            decision_level: u("decision_level"),
                            lbd_ema_fast: f("lbd_ema_fast"),
                            lbd_ema_slow: f("lbd_ema_slow"),
                            learnts_core: u("learnts_core"),
                            learnts_mid: u("learnts_mid"),
                            learnts_local: u("learnts_local"),
                            exported: u("exported"),
                            imported: u("imported"),
                            pool_depth: u("pool_depth"),
                            queue_len: u("queue_len"),
                            chrono_backtracks: u("chrono_backtracks"),
                            blocked_restarts: u("blocked_restarts"),
                        },
                    ));
                }
                _ => {}
            }
        }
        Ok(dump)
    }

    /// The last search-loop sample, if any — the state of the search
    /// when the run died.
    pub fn last_search(&self) -> Option<&SearchSample> {
        self.samples
            .iter()
            .rev()
            .map(|(_, s)| s)
            .find(|s| s.source == SampleSource::Search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(conflicts: u64) -> SearchSample {
        SearchSample {
            conflicts,
            decisions: conflicts * 3,
            lbd_ema_fast: 4.25,
            lbd_ema_slow: 5.5,
            ..SearchSample::default()
        }
    }

    #[test]
    fn disabled_probe_is_inert_and_allocation_free() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        assert!(!p.sample_due(0));
        assert_eq!(p.capacity(), 0);
        p.record(sample(1));
        assert_eq!(p.emitted(), 0);
        assert!(p.snapshot().is_empty());
        assert!(p.to_jsonl().is_empty());
        // The handle itself holds no ring: cloning moves no memory.
        assert_eq!(std::mem::size_of::<Probe>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn sampling_cadence_gates_on_every() {
        let p = Probe::new(8, 100);
        assert!(p.sample_due(0));
        assert!(!p.sample_due(1));
        assert!(!p.sample_due(99));
        assert!(p.sample_due(100));
        assert!(p.sample_due(700));
    }

    #[test]
    fn wraparound_keeps_newest_capacity_samples_in_order() {
        let p = Probe::new(16, 1);
        for c in 0..100 {
            p.record(sample(c));
        }
        assert_eq!(p.emitted(), 100);
        let got = p.snapshot();
        assert_eq!(got.len(), 16);
        // Newest 16 tickets, oldest first, with payloads intact.
        for (i, (seq, s)) in got.iter().enumerate() {
            assert_eq!(*seq, 84 + i as u64);
            assert_eq!(s.conflicts, 84 + i as u64);
            assert_eq!(s.decisions, s.conflicts * 3);
        }
    }

    #[test]
    fn dump_round_trips_through_parse() {
        let p = Probe::new(4, 128);
        for c in 0..6 {
            p.record(SearchSample {
                source: if c % 2 == 0 {
                    SampleSource::Search
                } else {
                    SampleSource::Sharing
                },
                exported: c,
                ..sample(c * 128)
            });
        }
        let text = p.to_jsonl();
        assert!(text.starts_with("{\"type\":\"flight_meta\",\"version\":3"));
        let dump = FlightDump::parse_jsonl(&text).expect("parses");
        assert_eq!(dump.version, FLIGHT_VERSION);
        assert_eq!(dump.capacity, 4);
        assert_eq!(dump.every, 128);
        assert_eq!(dump.emitted, 6);
        assert_eq!(dump.samples.len(), 4);
        let (seq, last) = dump.samples.last().expect("non-empty");
        assert_eq!(*seq, 5);
        assert_eq!(last.source, SampleSource::Sharing);
        assert_eq!(last.conflicts, 5 * 128);
        assert!((last.lbd_ema_fast - 4.25).abs() < 1e-9);
        // The newest *search* sample is the post-mortem anchor.
        assert_eq!(dump.last_search().expect("search sample").conflicts, 512);
    }

    #[test]
    fn parse_ignores_foreign_trace_lines() {
        let p = Probe::new(4, 1);
        p.record(sample(1));
        let mut text = String::from("{\"type\":\"meta\",\"version\":1}\n");
        text.push_str("{\"type\":\"span\",\"id\":0,\"name\":\"iteration\",\"start_us\":1}\n");
        text.push_str(&p.to_jsonl());
        let dump = FlightDump::parse_jsonl(&text).expect("parses");
        assert_eq!(dump.samples.len(), 1);
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        let p = Probe::new(64, 1);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let p = p.clone();
                s.spawn(move || {
                    for c in 0..1000 {
                        p.record(sample(t * 1_000_000 + c));
                    }
                });
            }
        });
        assert_eq!(p.emitted(), 4000);
        let got = p.snapshot();
        assert!(got.len() <= 64);
        // Payload invariant survives the races on every surviving slot.
        for (_, s) in got {
            assert_eq!(s.decisions, s.conflicts * 3);
        }
    }
}
