//! The portfolio's clause-sharing medium: a sharded in-memory pool and
//! the per-member [`CohortEndpoint`] that implements the solver-side
//! [`ClauseExchange`] hooks.
//!
//! # Design
//!
//! [`SharedClausePool`] holds one bounded ring buffer per *producer*
//! member. A member publishes into its own shard (single writer per
//! shard, so publishing never contends with other producers) and each
//! consumer keeps a private cursor per foreign shard, so every clause is
//! delivered to every other member at most once. A shard-level atomic
//! sequence number lets consumers skip shards with nothing new without
//! taking the lock. All of it is `std` only: `Arc`, `Mutex`,
//! `AtomicU64` — no external dependencies.
//!
//! # Soundness fence
//!
//! Clauses are only valid between solvers over the *identical* variable
//! space, and cohort members do not keep identical spaces for free: the
//! optimization loops rebuild their model whenever the depth window
//! grows, and the bound machinery (cardinality networks, activation
//! literals) allocates variables in member-local order. The fence is:
//!
//! 1. Every model build computes a **space fingerprint** (hashing the
//!    encoding configuration, model style, and base variable count) and
//!    calls [`ClauseExchange::bind_space`] with it plus the build-time
//!    variable count.
//! 2. The endpoint refuses to export clauses mentioning variables
//!    allocated *after* build (activation literals, bound machinery) —
//!    those numberings are member-local.
//! 3. Published clauses carry the exporter's fingerprint; on import the
//!    endpoint drops clauses whose fingerprint differs from its own
//!    current one.
//!
//! So two members exchange clauses exactly while they demonstrably sit
//! on the same formula build, and go quiet (rather than unsound) when
//! their windows diverge.

use olsq2_obs::{Probe, Recorder, SampleSource, SearchSample};
use olsq2_sat::{ClauseExchange, Lit};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregate clause-sharing volumes for a portfolio run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Clauses exported into the pool (passed the quality gate and the
    /// variable-space fence).
    pub exported: u64,
    /// Clauses delivered into importing solvers.
    pub imported: u64,
    /// Clauses dropped by the fence: unbound/foreign variable space,
    /// post-build variables, or evicted from a ring before delivery.
    pub filtered: u64,
}

/// One producer's ring buffer.
#[derive(Debug, Default)]
struct Shard {
    /// Sequence number of `items.front()`.
    start_seq: u64,
    /// `(space fingerprint, clause)` in publication order.
    items: VecDeque<(u64, Arc<[Lit]>)>,
    /// Clauses pushed out by capacity overflow.
    evicted: u64,
    /// Overflow evictions that some *active* consumer had not yet seen —
    /// the only evictions that actually lose sharing opportunities.
    evicted_unseen: u64,
    /// Entries dropped because every active consumer had already
    /// consumed them (cursor garbage collection, not data loss).
    pruned: u64,
}

/// Pool-side view of one member as a *consumer*: its delivery cursors
/// (mirrored from the endpoint after each drain) and whether it is still
/// participating. Members that exit early — cancelled portfolio losers,
/// refuted cubes — retire, so they stop counting as "lagging" in the
/// eviction accounting and stop holding back cursor garbage collection.
#[derive(Debug)]
struct ConsumerRow {
    active: AtomicBool,
    /// Per-shard position this consumer has consumed up to.
    cursors: Vec<AtomicU64>,
}

/// A shard with its lock-free "anything new?" watermark.
#[derive(Debug, Default)]
struct ShardCell {
    /// Next sequence number this shard will assign. Written with
    /// `Release` after the item is visible under the lock; readers check
    /// it with `Acquire` to skip locking idle shards.
    seq: AtomicU64,
    ring: Mutex<Shard>,
}

/// Sharded multi-producer multi-consumer clause pool.
///
/// Built once per same-encoding cohort by the portfolio driver; members
/// talk to it through their [`CohortEndpoint`].
#[derive(Debug)]
pub struct SharedClausePool {
    shards: Vec<ShardCell>,
    capacity: usize,
    /// One consumer row per member (a member consumes every shard but
    /// its own).
    consumers: Vec<ConsumerRow>,
}

impl SharedClausePool {
    /// A pool for `members` producers with `capacity` clauses per shard.
    pub fn new(members: usize, capacity: usize) -> SharedClausePool {
        assert!(capacity > 0, "shard capacity must be positive");
        SharedClausePool {
            shards: (0..members).map(|_| ShardCell::default()).collect(),
            capacity,
            consumers: (0..members)
                .map(|_| ConsumerRow {
                    active: AtomicBool::new(true),
                    cursors: (0..members).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    /// Number of producer shards.
    pub fn num_members(&self) -> usize {
        self.shards.len()
    }

    /// Retires `member` as a consumer: its cursors stop holding back
    /// garbage collection of other members' rings and stop counting as
    /// "lagging" in the eviction accounting. Called when a member exits
    /// early (cancelled portfolio loser, refuted cube). Idempotent.
    pub fn retire(&self, member: usize) {
        self.consumers[member]
            .active
            .store(false, Ordering::Release);
    }

    /// Re-admits a retired `member` as a consumer (the cube engine
    /// retires workers at the end of every per-bound run and brings them
    /// back for the next bound). Sound at any time: the member's
    /// mirrored cursors only ever lag its real consumption, so turning
    /// them back on can only make the GC horizon more conservative; any
    /// clauses pruned or evicted while it was away are simply missed
    /// imports, never duplicates.
    pub fn reactivate(&self, member: usize) {
        self.consumers[member].active.store(true, Ordering::Release);
    }

    /// The lowest position any *active* foreign consumer still needs
    /// from `member`'s shard; `u64::MAX` when none is listening.
    fn seen_horizon(&self, member: usize) -> u64 {
        self.consumers
            .iter()
            .enumerate()
            .filter(|(c, row)| *c != member && row.active.load(Ordering::Acquire))
            .map(|(_, row)| row.cursors[member].load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Publishes a clause from `member` tagged with its space fingerprint.
    fn publish(&self, member: usize, space: u64, lits: &[Lit]) {
        let horizon = self.seen_horizon(member);
        let cell = &self.shards[member];
        let mut ring = cell.ring.lock().expect("pool shard poisoned");
        // Cursor GC: everything below the horizon has been consumed by
        // every consumer still participating (mirrored cursors only ever
        // lag real consumption, so this never drops an undelivered
        // clause).
        while !ring.items.is_empty() && ring.start_seq < horizon {
            ring.items.pop_front();
            ring.start_seq += 1;
            ring.pruned += 1;
        }
        if ring.items.len() == self.capacity {
            if ring.start_seq >= horizon {
                // An active consumer had not reached this clause yet.
                ring.evicted_unseen += 1;
            }
            ring.items.pop_front();
            ring.start_seq += 1;
            ring.evicted += 1;
        }
        ring.items.push_back((space, Arc::from(lits)));
        let next = ring.start_seq + ring.items.len() as u64;
        drop(ring);
        cell.seq.store(next, Ordering::Release);
    }

    /// Collects unseen clauses for `consumer` whose fingerprint matches
    /// `space`, advancing `cursors` (one per shard). Returns
    /// `(delivered, dropped)` counts; delivered clauses are appended to
    /// `out`.
    fn collect(
        &self,
        consumer: usize,
        space: u64,
        cursors: &mut [u64],
        out: &mut Vec<Vec<Lit>>,
    ) -> (u64, u64) {
        debug_assert_eq!(cursors.len(), self.shards.len());
        let (mut delivered, mut dropped) = (0u64, 0u64);
        for (i, cell) in self.shards.iter().enumerate() {
            if i == consumer {
                continue;
            }
            // Fast path: nothing published since our cursor.
            if cell.seq.load(Ordering::Acquire) <= cursors[i] {
                continue;
            }
            let ring = cell.ring.lock().expect("pool shard poisoned");
            if cursors[i] < ring.start_seq {
                // Evicted before we got to them.
                dropped += ring.start_seq - cursors[i];
                cursors[i] = ring.start_seq;
            }
            let skip = (cursors[i] - ring.start_seq) as usize;
            for (tag, clause) in ring.items.iter().skip(skip) {
                if *tag == space {
                    out.push(clause.to_vec());
                    delivered += 1;
                } else {
                    dropped += 1;
                }
            }
            cursors[i] = ring.start_seq + ring.items.len() as u64;
            drop(ring);
            // Mirror the position for the publish-side accounting/GC.
            // Stored after consumption, so the mirror only ever lags.
            self.consumers[consumer].cursors[i].store(cursors[i], Ordering::Release);
        }
        (delivered, dropped)
    }

    /// Total clauses pushed out of rings by capacity overflow.
    pub fn evicted(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.ring.lock().expect("pool shard poisoned").evicted)
            .sum()
    }

    /// Overflow evictions some *active* consumer had not yet seen — the
    /// evictions that actually lost a sharing opportunity. Evictions
    /// past only retired members' cursors do not count.
    pub fn evicted_unseen(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.ring.lock().expect("pool shard poisoned").evicted_unseen)
            .sum()
    }

    /// Ring entries reclaimed by cursor garbage collection (seen by every
    /// active consumer, or published with no active consumer left).
    pub fn pruned(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.ring.lock().expect("pool shard poisoned").pruned)
            .sum()
    }
}

/// One portfolio member's attachment to a [`SharedClausePool`].
///
/// Implements [`ClauseExchange`]: the solver's export path lands in the
/// member's own shard and its import path drains every other shard,
/// subject to the variable-space fence described in the
/// [module docs](self).
#[derive(Debug)]
pub struct CohortEndpoint {
    pool: Arc<SharedClausePool>,
    member: usize,
    /// Current space fingerprint (0 = not yet bound; exports dropped).
    space: AtomicU64,
    /// Build-time variable count; clauses mentioning variables at or
    /// above this were learned over member-local bound machinery and
    /// must not leave the solver.
    base_vars: AtomicUsize,
    /// Per-foreign-shard delivery cursors.
    cursors: Mutex<Vec<u64>>,
    /// Set once the member exits; exports and imports become no-ops.
    retired: AtomicBool,
    exported: AtomicU64,
    imported: AtomicU64,
    filtered: AtomicU64,
    recorder: Recorder,
    /// Flight-recorder probe; sharing-flow samples are tagged
    /// [`SampleSource::Sharing`].
    probe: Probe,
}

impl CohortEndpoint {
    /// Attaches member `member` to `pool`.
    pub fn new(pool: Arc<SharedClausePool>, member: usize, recorder: Recorder) -> CohortEndpoint {
        let shards = pool.num_members();
        assert!(member < shards, "member index out of range");
        CohortEndpoint {
            pool,
            member,
            space: AtomicU64::new(0),
            base_vars: AtomicUsize::new(0),
            cursors: Mutex::new(vec![0; shards]),
            retired: AtomicBool::new(false),
            exported: AtomicU64::new(0),
            imported: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            recorder,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a flight-recorder probe: every `probe.every()` shared
    /// clauses (exports plus imports) the endpoint records one
    /// [`SampleSource::Sharing`] sample carrying its cumulative flow
    /// counters.
    pub fn with_probe(mut self, probe: Probe) -> CohortEndpoint {
        self.probe = probe;
        self
    }

    /// Records a sharing-flow sample when the cumulative flow crosses
    /// the probe cadence. Search-side fields stay zero.
    fn maybe_flight_sample(&self) {
        let exported = self.exported.load(Ordering::Relaxed);
        let imported = self.imported.load(Ordering::Relaxed);
        if !self.probe.sample_due(exported + imported) {
            return;
        }
        self.probe.record(SearchSample {
            source: SampleSource::Sharing,
            exported,
            imported,
            ..SearchSample::default()
        });
    }

    /// Volumes seen by this endpoint so far.
    pub fn stats(&self) -> SharingStats {
        SharingStats {
            exported: self.exported.load(Ordering::Relaxed),
            imported: self.imported.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
        }
    }

    /// Detaches this member from the pool: its consumer cursors are
    /// retired (see [`SharedClausePool::retire`]) and any further
    /// export/import through the endpoint becomes a no-op. Called when
    /// the member exits before the cohort does — a cancelled portfolio
    /// loser or a cube worker whose cubes are all refuted. Idempotent.
    pub fn retire(&self) {
        if !self.retired.swap(true, Ordering::AcqRel) {
            self.pool.retire(self.member);
        }
    }

    /// Re-admits a retired member, undoing [`CohortEndpoint::retire`].
    /// The cube engine retires every worker's endpoint when its run
    /// drains, then reactivates them at the next optimizer iteration so
    /// the same solvers (and the same pool) carry over. Sound because the
    /// member's delivery cursors were left in place: they only lag real
    /// consumption, so the pool's GC horizon stays conservative, and
    /// clauses evicted while retired are simply never imported (a missed
    /// import, never a duplicate). Idempotent.
    pub fn reactivate(&self) {
        if self.retired.swap(false, Ordering::AcqRel) {
            self.pool.reactivate(self.member);
        }
    }
}

impl ClauseExchange for CohortEndpoint {
    fn export(&self, lits: &[Lit], _lbd: u32) {
        if self.retired.load(Ordering::Acquire) {
            return;
        }
        let space = self.space.load(Ordering::Acquire);
        let base = self.base_vars.load(Ordering::Acquire);
        if space == 0 || lits.iter().any(|l| l.var().index() >= base) {
            // Unbound space, or the clause leans on post-build variables
            // (activation literals / bound machinery) whose numbering is
            // member-local.
            self.filtered.fetch_add(1, Ordering::Relaxed);
            if self.recorder.is_enabled() {
                self.recorder.add("portfolio.clauses_filtered", 1);
            }
            return;
        }
        self.pool.publish(self.member, space, lits);
        self.exported.fetch_add(1, Ordering::Relaxed);
        if self.recorder.is_enabled() {
            self.recorder.add("portfolio.clauses_exported", 1);
        }
        self.maybe_flight_sample();
    }

    fn import_into(&self, out: &mut Vec<Vec<Lit>>) {
        if self.retired.load(Ordering::Acquire) {
            return;
        }
        let space = self.space.load(Ordering::Acquire);
        if space == 0 {
            return;
        }
        let mut cursors = self.cursors.lock().expect("cursor lock poisoned");
        let (delivered, dropped) = self.pool.collect(self.member, space, &mut cursors, out);
        drop(cursors);
        self.imported.fetch_add(delivered, Ordering::Relaxed);
        self.filtered.fetch_add(dropped, Ordering::Relaxed);
        if self.recorder.is_enabled() {
            if delivered > 0 {
                self.recorder.add("portfolio.clauses_imported", delivered);
            }
            if dropped > 0 {
                self.recorder.add("portfolio.clauses_filtered", dropped);
            }
        }
        if delivered > 0 {
            self.maybe_flight_sample();
        }
    }

    fn bind_space(&self, fingerprint: u64, num_vars: usize) {
        self.base_vars.store(num_vars, Ordering::Release);
        self.space.store(fingerprint, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::Var;

    fn lit(v: usize) -> Lit {
        Lit::positive(Var::from_index(v))
    }

    #[test]
    fn clauses_flow_between_bound_members_once() {
        let pool = Arc::new(SharedClausePool::new(2, 16));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool, 1, Recorder::disabled());
        a.bind_space(0xABCD, 10);
        b.bind_space(0xABCD, 10);
        a.export(&[lit(1), lit(2)], 2);
        let mut got = Vec::new();
        b.import_into(&mut got);
        assert_eq!(got, vec![vec![lit(1), lit(2)]]);
        // Delivered at most once.
        got.clear();
        b.import_into(&mut got);
        assert!(got.is_empty());
        // Exporter never hears its own clause back.
        got.clear();
        a.import_into(&mut got);
        assert!(got.is_empty());
        assert_eq!(a.stats().exported, 1);
        assert_eq!(b.stats().imported, 1);
    }

    #[test]
    fn unbound_and_foreign_space_clauses_are_fenced() {
        let pool = Arc::new(SharedClausePool::new(2, 16));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool, 1, Recorder::disabled());
        // Unbound exporter: nothing leaves.
        a.export(&[lit(0)], 1);
        assert_eq!(a.stats().exported, 0);
        assert_eq!(a.stats().filtered, 1);
        // Bound, but b sits on a different formula build.
        a.bind_space(0x1111, 10);
        b.bind_space(0x2222, 10);
        a.export(&[lit(0)], 1);
        let mut got = Vec::new();
        b.import_into(&mut got);
        assert!(got.is_empty());
        assert_eq!(b.stats().imported, 0);
        assert_eq!(b.stats().filtered, 1);
        // b catches up to the same build: later clauses flow again.
        b.bind_space(0x1111, 10);
        a.export(&[lit(3)], 1);
        b.import_into(&mut got);
        assert_eq!(got, vec![vec![lit(3)]]);
    }

    #[test]
    fn post_build_variables_never_leave_the_solver() {
        let pool = Arc::new(SharedClausePool::new(2, 16));
        let a = CohortEndpoint::new(pool, 0, Recorder::disabled());
        a.bind_space(0x7, 5);
        a.export(&[lit(4)], 1); // in-space: ok
        a.export(&[lit(5)], 1); // activation-literal territory: fenced
        assert_eq!(a.stats().exported, 1);
        assert_eq!(a.stats().filtered, 1);
    }

    #[test]
    fn ring_eviction_counts_as_dropped_for_lagging_consumers() {
        let pool = Arc::new(SharedClausePool::new(2, 2));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool.clone(), 1, Recorder::disabled());
        a.bind_space(0x7, 10);
        b.bind_space(0x7, 10);
        for v in 0..5 {
            a.export(&[lit(v)], 1);
        }
        let mut got = Vec::new();
        b.import_into(&mut got);
        // Capacity 2: only the two newest survive; three were evicted.
        assert_eq!(got, vec![vec![lit(3)], vec![lit(4)]]);
        assert_eq!(b.stats().imported, 2);
        assert_eq!(b.stats().filtered, 3);
        assert_eq!(pool.evicted(), 3);
    }

    #[test]
    fn retired_consumers_stop_holding_back_cursor_gc() {
        let pool = Arc::new(SharedClausePool::new(2, 2));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool.clone(), 1, Recorder::disabled());
        a.bind_space(0x7, 10);
        b.bind_space(0x7, 10);
        // b never imports, so its cursor pins a's ring at first.
        a.export(&[lit(0)], 1);
        a.export(&[lit(1)], 1);
        assert_eq!(pool.evicted(), 0);
        b.retire();
        b.retire(); // idempotent
                    // With no active consumer left, publishes reclaim old entries via
                    // GC instead of recording capacity evictions against anyone.
        for v in 2..5 {
            a.export(&[lit(v)], 1);
        }
        assert_eq!(pool.pruned(), 4);
        assert_eq!(pool.evicted(), 0);
        assert_eq!(pool.evicted_unseen(), 0);
        // The retired endpoint is a full no-op in both directions.
        let mut got = Vec::new();
        b.import_into(&mut got);
        assert!(got.is_empty());
        b.export(&[lit(9)], 1);
        assert_eq!(b.stats(), SharingStats::default());
        got.clear();
        a.import_into(&mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn reactivated_consumers_resume_imports_from_their_cursor() {
        let pool = Arc::new(SharedClausePool::new(2, 16));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool.clone(), 1, Recorder::disabled());
        a.bind_space(0x7, 10);
        b.bind_space(0x7, 10);
        a.export(&[lit(0)], 1);
        let mut got = Vec::new();
        b.import_into(&mut got);
        assert_eq!(got.len(), 1);
        // Retired: both directions go quiet, and GC no longer waits on b.
        b.retire();
        a.export(&[lit(1)], 1);
        got.clear();
        b.import_into(&mut got);
        assert!(got.is_empty());
        // Reactivated (idempotent): the next iteration's traffic flows
        // again from b's standing cursor — no duplicates of lit(0).
        b.reactivate();
        b.reactivate();
        a.export(&[lit(2)], 1);
        got.clear();
        b.import_into(&mut got);
        assert!(got.iter().all(|c| c != &vec![lit(0)]));
        assert!(got.contains(&vec![lit(2)]));
        b.export(&[lit(3)], 1);
        got.clear();
        a.import_into(&mut got);
        assert_eq!(got, vec![vec![lit(3)]]);
    }

    #[test]
    fn eviction_accounting_separates_unseen_losses_from_gc() {
        let pool = Arc::new(SharedClausePool::new(2, 2));
        let a = CohortEndpoint::new(pool.clone(), 0, Recorder::disabled());
        let b = CohortEndpoint::new(pool.clone(), 1, Recorder::disabled());
        a.bind_space(0x7, 10);
        b.bind_space(0x7, 10);
        // b is active but lagging: the third export overflows capacity
        // past b's cursor — a real lost sharing opportunity.
        for v in 0..3 {
            a.export(&[lit(v)], 1);
        }
        assert_eq!(pool.evicted(), 1);
        assert_eq!(pool.evicted_unseen(), 1);
        assert_eq!(pool.pruned(), 0);
        // Once b drains, its mirrored cursor lets later publishes reclaim
        // the consumed entries as GC rather than evictions.
        let mut got = Vec::new();
        b.import_into(&mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(b.stats().filtered, 1);
        a.export(&[lit(3)], 1);
        a.export(&[lit(4)], 1);
        assert_eq!(pool.pruned(), 2);
        assert_eq!(pool.evicted(), 1);
        assert_eq!(pool.evicted_unseen(), 1);
    }

    #[test]
    fn concurrent_publish_and_collect_lose_nothing_when_capacity_suffices() {
        let n = 4;
        let per = 200;
        let pool = Arc::new(SharedClausePool::new(n, n * per));
        let endpoints: Vec<_> = (0..n)
            .map(|i| {
                let e = CohortEndpoint::new(pool.clone(), i, Recorder::disabled());
                e.bind_space(0x99, 1000);
                Arc::new(e)
            })
            .collect();
        std::thread::scope(|s| {
            for (i, e) in endpoints.iter().enumerate() {
                let e = e.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    for k in 0..per {
                        e.export(&[lit(i * per + k)], 1);
                        if k % 16 == 0 {
                            e.import_into(&mut got);
                        }
                    }
                });
            }
        });
        // After the dust settles every member can drain the others fully.
        for e in &endpoints {
            let mut got = Vec::new();
            e.import_into(&mut got);
            let st = e.stats();
            assert_eq!(st.exported, per as u64);
            assert_eq!(st.imported, ((n - 1) * per) as u64);
            assert_eq!(st.filtered, 0);
        }
    }
}
