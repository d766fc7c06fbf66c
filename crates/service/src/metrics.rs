//! Service-level metrics: job counters, latency percentiles, and
//! aggregated solver statistics.

use crate::cache::CacheStats;
use olsq2_sat::Stats;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Aggregated SAT-solver totals across all jobs a service has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTotals {
    /// Total conflicts.
    pub conflicts: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Total unit propagations.
    pub propagations: u64,
    /// Total restarts.
    pub restarts: u64,
    /// Learned clauses retained at the end of each job's last solve,
    /// summed over jobs.
    pub learnts: u64,
    /// Total learned-clause database reductions.
    pub reduces: u64,
    /// Total literals deleted by conflict-clause minimization.
    pub minimized_lits: u64,
}

impl SolverTotals {
    fn add(&mut self, s: &Stats) {
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.restarts += s.restarts;
        self.learnts += s.learnts;
        self.reduces += s.reduces;
        self.minimized_lits += s.minimized_lits;
    }
}

/// Per-tenant job accounting (see
/// [`crate::SynthesisRequest::tenant`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs accepted for this tenant.
    pub submitted: u64,
    /// Jobs finished with a (possibly degraded) result.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Median end-to-end latency over this tenant's completed jobs.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency for this tenant.
    pub p95_latency: Duration,
}

/// A point-in-time snapshot of a service's metrics.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing on a worker.
    pub running: u64,
    /// Jobs finished with a (possibly degraded) result.
    pub done: u64,
    /// Of the done jobs, how many were degraded to a best-so-far
    /// incumbent by their deadline.
    pub degraded: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Median end-to-end latency (submission → terminal) over completed
    /// jobs; zero when nothing completed yet.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
    /// Aggregated solver statistics.
    pub solver: SolverTotals,
    /// In-place window extensions performed across all jobs (zero when
    /// the incremental encoding path is disabled).
    pub window_extensions: u64,
    /// Worker threads in the pool; zero when the snapshot came from a
    /// context that does not know the pool size.
    pub workers: u64,
    /// Per-tenant job accounting, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
}

/// The service's internal metrics collector.
pub(crate) struct MetricsCollector {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    submitted: u64,
    queued: u64,
    running: u64,
    done: u64,
    degraded: u64,
    failed: u64,
    cancelled: u64,
    latencies_us: Vec<u64>,
    solver: SolverTotals,
    window_extensions: u64,
    tenants: BTreeMap<String, TenantInner>,
}

#[derive(Default)]
struct TenantInner {
    submitted: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    latencies_us: Vec<u64>,
}

impl MetricsCollector {
    pub(crate) fn new() -> MetricsCollector {
        MetricsCollector {
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics lock")
    }

    pub(crate) fn on_submit(&self, tenant: &str) {
        let mut m = self.lock();
        m.submitted += 1;
        m.queued += 1;
        m.tenant(tenant).submitted += 1;
    }

    pub(crate) fn on_dequeue(&self) {
        let mut m = self.lock();
        m.queued = m.queued.saturating_sub(1);
        m.running += 1;
    }

    /// A queued job was dropped (cancelled) without ever running.
    pub(crate) fn on_cancel_queued(&self, tenant: &str) {
        let mut m = self.lock();
        m.queued = m.queued.saturating_sub(1);
        m.cancelled += 1;
        m.tenant(tenant).cancelled += 1;
    }

    pub(crate) fn on_done(
        &self,
        latency: Duration,
        degraded: bool,
        stats: Option<&Stats>,
        tenant: &str,
    ) {
        let mut m = self.lock();
        m.running = m.running.saturating_sub(1);
        m.done += 1;
        if degraded {
            m.degraded += 1;
        }
        m.latencies_us.push(latency.as_micros() as u64);
        if let Some(s) = stats {
            m.solver.add(s);
        }
        let t = m.tenant(tenant);
        t.done += 1;
        t.latencies_us.push(latency.as_micros() as u64);
    }

    /// Credits in-place window extensions performed by a finished job.
    pub(crate) fn on_extensions(&self, n: u64) {
        if n > 0 {
            self.lock().window_extensions += n;
        }
    }

    pub(crate) fn on_failed(&self, latency: Duration, tenant: &str) {
        let mut m = self.lock();
        m.running = m.running.saturating_sub(1);
        m.failed += 1;
        m.latencies_us.push(latency.as_micros() as u64);
        let t = m.tenant(tenant);
        t.failed += 1;
        t.latencies_us.push(latency.as_micros() as u64);
    }

    pub(crate) fn on_cancel_running(&self, tenant: &str) {
        let mut m = self.lock();
        m.running = m.running.saturating_sub(1);
        m.cancelled += 1;
        m.tenant(tenant).cancelled += 1;
    }

    pub(crate) fn snapshot(&self, cache: CacheStats) -> ServiceMetrics {
        let m = self.lock();
        let (p50, p95, p99) = percentiles(&m.latencies_us);
        let tenants = m
            .tenants
            .iter()
            .map(|(name, t)| {
                let (p50, p95, _) = percentiles(&t.latencies_us);
                (
                    name.clone(),
                    TenantStats {
                        submitted: t.submitted,
                        done: t.done,
                        failed: t.failed,
                        cancelled: t.cancelled,
                        p50_latency: p50,
                        p95_latency: p95,
                    },
                )
            })
            .collect();
        ServiceMetrics {
            submitted: m.submitted,
            queued: m.queued,
            running: m.running,
            done: m.done,
            degraded: m.degraded,
            failed: m.failed,
            cancelled: m.cancelled,
            cache,
            p50_latency: p50,
            p95_latency: p95,
            p99_latency: p99,
            solver: m.solver,
            window_extensions: m.window_extensions,
            workers: 0,
            tenants,
        }
    }
}

impl Inner {
    fn tenant(&mut self, name: &str) -> &mut TenantInner {
        // entry() would allocate the key on every call; tenant sets are
        // tiny, so probe first.
        if !self.tenants.contains_key(name) {
            self.tenants
                .insert(name.to_string(), TenantInner::default());
        }
        self.tenants.get_mut(name).expect("just inserted")
    }
}

/// Nearest-rank (p50, p95, p99) over the recorded latencies.
fn percentiles(latencies_us: &[u64]) -> (Duration, Duration, Duration) {
    if latencies_us.is_empty() {
        return (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    }
    let mut sorted = latencies_us.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| -> Duration {
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        Duration::from_micros(sorted[idx])
    };
    (rank(0.50), rank(0.95), rank(0.99))
}

/// Renders a metrics snapshot plus the recorder's counters in the
/// Prometheus text exposition format (version 0.0.4).
///
/// Service gauges/counters come out under the `olsq2_` prefix; recorder
/// counters (e.g. `sat.conflicts`) are sanitized into metric names
/// (`olsq2_sat_conflicts`). Pass a disabled recorder to expose the
/// service metrics alone.
pub fn prometheus_text(m: &ServiceMetrics, recorder: &olsq2_obs::Recorder) -> String {
    let mut prom = olsq2_obs::PromText::new();
    prom.counter("olsq2_jobs_submitted", "Jobs accepted", m.submitted as f64);
    prom.gauge(
        "olsq2_jobs_queued",
        "Jobs waiting in the queue",
        m.queued as f64,
    );
    prom.gauge(
        "olsq2_jobs_running",
        "Jobs executing on a worker",
        m.running as f64,
    );
    prom.counter(
        "olsq2_jobs_done",
        "Jobs finished with a result",
        m.done as f64,
    );
    prom.counter(
        "olsq2_jobs_degraded",
        "Done jobs degraded to a best-so-far incumbent",
        m.degraded as f64,
    );
    prom.counter("olsq2_jobs_failed", "Jobs that failed", m.failed as f64);
    prom.counter("olsq2_jobs_cancelled", "Jobs cancelled", m.cancelled as f64);
    prom.counter("olsq2_cache_hits", "Result-cache hits", m.cache.hits as f64);
    prom.counter(
        "olsq2_cache_misses",
        "Result-cache misses",
        m.cache.misses as f64,
    );
    prom.counter(
        "olsq2_cache_evictions",
        "Result-cache evictions",
        m.cache.evictions as f64,
    );
    prom.gauge(
        "olsq2_latency_p50_us",
        "Median end-to-end latency (us)",
        m.p50_latency.as_micros() as f64,
    );
    prom.gauge(
        "olsq2_latency_p95_us",
        "95th-percentile end-to-end latency (us)",
        m.p95_latency.as_micros() as f64,
    );
    prom.gauge(
        "olsq2_latency_p99_us",
        "99th-percentile end-to-end latency (us)",
        m.p99_latency.as_micros() as f64,
    );
    prom.counter(
        "olsq2_solver_conflicts",
        "SAT conflicts across jobs",
        m.solver.conflicts as f64,
    );
    prom.counter(
        "olsq2_solver_decisions",
        "SAT decisions across jobs",
        m.solver.decisions as f64,
    );
    prom.counter(
        "olsq2_solver_propagations",
        "SAT propagations across jobs",
        m.solver.propagations as f64,
    );
    prom.counter(
        "olsq2_solver_restarts",
        "SAT restarts across jobs",
        m.solver.restarts as f64,
    );
    prom.counter(
        "olsq2_solver_learnts",
        "Learned clauses retained across jobs",
        m.solver.learnts as f64,
    );
    prom.counter(
        "olsq2_solver_reduces",
        "Learned-clause DB reductions across jobs",
        m.solver.reduces as f64,
    );
    prom.counter(
        "olsq2_solver_minimized_lits",
        "Literals removed by clause minimization across jobs",
        m.solver.minimized_lits as f64,
    );
    prom.counter(
        "olsq2_window_extensions",
        "In-place encoding window extensions across jobs",
        m.window_extensions as f64,
    );
    if m.workers > 0 {
        prom.gauge(
            "olsq2_workers",
            "Worker threads in the pool",
            m.workers as f64,
        );
        prom.gauge(
            "olsq2_workers_busy",
            "Worker threads currently executing a job",
            m.running as f64,
        );
    }
    for (tenant, t) in &m.tenants {
        let labels: &[(&str, &str)] = &[("tenant", tenant.as_str())];
        prom.counter_labeled(
            "olsq2_tenant_jobs_submitted",
            "Jobs accepted, by tenant",
            labels,
            t.submitted as f64,
        );
        prom.counter_labeled(
            "olsq2_tenant_jobs_done",
            "Jobs finished with a result, by tenant",
            labels,
            t.done as f64,
        );
        prom.counter_labeled(
            "olsq2_tenant_jobs_failed",
            "Jobs that failed, by tenant",
            labels,
            t.failed as f64,
        );
        prom.counter_labeled(
            "olsq2_tenant_jobs_cancelled",
            "Jobs cancelled, by tenant",
            labels,
            t.cancelled as f64,
        );
        prom.gauge_labeled(
            "olsq2_tenant_latency_p50_us",
            "Median end-to-end latency (us), by tenant",
            labels,
            t.p50_latency.as_micros() as f64,
        );
        prom.gauge_labeled(
            "olsq2_tenant_latency_p95_us",
            "95th-percentile end-to-end latency (us), by tenant",
            labels,
            t.p95_latency.as_micros() as f64,
        );
    }
    if recorder.is_enabled() {
        let snap = recorder.snapshot();
        for (name, value) in &snap.counters {
            prom.counter(
                &format!("olsq2_{name}"),
                "Recorder counter (olsq2-obs)",
                *value as f64,
            );
        }
        for (name, summary) in &snap.histograms {
            prom.histogram(
                &format!("olsq2_{name}"),
                "Recorder log2 histogram (olsq2-obs)",
                &[],
                summary,
            );
        }
    }
    prom.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ranks() {
        let us: Vec<u64> = (1..=100).collect();
        let (p50, p95, p99) = percentiles(&us);
        assert_eq!(p50, Duration::from_micros(50));
        assert_eq!(p95, Duration::from_micros(95));
        assert_eq!(p99, Duration::from_micros(99));
    }

    #[test]
    fn percentiles_of_empty_input_are_zero() {
        assert_eq!(
            percentiles(&[]),
            (Duration::ZERO, Duration::ZERO, Duration::ZERO)
        );
    }

    #[test]
    fn percentiles_of_single_sample_all_equal_it() {
        let seven = Duration::from_micros(7);
        assert_eq!(percentiles(&[7]), (seven, seven, seven));
    }

    #[test]
    fn percentiles_with_ties_pick_the_tied_value() {
        // 9 copies of 10 and one 1000: p50 (rank ceil(5) = 5) stays in
        // the tied run, while p95 and p99 (ranks ceil(9.5) = ceil(9.9)
        // = 10) both reach the outlier.
        let us = [10, 10, 10, 10, 10, 10, 10, 10, 10, 1000];
        let (p50, p95, p99) = percentiles(&us);
        assert_eq!(p50, Duration::from_micros(10));
        assert_eq!(p95, Duration::from_micros(1000));
        assert_eq!(p99, Duration::from_micros(1000));
        // All samples identical: every percentile is that value.
        let (a, b, c) = percentiles(&[42; 16]);
        assert_eq!(
            (a, b, c),
            (
                Duration::from_micros(42),
                Duration::from_micros(42),
                Duration::from_micros(42)
            )
        );
    }

    #[test]
    fn prometheus_text_exposes_service_and_recorder_metrics() {
        let metrics = ServiceMetrics {
            submitted: 3,
            done: 2,
            p99_latency: Duration::from_micros(1500),
            ..ServiceMetrics::default()
        };
        let recorder = olsq2_obs::Recorder::new();
        recorder.add("sat.conflicts", 17);
        recorder.add("sat.vivified", 4);
        recorder.add("sat.strengthened", 2);
        recorder.add("sat.binary_props", 900);
        recorder.add("sat.tier_demotions", 6);
        recorder.add("cube.cubes_split", 5);
        recorder.add("cube.cubes_refuted", 4);
        recorder.add("cube.cubes_pruned_by_core", 1);
        recorder.add("cube.steals", 3);
        recorder.add("cube.resplits", 2);
        let text = prometheus_text(&metrics, &recorder);
        assert!(text.contains("# TYPE olsq2_jobs_submitted counter"));
        assert!(text.contains("olsq2_jobs_submitted 3"));
        assert!(text.contains("olsq2_latency_p99_us 1500"));
        assert!(text.contains("olsq2_sat_conflicts 17"));
        // Inprocessing/kernel telemetry rides the same recorder path.
        assert!(text.contains("olsq2_sat_vivified 4"));
        assert!(text.contains("olsq2_sat_strengthened 2"));
        assert!(text.contains("olsq2_sat_binary_props 900"));
        assert!(text.contains("olsq2_sat_tier_demotions 6"));
        // Cube-and-conquer scheduler counters ride the same recorder path.
        assert!(text.contains("olsq2_cube_cubes_split 5"));
        assert!(text.contains("olsq2_cube_cubes_refuted 4"));
        assert!(text.contains("olsq2_cube_cubes_pruned_by_core 1"));
        assert!(text.contains("olsq2_cube_steals 3"));
        assert!(text.contains("olsq2_cube_resplits 2"));
        // Disabled recorder: service metrics only, no panic.
        let plain = prometheus_text(&metrics, &olsq2_obs::Recorder::disabled());
        assert!(plain.contains("olsq2_jobs_done 2"));
        assert!(!plain.contains("olsq2_sat_conflicts"));
    }

    #[test]
    fn counters_flow_through_lifecycle() {
        let c = MetricsCollector::new();
        c.on_submit("team-a");
        c.on_submit("team-b");
        c.on_dequeue();
        c.on_done(Duration::from_millis(3), true, None, "team-a");
        c.on_dequeue();
        c.on_failed(Duration::from_millis(1), "team-b");
        let snap = c.snapshot(CacheStats::default());
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.running, 0);
        assert_eq!(snap.done, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.failed, 1);
        assert!(snap.p95_latency >= snap.p50_latency);
        // Per-tenant accounting splits the same events by tenant.
        let a = &snap.tenants["team-a"];
        assert_eq!((a.submitted, a.done, a.failed), (1, 1, 0));
        assert_eq!(a.p50_latency, Duration::from_millis(3));
        let b = &snap.tenants["team-b"];
        assert_eq!((b.submitted, b.done, b.failed), (1, 0, 1));
    }

    #[test]
    fn prometheus_text_labels_tenants_and_workers() {
        let mut metrics = ServiceMetrics {
            running: 2,
            workers: 4,
            ..ServiceMetrics::default()
        };
        metrics.tenants.insert(
            "team-a".to_string(),
            TenantStats {
                submitted: 3,
                done: 2,
                failed: 1,
                cancelled: 0,
                p50_latency: Duration::from_micros(500),
                p95_latency: Duration::from_micros(900),
            },
        );
        let text = prometheus_text(&metrics, &olsq2_obs::Recorder::disabled());
        assert!(text.contains("olsq2_workers 4"), "{text}");
        assert!(text.contains("olsq2_workers_busy 2"), "{text}");
        assert!(
            text.contains("olsq2_tenant_jobs_submitted{tenant=\"team-a\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("olsq2_tenant_latency_p95_us{tenant=\"team-a\"} 900"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_text_exposes_recorder_histograms() {
        let recorder = olsq2_obs::Recorder::new();
        recorder.observe("solve_us", 3);
        recorder.observe("solve_us", 90);
        let text = prometheus_text(&ServiceMetrics::default(), &recorder);
        assert!(text.contains("# TYPE olsq2_solve_us histogram"), "{text}");
        assert!(text.contains("olsq2_solve_us_count 2"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
    }
}
