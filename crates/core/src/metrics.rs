//! Classifier-kernel metrics (DESIGN.md §7): per-query ranking latency and
//! candidate volume, early-return skips, and batch worker utilization,
//! registered under the `qatk_core_*` prefix.

use std::sync::OnceLock;

use qatk_obs::{Counter, Gauge, Histogram, Registry, Sampler};

/// 1-in-N sampling period for per-query latency/candidate histograms. The
/// rank kernel runs in about a microsecond; clocking every query costs more
/// than the query. Counters are not sampled and stay exact.
const RANK_SAMPLE_PERIOD: u64 = 16;

/// Handles to every `qatk_core_*` metric.
pub struct CoreMetrics {
    /// Ranking queries served (kernel and majority-vote paths).
    pub rank_queries_total: &'static Counter,
    /// Sampling gate for `rank_latency_ns` / `rank_candidates`.
    pub rank_sample: Sampler,
    /// Queries that took an early return — unknown part with zero overlap,
    /// empty feature set, or an empty candidate set (no kernel work done).
    pub classifier_skipped_total: &'static Counter,
    /// Candidate nodes touched by the score accumulator, per query.
    pub rank_candidates: &'static Histogram,
    /// Ranking queries served by the LSH-pruned sealed path.
    pub rank_pruned_total: &'static Counter,
    /// Candidate nodes surviving the LSH prefilter, per pruned query.
    pub lsh_candidates: &'static Histogram,
    /// Wall time of one ranked-kNN query (ns).
    pub rank_latency_ns: &'static Histogram,
    /// `Classifier::rank_batch` fan-outs, every family.
    pub batch_total: &'static Counter,
    /// Queries per batch.
    pub batch_size: &'static Histogram,
    /// Worker threads used by the most recent batch.
    pub batch_workers: &'static Gauge,
    /// Per-worker busy time inside a batch (ns) — compare against
    /// `qatk_core_batch_wall_ns` for utilization.
    pub batch_worker_busy_ns: &'static Histogram,
    /// Wall time of one whole batch (ns).
    pub batch_wall_ns: &'static Histogram,
    /// Ranking queries attributed to each classifier family — incremented
    /// by the [`crate::zoo::RankerModel`] dispatch layer (one bump per
    /// ranked query, batches count every query), so serving traffic is
    /// attributable to a model while the kernel counters above stay exact
    /// and family-agnostic.
    pub rank_family_knn_total: &'static Counter,
    pub rank_family_centroid_total: &'static Counter,
    pub rank_family_naive_bayes_total: &'static Counter,
    pub rank_family_logistic_total: &'static Counter,
}

impl CoreMetrics {
    /// The per-family attribution counter for one classifier family.
    pub fn rank_family_total(&self, family: crate::zoo::ClassifierFamily) -> &'static Counter {
        use crate::zoo::ClassifierFamily::*;
        match family {
            Knn => self.rank_family_knn_total,
            Centroid => self.rank_family_centroid_total,
            NaiveBayes => self.rank_family_naive_bayes_total,
            Logistic => self.rank_family_logistic_total,
        }
    }
}

/// The core-layer metric handles (registered on first use).
pub fn metrics() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = Registry::global();
        CoreMetrics {
            rank_queries_total: r.counter(
                "qatk_core_rank_queries_total",
                "ranking queries served by the kNN kernel",
            ),
            rank_sample: Sampler::new(RANK_SAMPLE_PERIOD),
            classifier_skipped_total: r.counter(
                "qatk_core_classifier_skipped_total",
                "queries resolved by an early return (unknown part / empty features / no candidates)",
            ),
            rank_candidates: r.histogram(
                "qatk_core_rank_candidates",
                "candidate nodes touched per ranking query (sampled 1-in-16)",
            ),
            rank_pruned_total: r.counter(
                "qatk_core_rank_pruned_total",
                "ranking queries served by the LSH-pruned sealed path",
            ),
            lsh_candidates: r.histogram(
                "qatk_core_lsh_candidates",
                "candidate nodes surviving the LSH prefilter (sampled 1-in-16)",
            ),
            rank_latency_ns: r.histogram(
                "qatk_core_rank_latency_ns",
                "ranked-kNN query latency (ns, sampled 1-in-16)",
            ),
            batch_total: r.counter(
                "qatk_core_batch_total",
                "rank_batch fan-outs (every classifier family)",
            ),
            batch_size: r.histogram(
                "qatk_core_batch_size",
                "queries per rank_batch call",
            ),
            batch_workers: r.gauge(
                "qatk_core_batch_workers",
                "worker threads used by the most recent rank_batch",
            ),
            batch_worker_busy_ns: r.histogram(
                "qatk_core_batch_worker_busy_ns",
                "per-worker busy time inside rank_batch (ns)",
            ),
            batch_wall_ns: r.histogram(
                "qatk_core_batch_wall_ns",
                "rank_batch wall time (ns)",
            ),
            rank_family_knn_total: r.counter(
                "qatk_core_rank_family_knn_total",
                "ranking queries served by the knn classifier family",
            ),
            rank_family_centroid_total: r.counter(
                "qatk_core_rank_family_centroid_total",
                "ranking queries served by the centroid classifier family",
            ),
            rank_family_naive_bayes_total: r.counter(
                "qatk_core_rank_family_naive_bayes_total",
                "ranking queries served by the naive-bayes classifier family",
            ),
            rank_family_logistic_total: r.counter(
                "qatk_core_rank_family_logistic_total",
                "ranking queries served by the logistic classifier family",
            ),
        }
    })
}
