//! The classifier zoo: pluggable ranking families behind one trait.
//!
//! The paper evaluates a single family — ranked-list kNN (§4.3). JaTeCS
//! (arXiv:1706.06802) shows the value of a wide baseline zoo under one
//! evaluation harness, and the ROADMAP names this as a deliberate stress
//! test of the snapshot architecture: a new family must be addable without
//! touching the serving path. The contract:
//!
//! * [`ClassifierFamily`] names a family and round-trips through its label
//!   (persisted in the snapshot meta row, selected by `quest --classifier`);
//! * [`RankerConfig::train`] builds a trained, immutable [`RankerModel`]
//!   from a knowledge base — training happens at snapshot seal time, so a
//!   pinned snapshot always carries the model trained on its own KB and the
//!   epoch swap publishes both atomically;
//! * [`Classifier`] is the `&self` serving interface every family
//!   implements: rank one query, or a batch, against a knowledge base
//!   (with an optional sealed index for families that can use it). Batches
//!   with enough query features to pay for threads fan out across scoped
//!   worker threads in one place for every family; smaller ones rank on the
//!   caller's thread.
//!
//! All families share the paper's ranking conventions so the serving layer
//! is family-agnostic: scores sort descending with a code-text tie-break,
//! a *known* part whose query shares nothing with the part's training data
//! yields an empty ranking, and an *unknown* part falls back to the first
//! `top_nodes` knowledge nodes scored 0.0 (the paper's whole-KB fallback).

use std::collections::HashMap;

use crate::classifier::{BatchQuery, RankedKnn, ScoredCode};
use crate::features::FeatureSet;
use crate::knowledge::KnowledgeBase;
use crate::segment::SealedIndex;
use crate::similarity::SimilarityMeasure;

/// A classifier family the zoo can train and serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierFamily {
    /// Ranked-list kNN over the sealed posting-list kernel (the paper's model).
    Knn,
    /// Centroid/Rocchio: cosine against one mean vector per (part, code).
    Centroid,
    /// Multinomial naive Bayes with Laplace smoothing, per part.
    NaiveBayes,
    /// One-vs-rest logistic regression over part-local dense features.
    Logistic,
}

/// A classifier-family label that names no known family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFamilyError {
    pub label: String,
}

impl std::fmt::Display for ParseFamilyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown classifier family label `{}` (expected one of: knn, centroid, \
             naive-bayes, logistic)",
            self.label
        )
    }
}

impl std::error::Error for ParseFamilyError {}

impl ClassifierFamily {
    /// Every family, in zoo-report order.
    pub const ALL: [ClassifierFamily; 4] = [
        ClassifierFamily::Knn,
        ClassifierFamily::Centroid,
        ClassifierFamily::NaiveBayes,
        ClassifierFamily::Logistic,
    ];

    /// Stable label, round-tripping through [`ClassifierFamily::parse`].
    pub fn label(self) -> &'static str {
        match self {
            ClassifierFamily::Knn => "knn",
            ClassifierFamily::Centroid => "centroid",
            ClassifierFamily::NaiveBayes => "naive-bayes",
            ClassifierFamily::Logistic => "logistic",
        }
    }

    /// Inverse of [`ClassifierFamily::label`]; unknown labels are a
    /// structured error (used for persisted snapshot meta and the CLI).
    pub fn parse(label: &str) -> Result<Self, ParseFamilyError> {
        match label {
            "knn" => Ok(ClassifierFamily::Knn),
            "centroid" => Ok(ClassifierFamily::Centroid),
            "naive-bayes" => Ok(ClassifierFamily::NaiveBayes),
            "logistic" => Ok(ClassifierFamily::Logistic),
            _ => Err(ParseFamilyError {
                label: label.to_owned(),
            }),
        }
    }
}

/// How to train a ranker: the family plus the knobs shared across
/// families. Copied into every snapshot builder so copy-on-write epochs
/// retrain the same configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankerConfig {
    pub family: ClassifierFamily,
    /// Similarity measure — drives kNN scoring; the other families have
    /// fixed scoring rules (cosine / posterior / sigmoid) and ignore it.
    pub measure: SimilarityMeasure,
    /// Ranking depth: kNN's node cut-off, and every family's cap on emitted
    /// codes (paper: 25).
    pub top_nodes: usize,
}

impl Default for RankerConfig {
    fn default() -> Self {
        RankerConfig {
            family: ClassifierFamily::Knn,
            measure: SimilarityMeasure::Jaccard,
            top_nodes: 25,
        }
    }
}

impl RankerConfig {
    pub fn new(family: ClassifierFamily, measure: SimilarityMeasure) -> Self {
        RankerConfig {
            family,
            measure,
            ..Default::default()
        }
    }

    /// Train a ranker of this configuration over a knowledge base (the
    /// labeled feature sets of a `FrozenFeatureSpace` extraction). kNN is
    /// instance-based, so its "training" is free; the other families build
    /// per-part model state here. Deterministic: per-part training consumes
    /// nodes in knowledge-base insertion order only.
    pub fn train(&self, kb: &KnowledgeBase) -> RankerModel {
        match self.family {
            ClassifierFamily::Knn => RankerModel::Knn(RankedKnn {
                top_nodes: self.top_nodes,
                measure: self.measure,
            }),
            ClassifierFamily::Centroid => {
                RankerModel::Centroid(CentroidModel::train(kb, self.top_nodes))
            }
            ClassifierFamily::NaiveBayes => {
                RankerModel::NaiveBayes(NaiveBayesModel::train(kb, self.top_nodes))
            }
            ClassifierFamily::Logistic => {
                RankerModel::Logistic(LogisticModel::train(kb, self.top_nodes))
            }
        }
    }
}

/// The `&self` serving interface every classifier family implements.
/// Object-safe: the serving layer and the eval harness talk to
/// `&dyn Classifier` (or the [`RankerModel`] enum) and never name a family.
pub trait Classifier: Send + Sync {
    /// The family this classifier belongs to (labels, metrics).
    fn family(&self) -> ClassifierFamily;

    /// Rank error codes for one query. `index` is the sealed posting-list
    /// segment of the same knowledge base when the caller has one; kNN seals
    /// a throwaway one when it is absent, the other families ignore it —
    /// results never depend on whether it is passed.
    fn rank(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        part_id: &str,
        features: &FeatureSet,
    ) -> Vec<ScoredCode>;

    /// Rank a batch of queries; output order matches query order and every
    /// ranking equals a sequential [`Classifier::rank`] call.
    fn rank_batch(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        queries: &[BatchQuery<'_>],
    ) -> Vec<Vec<ScoredCode>>;
}

/// A trained ranker: enum dispatch over the zoo families. This is what a
/// `KnowledgeSnapshot` carries — adding a family here (plus its training
/// arm) is the *entire* integration surface; `crates/serve` and the HTTP
/// handlers are family-agnostic by construction.
#[derive(Debug, Clone)]
pub enum RankerModel {
    Knn(RankedKnn),
    Centroid(CentroidModel),
    NaiveBayes(NaiveBayesModel),
    Logistic(LogisticModel),
}

impl Classifier for RankerModel {
    fn family(&self) -> ClassifierFamily {
        match self {
            RankerModel::Knn(_) => ClassifierFamily::Knn,
            RankerModel::Centroid(_) => ClassifierFamily::Centroid,
            RankerModel::NaiveBayes(_) => ClassifierFamily::NaiveBayes,
            RankerModel::Logistic(_) => ClassifierFamily::Logistic,
        }
    }

    fn rank(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        part_id: &str,
        features: &FeatureSet,
    ) -> Vec<ScoredCode> {
        let m = crate::metrics::metrics();
        m.rank_family_total(self.family()).inc();
        // No-op outside a traced request, so the bare kernel benches pay
        // one flag check + one thread-local probe.
        let _span = qatk_trace::child_span("core.rank");
        qatk_trace::annotate("family", self.family().label());
        qatk_trace::annotate("features", features.len() as u64);
        self.rank_one(kb, index, part_id, features)
    }

    fn rank_batch(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        queries: &[BatchQuery<'_>],
    ) -> Vec<Vec<ScoredCode>> {
        let m = crate::metrics::metrics();
        m.rank_family_total(self.family()).add(queries.len() as u64);
        let _span = qatk_trace::child_span("core.rank_batch");
        qatk_trace::annotate("queries", queries.len() as u64);
        // kNN without a caller index seals once per batch, not per query
        let sealed = match (self, index) {
            (RankerModel::Knn(_), None) => Some(SealedIndex::build(kb)),
            _ => None,
        };
        let features = queries.iter().map(|q| q.features.len()).sum();
        let threads = batch_workers(features, || {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        });
        self.fan_out(kb, index.or(sealed.as_ref()), queries, threads)
    }
}

/// Query features a batch needs before it fans out across threads. Below
/// this, ranking the whole batch costs about what starting and joining
/// workers does, so it runs on the caller's thread: ranking takes 4–9 µs
/// per query feature in every feature model, and on a 2-vCPU VM two
/// workers cost 150–200 µs, so a 4-text bag-of-concepts batch (4–14
/// features) ranked in ~40 µs inline and ~200 µs fanned out. Features, not
/// queries, set the rule because query sizes differ 100× between models:
/// a bag-of-concepts query has 2–4 features, a char-n-gram query 360–500.
const MIN_FANOUT_FEATURES: usize = 32;

/// Workers for a batch of `features` query features in total: one below
/// [`MIN_FANOUT_FEATURES`], otherwise `cores()`, which is only read for a
/// batch that fans out.
fn batch_workers(features: usize, cores: impl FnOnce() -> usize) -> usize {
    if features < MIN_FANOUT_FEATURES {
        1
    } else {
        cores()
    }
}

impl RankerModel {
    /// [`Classifier::rank`] without the per-family metrics bump and span —
    /// batch workers attribute the whole batch once.
    fn rank_one(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        part_id: &str,
        features: &FeatureSet,
    ) -> Vec<ScoredCode> {
        match self {
            RankerModel::Knn(knn) => match index {
                Some(idx) => knn.rank(idx, kb, part_id, features),
                None => knn.rank(&SealedIndex::build(kb), kb, part_id, features),
            },
            RankerModel::Centroid(model) => model.rank(kb, part_id, features),
            RankerModel::NaiveBayes(model) => model.rank(kb, part_id, features),
            RankerModel::Logistic(model) => model.rank(kb, part_id, features),
        }
    }

    /// Rank a batch across at most `threads` scoped workers, each owning a
    /// contiguous chunk of the queries, against the shared read-only
    /// knowledge base. Output order matches query order and every ranking
    /// equals a sequential [`RankerModel::rank_one`] call, whatever the
    /// thread count. Records the `qatk_core_batch_*` fan-out metrics.
    fn fan_out(
        &self,
        kb: &KnowledgeBase,
        index: Option<&SealedIndex>,
        queries: &[BatchQuery<'_>],
        threads: usize,
    ) -> Vec<Vec<ScoredCode>> {
        let m = crate::metrics::metrics();
        let _wall = qatk_obs::Timer::start(m.batch_wall_ns);
        m.batch_total.inc();
        m.batch_size.record(queries.len() as u64);
        let work = |qchunk: &[BatchQuery<'_>], ochunk: &mut [Vec<ScoredCode>]| {
            let _busy = qatk_obs::Timer::start(m.batch_worker_busy_ns);
            for (q, slot) in qchunk.iter().zip(ochunk) {
                *slot = self.rank_one(kb, index, q.part_id, q.features);
            }
        };
        let mut out: Vec<Vec<ScoredCode>> = Vec::new();
        out.resize_with(queries.len(), Vec::new);
        let threads = threads.clamp(1, queries.len().max(1));
        if threads == 1 {
            m.batch_workers.set(1);
            work(queries, &mut out);
            return out;
        }
        let chunk = queries.len().div_ceil(threads);
        m.batch_workers.set(queries.len().div_ceil(chunk) as i64);
        let work = &work;
        std::thread::scope(|s| {
            for (qchunk, ochunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || work(qchunk, ochunk));
            }
        });
        out
    }
}

/// The paper's unknown-part fallback, shared by every family: "select the
/// entire knowledge base" — with all scores 0 the node order is simply the
/// first `top_nodes` nodes, deduplicated to codes. Matches
/// [`RankedKnn::rank`]'s fallback exactly so families agree on cold parts.
fn unknown_part_fallback(kb: &KnowledgeBase, top_nodes: usize) -> Vec<ScoredCode> {
    let mut out: Vec<ScoredCode> = Vec::new();
    for node in kb.nodes().iter().take(top_nodes) {
        if !out.iter().any(|s| s.code == node.error_code) {
            out.push(ScoredCode {
                code: node.error_code.clone(),
                score: 0.0,
            });
        }
    }
    out.sort_by(|a, b| a.code.cmp(&b.code));
    out
}

/// Sort per-class scores into the shared ranking order (score desc, code
/// asc), cap at `top_nodes`.
fn finish_ranking(mut scored: Vec<ScoredCode>, top_nodes: usize) -> Vec<ScoredCode> {
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.code.cmp(&b.code)));
    scored.truncate(top_nodes);
    scored
}

/// One class's training rows within a part: code plus its node indexes, in
/// knowledge-base insertion order. Shared grouping step for the trained
/// families; classes come out sorted by code so training is deterministic.
fn classes_of_part(kb: &KnowledgeBase, part: &str) -> Vec<(String, Vec<usize>)> {
    let mut classes: Vec<(String, Vec<usize>)> = Vec::new();
    for &n in kb.nodes_for_part(part) {
        let code = &kb.nodes()[n].error_code;
        match classes.iter_mut().find(|(c, _)| c == code) {
            Some((_, nodes)) => nodes.push(n),
            None => classes.push((code.clone(), vec![n])),
        }
    }
    classes.sort_by(|a, b| a.0.cmp(&b.0));
    classes
}

// ---------------------------------------------------------------------------
// Centroid / Rocchio
// ---------------------------------------------------------------------------

/// One (part, code) centroid: the mean of the class's binary feature
/// vectors, kept sparse as parallel (sorted ids, weights) arrays.
#[derive(Debug, Clone)]
struct Centroid {
    code: String,
    ids: Vec<u32>,
    weights: Vec<f64>,
    /// L2 norm of the weight vector (cosine denominator).
    norm: f64,
}

/// Centroid/Rocchio classifier: cosine similarity between the query's
/// binary feature vector and each class centroid of the query's part.
#[derive(Debug, Clone)]
pub struct CentroidModel {
    parts: HashMap<String, Vec<Centroid>>,
    top_nodes: usize,
}

impl CentroidModel {
    fn train(kb: &KnowledgeBase, top_nodes: usize) -> Self {
        let mut parts = HashMap::new();
        for part in kb.parts() {
            let mut centroids = Vec::new();
            for (code, nodes) in classes_of_part(kb, part) {
                // accumulate per-feature document counts via merge into a map
                let mut counts: HashMap<u32, u32> = HashMap::new();
                for &n in &nodes {
                    for f in kb.nodes()[n].features.iter() {
                        *counts.entry(f).or_insert(0) += 1;
                    }
                }
                let n_docs = nodes.len() as f64;
                let mut ids: Vec<u32> = counts.keys().copied().collect();
                ids.sort_unstable();
                let weights: Vec<f64> = ids.iter().map(|f| counts[f] as f64 / n_docs).collect();
                let norm = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
                centroids.push(Centroid {
                    code,
                    ids,
                    weights,
                    norm,
                });
            }
            parts.insert(part.to_owned(), centroids);
        }
        CentroidModel { parts, top_nodes }
    }

    fn rank(&self, kb: &KnowledgeBase, part_id: &str, features: &FeatureSet) -> Vec<ScoredCode> {
        let Some(centroids) = self.parts.get(part_id) else {
            return unknown_part_fallback(kb, self.top_nodes);
        };
        let q_norm = (features.len() as f64).sqrt();
        let mut scored = Vec::new();
        for c in centroids {
            // dot product by merge scan over the sorted id arrays
            let (mut i, mut j, mut dot) = (0usize, 0usize, 0.0f64);
            let q = features.ids();
            while i < q.len() && j < c.ids.len() {
                match q[i].cmp(&c.ids[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        dot += c.weights[j];
                        i += 1;
                        j += 1;
                    }
                }
            }
            if dot > 0.0 && c.norm > 0.0 && q_norm > 0.0 {
                scored.push(ScoredCode {
                    code: c.code.clone(),
                    score: dot / (q_norm * c.norm),
                });
            }
        }
        // zero overlap with every class of a known part → empty, like kNN
        finish_ranking(scored, self.top_nodes)
    }
}

// ---------------------------------------------------------------------------
// Multinomial naive Bayes
// ---------------------------------------------------------------------------

/// One part's naive-Bayes state.
#[derive(Debug, Clone)]
struct NbPart {
    /// Sorted distinct features seen in the part's training data; features
    /// outside this vocabulary are dropped from queries (they carry no
    /// class evidence, exactly the frozen-space unknown-token rule).
    vocab: Vec<u32>,
    classes: Vec<NbClass>,
}

#[derive(Debug, Clone)]
struct NbClass {
    code: String,
    prior_ln: f64,
    /// (feature, occurrence count) sorted by feature — parallel to nothing,
    /// binary-searched at query time.
    counts: Vec<(u32, u32)>,
    /// Total feature occurrences in the class.
    total: u64,
}

/// Multinomial naive Bayes with Laplace smoothing, one model per part
/// (classes are the part's codes). Scores are softmax posteriors, so they
/// land in [0, 1] like every other family's.
#[derive(Debug, Clone)]
pub struct NaiveBayesModel {
    parts: HashMap<String, NbPart>,
    top_nodes: usize,
}

impl NaiveBayesModel {
    fn train(kb: &KnowledgeBase, top_nodes: usize) -> Self {
        let mut parts = HashMap::new();
        for part in kb.parts() {
            let part_nodes = kb.nodes_for_part(part);
            let n_part = part_nodes.len() as f64;
            let mut vocab: Vec<u32> = part_nodes
                .iter()
                .flat_map(|&n| kb.nodes()[n].features.iter())
                .collect();
            vocab.sort_unstable();
            vocab.dedup();
            let mut classes = Vec::new();
            for (code, nodes) in classes_of_part(kb, part) {
                let mut counts: HashMap<u32, u32> = HashMap::new();
                let mut total = 0u64;
                for &n in &nodes {
                    for f in kb.nodes()[n].features.iter() {
                        *counts.entry(f).or_insert(0) += 1;
                        total += 1;
                    }
                }
                let mut counts: Vec<(u32, u32)> = counts.into_iter().collect();
                counts.sort_unstable();
                classes.push(NbClass {
                    code,
                    prior_ln: (nodes.len() as f64 / n_part).ln(),
                    counts,
                    total,
                });
            }
            parts.insert(part.to_owned(), NbPart { vocab, classes });
        }
        NaiveBayesModel { parts, top_nodes }
    }

    fn rank(&self, kb: &KnowledgeBase, part_id: &str, features: &FeatureSet) -> Vec<ScoredCode> {
        let Some(part) = self.parts.get(part_id) else {
            return unknown_part_fallback(kb, self.top_nodes);
        };
        // restrict the query to the part's vocabulary
        let known: Vec<u32> = features
            .iter()
            .filter(|f| part.vocab.binary_search(f).is_ok())
            .collect();
        if known.is_empty() {
            // no shared evidence with a known part → empty, like kNN
            return Vec::new();
        }
        let v = part.vocab.len() as f64;
        let log_scores: Vec<f64> = part
            .classes
            .iter()
            .map(|c| {
                let denom = (c.total as f64 + v).ln();
                known
                    .iter()
                    .map(|f| {
                        let count = c
                            .counts
                            .binary_search_by_key(f, |&(ft, _)| ft)
                            .map(|i| c.counts[i].1)
                            .unwrap_or(0);
                        ((count + 1) as f64).ln() - denom
                    })
                    .sum::<f64>()
                    + c.prior_ln
            })
            .collect();
        // softmax with max-subtraction: posteriors in [0, 1], stable
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exp: Vec<f64> = log_scores.iter().map(|s| (s - max).exp()).collect();
        let z: f64 = exp.iter().sum();
        let scored = part
            .classes
            .iter()
            .zip(&exp)
            .map(|(c, e)| ScoredCode {
                code: c.code.clone(),
                score: e / z,
            })
            .collect();
        finish_ranking(scored, self.top_nodes)
    }
}

// ---------------------------------------------------------------------------
// One-vs-rest logistic regression
// ---------------------------------------------------------------------------

const LR_EPOCHS: usize = 20;
const LR_RATE: f64 = 0.5;
const LR_L2: f64 = 1e-3;

/// One part's one-vs-rest logistic state: a part-local dense feature index
/// plus one weight vector (and bias) per code.
#[derive(Debug, Clone)]
struct LrPart {
    /// Sorted distinct features of the part; position = dense column.
    vocab: Vec<u32>,
    classes: Vec<LrClass>,
}

#[derive(Debug, Clone)]
struct LrClass {
    code: String,
    weights: Vec<f64>,
    bias: f64,
}

/// One-vs-rest logistic regression over binary part-local features,
/// trained by deterministic full-batch-order SGD with L2 regularization.
/// Scores are per-class sigmoids.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    parts: HashMap<String, LrPart>,
    top_nodes: usize,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl LogisticModel {
    fn train(kb: &KnowledgeBase, top_nodes: usize) -> Self {
        let mut parts = HashMap::new();
        for part in kb.parts() {
            let part_nodes = kb.nodes_for_part(part);
            let mut vocab: Vec<u32> = part_nodes
                .iter()
                .flat_map(|&n| kb.nodes()[n].features.iter())
                .collect();
            vocab.sort_unstable();
            vocab.dedup();
            // densify each training document once
            let docs: Vec<(Vec<usize>, &str)> = part_nodes
                .iter()
                .map(|&n| {
                    let node = &kb.nodes()[n];
                    let cols = node
                        .features
                        .iter()
                        .map(|f| vocab.binary_search(&f).expect("feature in part vocab"))
                        .collect();
                    (cols, node.error_code.as_str())
                })
                .collect();
            let mut classes = Vec::new();
            for (code, _) in classes_of_part(kb, part) {
                let mut weights = vec![0.0f64; vocab.len()];
                let mut bias = 0.0f64;
                // deterministic SGD: fixed doc order, fixed epoch count —
                // no RNG, so retraining a snapshot reproduces the model
                for _ in 0..LR_EPOCHS {
                    for (cols, doc_code) in &docs {
                        let y = if *doc_code == code { 1.0 } else { 0.0 };
                        let z: f64 = bias + cols.iter().map(|&c| weights[c]).sum::<f64>();
                        let err = sigmoid(z) - y;
                        for &c in cols {
                            weights[c] -= LR_RATE * (err + LR_L2 * weights[c]);
                        }
                        bias -= LR_RATE * err;
                    }
                }
                classes.push(LrClass {
                    code,
                    weights,
                    bias,
                });
            }
            parts.insert(part.to_owned(), LrPart { vocab, classes });
        }
        LogisticModel { parts, top_nodes }
    }

    fn rank(&self, kb: &KnowledgeBase, part_id: &str, features: &FeatureSet) -> Vec<ScoredCode> {
        let Some(part) = self.parts.get(part_id) else {
            return unknown_part_fallback(kb, self.top_nodes);
        };
        let cols: Vec<usize> = features
            .iter()
            .filter_map(|f| part.vocab.binary_search(&f).ok())
            .collect();
        if cols.is_empty() {
            return Vec::new();
        }
        let scored = part
            .classes
            .iter()
            .map(|c| ScoredCode {
                code: c.code.clone(),
                score: sigmoid(c.bias + cols.iter().map(|&i| c.weights[i]).sum::<f64>()),
            })
            .collect();
        finish_ranking(scored, self.top_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(ids: &[u32]) -> FeatureSet {
        FeatureSet::from_unsorted(ids.to_vec())
    }

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "E100", fs(&[1, 2, 3]));
        kb.insert("P-01", "E100", fs(&[1, 2, 4]));
        kb.insert("P-01", "E200", fs(&[7, 8, 9]));
        kb.insert("P-01", "E200", fs(&[7, 8, 10]));
        kb.insert("P-02", "E900", fs(&[1, 2, 3]));
        kb
    }

    fn train(family: ClassifierFamily) -> RankerModel {
        RankerConfig::new(family, SimilarityMeasure::Jaccard).train(&kb())
    }

    #[test]
    fn family_labels_round_trip() {
        for family in ClassifierFamily::ALL {
            assert_eq!(ClassifierFamily::parse(family.label()), Ok(family));
        }
        let err = ClassifierFamily::parse("svm").unwrap_err();
        assert_eq!(err.label, "svm");
        assert!(err.to_string().contains("svm"));
    }

    #[test]
    fn every_family_recovers_its_training_class() {
        let kb = kb();
        for family in ClassifierFamily::ALL {
            let model = train(family);
            assert_eq!(model.family(), family);
            let ranked = model.rank(&kb, None, "P-01", &fs(&[1, 2, 3]));
            assert_eq!(
                ranked.first().map(|s| s.code.as_str()),
                Some("E100"),
                "{family:?} missed its own training data"
            );
            let ranked = model.rank(&kb, None, "P-01", &fs(&[7, 8, 9]));
            assert_eq!(
                ranked.first().map(|s| s.code.as_str()),
                Some("E200"),
                "{family:?} missed its own training data"
            );
        }
    }

    #[test]
    fn shared_ranking_conventions() {
        let kb = kb();
        for family in ClassifierFamily::ALL {
            let model = train(family);
            // known part, zero overlap → empty
            assert!(
                model.rank(&kb, None, "P-01", &fs(&[777])).is_empty(),
                "{family:?} invented candidates"
            );
            // empty features on a known part → empty
            assert!(model
                .rank(&kb, None, "P-01", &FeatureSet::default())
                .is_empty());
            // unknown part → whole-KB fallback, scored 0, identical across
            // families (it is the shared helper and the paper's rule)
            let fallback = model.rank(&kb, None, "P-??", &fs(&[777]));
            assert!(!fallback.is_empty(), "{family:?} dropped the fallback");
            assert!(fallback.iter().all(|s| s.score == 0.0));
            // part isolation
            let ranked = model.rank(&kb, None, "P-01", &fs(&[1, 2, 3]));
            assert!(ranked.iter().all(|s| s.code != "E900"), "{family:?}");
            // scores sorted descending, bounded
            for w in ranked.windows(2) {
                assert!(w[0].score >= w[1].score, "{family:?} unsorted");
            }
            assert!(ranked.iter().all(|s| (0.0..=1.0).contains(&s.score)));
        }
    }

    #[test]
    fn fallback_matches_knn_fallback() {
        let kb = kb();
        let knn = RankedKnn::default();
        assert_eq!(
            unknown_part_fallback(&kb, 25),
            knn.rank(&SealedIndex::build(&kb), &kb, "P-??", &fs(&[777]))
        );
    }

    #[test]
    fn rank_batch_matches_sequential_rank() {
        let kb = kb();
        let idx = SealedIndex::build(&kb);
        let queries_owned = [
            ("P-01", fs(&[1, 2, 3])),
            ("P-01", fs(&[7, 8])),
            ("P-02", fs(&[1, 2])),
            ("P-??", fs(&[777])),
            ("P-01", fs(&[])),
        ];
        let queries: Vec<BatchQuery<'_>> = queries_owned
            .iter()
            .map(|(p, f)| BatchQuery {
                part_id: p,
                features: f,
            })
            .collect();
        for family in ClassifierFamily::ALL {
            let model = train(family);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| model.rank(&kb, Some(&idx), q.part_id, q.features))
                .collect();
            assert_eq!(
                model.rank_batch(&kb, Some(&idx), &queries),
                expected,
                "{family:?} batch/sequential divergence"
            );
            // and independent of whether a sealed index is supplied
            assert_eq!(
                model.rank_batch(&kb, None, &queries),
                expected,
                "{family:?}"
            );
        }
    }

    #[test]
    fn fan_out_is_independent_of_thread_count() {
        let kb = kb();
        let idx = SealedIndex::build(&kb);
        let queries_owned = [
            ("P-01", fs(&[1, 2, 3])),
            ("P-01", fs(&[2, 3])),
            ("P-02", fs(&[1, 2, 3])),
            ("P-??", fs(&[777])),
            ("P-01", fs(&[])),
        ];
        let queries: Vec<BatchQuery<'_>> = queries_owned
            .iter()
            .map(|(p, f)| BatchQuery {
                part_id: p,
                features: f,
            })
            .collect();
        for family in ClassifierFamily::ALL {
            let model = train(family);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| model.rank_one(&kb, Some(&idx), q.part_id, q.features))
                .collect();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    model.fan_out(&kb, Some(&idx), &queries, threads),
                    expected,
                    "{family:?} diverges at {threads} threads"
                );
            }
            assert!(model.fan_out(&kb, Some(&idx), &[], 4).is_empty());
        }
    }

    #[test]
    fn small_batches_rank_inline_and_large_ones_fan_out() {
        let no_cores = || -> usize { panic!("an inline batch reads no core count") };
        // 4 bag-of-concepts texts of 1–6 concepts each
        assert_eq!(batch_workers(4, no_cores), 1);
        assert_eq!(batch_workers(14, no_cores), 1);
        assert_eq!(batch_workers(MIN_FANOUT_FEATURES - 1, no_cores), 1);
        for cores in [1, 2, 4, 16, 64] {
            // every batch that fans out gets one worker per core
            assert_eq!(batch_workers(MIN_FANOUT_FEATURES, || cores), cores);
            // 120 bag-of-concepts queries
            assert_eq!(batch_workers(120 * 4, || cores), cores);
            // 4 char-n-gram texts of 360–500 features each
            assert_eq!(batch_workers(4 * 360, || cores), cores);
            // an eval fold
            assert_eq!(batch_workers(1_500 * 450, || cores), cores);
        }
    }

    #[test]
    fn knn_ranker_is_the_existing_kernel() {
        let kb = kb();
        let idx = SealedIndex::build(&kb);
        let model = train(ClassifierFamily::Knn);
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        for (part, q) in [
            ("P-01", fs(&[1, 2, 3])),
            ("P-??", fs(&[9])),
            ("P-02", fs(&[1])),
        ] {
            let expected = knn.rank(&idx, &kb, part, &q);
            assert_eq!(model.rank(&kb, Some(&idx), part, &q), expected);
            assert_eq!(model.rank(&kb, None, part, &q), expected);
        }
    }

    #[test]
    fn classifier_is_object_safe_and_usable_as_trait_object() {
        let kb = kb();
        let models: Vec<Box<dyn Classifier>> = ClassifierFamily::ALL
            .iter()
            .map(|&f| Box::new(train(f)) as Box<dyn Classifier>)
            .collect();
        for model in &models {
            let ranked = model.rank(&kb, None, "P-01", &fs(&[1, 2, 3]));
            assert!(!ranked.is_empty());
        }
    }

    #[test]
    fn family_counters_attribute_traffic() {
        let m = crate::metrics::metrics();
        let kb = kb();
        let model = train(ClassifierFamily::Centroid);
        let before = m.rank_family_centroid_total.get();
        let batches_before = m.batch_total.get();
        model.rank(&kb, None, "P-01", &fs(&[1, 2]));
        let q = [BatchQuery {
            part_id: "P-01",
            features: &fs(&[1, 2]),
        }];
        model.rank_batch(&kb, None, &q);
        // other parallel tests may bump the counters too, so assert with ≥
        assert!(m.rank_family_centroid_total.get() >= before + 2);
        // a non-kNN batch reports its fan-out like a kNN batch does
        assert!(m.batch_total.get() > batches_before);
    }
}
