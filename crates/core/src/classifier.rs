//! The ranked-list kNN classifier.
//!
//! Paper §4.3: instead of majority vote, "we output a list of all potential
//! error keys ranked by the distance of the knowledge base instances to the
//! data bundle, then cut off the list at k for initial presentation ... We
//! retrieve the error codes of the 25 best-scored candidate nodes. For each
//! of these error codes, we assign an error code with associated score."
//! This sidesteps standard kNN's sensitivity to local data structures
//! (Fig. 6) because no single k decides the answer.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::features::FeatureSet;
use crate::knowledge::KnowledgeBase;
use crate::segment::{ScoreScratch, SealedIndex};
use crate::similarity::SimilarityMeasure;

/// One recommendation: an error code with its best similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCode {
    pub code: String,
    pub score: f64,
}

/// One query of a [`crate::zoo::Classifier::rank_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    pub part_id: &'a str,
    pub features: &'a FeatureSet,
}

/// Entry of the bounded top-k heap: a scored node. Total order = "goodness"
/// under the ranking's sort key (score descending, node index ascending on
/// ties), so `a > b` ⇔ a full sort would place `a` first.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    idx: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Ranked-list kNN over a knowledge base.
#[derive(Debug, Clone, Copy)]
pub struct RankedKnn {
    /// How many best-scored *nodes* contribute codes (paper: 25).
    pub top_nodes: usize,
    pub measure: SimilarityMeasure,
}

impl Default for RankedKnn {
    fn default() -> Self {
        RankedKnn {
            top_nodes: 25,
            measure: SimilarityMeasure::Jaccard,
        }
    }
}

impl RankedKnn {
    pub fn new(measure: SimilarityMeasure) -> Self {
        RankedKnn {
            top_nodes: 25,
            measure,
        }
    }

    /// Produce the ranked error-code list for one data bundle.
    ///
    /// Steps (paper Fig. 5 + §4.3): candidate selection → pairwise scoring →
    /// take the 25 best nodes → emit their codes, deduplicated (best score
    /// wins), in descending score order. Ties break on code text so results
    /// are deterministic.
    ///
    /// Implementation: the posting-list score-accumulation kernel — one walk
    /// of the sealed index's compressed postings accumulates |A ∩ B| per
    /// candidate node, scores come from the counts
    /// ([`SimilarityMeasure::score_from_counts`]), and a bounded binary heap
    /// selects the `top_nodes` best without sorting all candidates. The
    /// `ranking_equivalence` differential suite holds it to a scan-based
    /// oracle. `idx` must be sealed from `kb`, which supplies the strings
    /// (part lookup, code emission). Scratch state lives in a thread-local,
    /// so `rank` is `&self`, allocation-free after each thread's first
    /// query, and safe to call from any number of threads.
    pub fn rank(
        &self,
        idx: &SealedIndex,
        kb: &KnowledgeBase,
        part_id: &str,
        features: &FeatureSet,
    ) -> Vec<ScoredCode> {
        let m = crate::metrics::metrics();
        m.rank_queries_total.inc();
        // per-query clock reads would dominate the ~µs kernel, so latency
        // and candidate-count distributions are sampled (counters stay exact)
        let sampled = m.rank_sample.hit();
        let _span = sampled.then(|| qatk_obs::Timer::start(m.rank_latency_ns));
        let top = with_scratch(|scratch| {
            idx.accumulate_into(kb.part_index(part_id), features, scratch);
            if sampled {
                m.rank_candidates.record(scratch.touched().len() as u64);
            }
            if !scratch.touched().is_empty() {
                let a_len = features.len();
                return self.top_k(scratch.touched().iter().map(|&n| HeapEntry {
                    score: self.measure.score_from_counts(
                        scratch.count(n) as usize,
                        a_len,
                        idx.node_len(n),
                    ),
                    idx: n,
                }));
            }
            m.classifier_skipped_total.inc();
            if kb.has_part(part_id) {
                // known part, no shared feature → no candidates at all
                Vec::new()
            } else {
                // unknown part with zero overlap anywhere: the paper's
                // fallback selects the entire knowledge base; every score is
                // 0, so the (score desc, index asc) order is simply the
                // first `top_nodes` nodes
                (0..kb.len().min(self.top_nodes))
                    .map(|i| (0.0f64, i))
                    .collect()
            }
        });
        Self::emit_codes(kb, top)
    }

    /// The LSH-pruned ranking path: instead of walking every posting list of
    /// every query feature, ask the sealed segment's minhash/LSH prefilter
    /// for candidate nodes and score only those — exactly (each candidate's
    /// true |A ∩ B| via a feature-set merge), so a candidate's score and
    /// tie-break are identical to the exact path's. The approximation is
    /// purely in *which* nodes are considered: a true neighbour the LSH
    /// misses cannot be ranked. `tests/lsh_recall.rs` holds this path to
    /// ≥ 95 % top-25 recall against [`RankedKnn::rank`] as the differential
    /// oracle.
    ///
    /// Unknown parts and empty feature sets delegate to the exact path: the
    /// paper's whole-knowledge-base fallback has nothing to prune, and the
    /// exact kernel is already cheap in those cases.
    pub fn rank_pruned(
        &self,
        idx: &SealedIndex,
        kb: &KnowledgeBase,
        part_id: &str,
        features: &FeatureSet,
    ) -> Vec<ScoredCode> {
        let Some(part) = kb.part_index(part_id) else {
            return self.rank(idx, kb, part_id, features);
        };
        if features.is_empty() {
            return self.rank(idx, kb, part_id, features);
        }
        let m = crate::metrics::metrics();
        m.rank_queries_total.inc();
        m.rank_pruned_total.inc();
        let sampled = m.rank_sample.hit();
        let _span = sampled.then(|| qatk_obs::Timer::start(m.rank_latency_ns));
        let top = with_scratch(|scratch| {
            idx.lsh_candidates_into(Some(part), features, scratch);
            if sampled {
                m.lsh_candidates.record(scratch.touched().len() as u64);
            }
            if scratch.touched().is_empty() {
                m.classifier_skipped_total.inc();
            }
            // exact re-scoring of the pruned candidates — scratch counts are
            // band collisions here, NOT intersections, so the true |A ∩ B|
            // comes from a feature-set merge per candidate
            self.top_k(scratch.touched().iter().filter_map(|&n| {
                let node = &kb.nodes()[n as usize].features;
                let inter = features.intersection_size(node);
                // an LSH false positive with zero overlap could never be a
                // candidate on the exact path; keep the score sets aligned
                (inter > 0).then(|| HeapEntry {
                    score: self
                        .measure
                        .score_from_counts(inter, features.len(), node.len()),
                    idx: n,
                })
            }))
        });
        Self::emit_codes(kb, top)
    }

    /// Bounded-heap top-k: keeps the `top_nodes` best scored nodes (score
    /// desc, node index asc) without sorting all candidates, and returns
    /// them in that order.
    fn top_k(&self, scored: impl Iterator<Item = HeapEntry>) -> Vec<(f64, usize)> {
        let k = self.top_nodes;
        if k == 0 {
            return Vec::new();
        }
        // min-heap of the k best so far: the root is the worst kept entry
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(k + 1);
        for entry in scored {
            if heap.len() < k {
                heap.push(Reverse(entry));
            } else if entry > heap.peek().expect("heap non-empty").0 {
                heap.pop();
                heap.push(Reverse(entry));
            }
        }
        let mut top: Vec<(f64, usize)> = heap
            .into_iter()
            .map(|Reverse(e)| (e.score, e.idx as usize))
            .collect();
        top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        top
    }

    /// Shared ranking tail: map scored nodes (already in score-desc,
    /// index-asc order) to codes, deduplicate keeping the best score per
    /// code, and order the final list (score desc, code-text tie-break).
    fn emit_codes(kb: &KnowledgeBase, scored: Vec<(f64, usize)>) -> Vec<ScoredCode> {
        let mut out: Vec<ScoredCode> = Vec::with_capacity(scored.len());
        for (score, idx) in scored {
            let code = &kb.nodes()[idx].error_code;
            match out.iter_mut().find(|s| &s.code == code) {
                Some(existing) => {
                    if score > existing.score {
                        existing.score = score;
                    }
                }
                None => out.push(ScoredCode {
                    code: code.clone(),
                    score,
                }),
            }
        }
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.code.cmp(&b.code)));
        out
    }

    /// Rank position (0-based) of the true code in the recommendation list,
    /// if present.
    pub fn rank_of(&self, ranked: &[ScoredCode], truth: &str) -> Option<usize> {
        ranked.iter().position(|s| s.code == truth)
    }
}

/// Run `f` on this thread's score scratch — one per thread, shared by both
/// [`RankedKnn`] ranking paths (neither re-enters the other while holding it).
fn with_scratch<R>(f: impl FnOnce(&mut ScoreScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<ScoreScratch> = RefCell::default();
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The *standard* unweighted instance-based kNN of paper Fig. 6 — majority
/// vote among the k nearest knowledge nodes. The paper implements the
/// ranked-list variant instead because majority vote "becomes evident in
/// Fig. 6 — the sensitivity to local data structures. For k = 6, the class
/// assigned by majority vote is different from that for k = 15." This
/// implementation exists to make that comparison executable (see the
/// `ablations` harness).
#[derive(Debug, Clone, Copy)]
pub struct MajorityVoteKnn {
    /// Number of nearest neighbours that vote.
    pub k: usize,
    pub measure: SimilarityMeasure,
    /// Weight votes by similarity ("this majority vote can also be weighted
    /// by the individual nearness of neighbors").
    pub weighted: bool,
}

impl MajorityVoteKnn {
    pub fn new(k: usize, measure: SimilarityMeasure) -> Self {
        MajorityVoteKnn {
            k,
            measure,
            weighted: false,
        }
    }

    /// Classify one bundle: the single winning error code, or `None` when
    /// there are no candidates at all.
    pub fn classify(
        &self,
        kb: &KnowledgeBase,
        part_id: &str,
        features: &FeatureSet,
    ) -> Option<String> {
        let m = crate::metrics::metrics();
        m.rank_queries_total.inc();
        let sampled = m.rank_sample.hit();
        let _span = sampled.then(|| qatk_obs::Timer::start(m.rank_latency_ns));
        let candidates = kb.candidates(part_id, features);
        if sampled {
            m.rank_candidates.record(candidates.len() as u64);
        }
        if candidates.is_empty() {
            // empty feature set / no shared feature: the vote never happens
            m.classifier_skipped_total.inc();
            return None;
        }
        let mut scored: Vec<(f64, usize)> = candidates
            .into_iter()
            .map(|i| (self.measure.score(features, &kb.nodes()[i].features), i))
            .collect();
        // Descending score with *code-text* tie-break (then index for full
        // determinism). Breaking boundary ties on the node index alone made
        // the k-truncation — and therefore the vote, and the winner — depend
        // on knowledge-base insertion order; with the code in the key, two
        // KBs holding the same configurations always elect the same code.
        scored.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| kb.nodes()[a.1].error_code.cmp(&kb.nodes()[b.1].error_code))
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(self.k);

        let mut votes: Vec<(String, f64)> = Vec::new();
        for (score, idx) in scored {
            let code = &kb.nodes()[idx].error_code;
            let weight = if self.weighted { score } else { 1.0 };
            match votes.iter_mut().find(|(c, _)| c == code) {
                Some((_, w)) => *w += weight,
                None => votes.push((code.clone(), weight)),
            }
        }
        // highest vote weight wins; equal weights break on code text
        votes
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(code, _)| code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(ids: &[u32]) -> FeatureSet {
        FeatureSet::from_unsorted(ids.to_vec())
    }

    /// Exact ranking over a freshly sealed index of `kb`.
    fn rank(knn: &RankedKnn, kb: &KnowledgeBase, part_id: &str, q: &FeatureSet) -> Vec<ScoredCode> {
        knn.rank(&SealedIndex::build(kb), kb, part_id, q)
    }

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "E100", fs(&[1, 2, 3]));
        kb.insert("P-01", "E200", fs(&[1, 2, 3, 4, 5, 6]));
        kb.insert("P-01", "E300", fs(&[7, 8]));
        kb.insert("P-01", "E100", fs(&[2, 3]));
        kb.insert("P-02", "E900", fs(&[1, 2, 3]));
        kb
    }

    #[test]
    fn ranks_by_similarity() {
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb(), "P-01", &fs(&[1, 2, 3]));
        // E100 node [1,2,3] scores 1.0; E200 scores 3/6; E300 shares nothing
        assert_eq!(ranked[0].code, "E100");
        assert!((ranked[0].score - 1.0).abs() < 1e-12);
        assert_eq!(ranked[1].code, "E200");
        assert!((ranked[1].score - 0.5).abs() < 1e-12);
        assert_eq!(ranked.len(), 2); // E300 never becomes a candidate
    }

    #[test]
    fn codes_deduplicated_with_best_score() {
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb(), "P-01", &fs(&[2, 3]));
        // Two E100 nodes match; the exact [2,3] one scores 1.0
        let e100 = ranked.iter().find(|s| s.code == "E100").unwrap();
        assert!((e100.score - 1.0).abs() < 1e-12);
        assert_eq!(ranked.iter().filter(|s| s.code == "E100").count(), 1);
    }

    #[test]
    fn respects_part_filter() {
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb(), "P-01", &fs(&[1, 2, 3]));
        assert!(ranked.iter().all(|s| s.code != "E900"));
    }

    #[test]
    fn top_nodes_truncation() {
        let mut kb = KnowledgeBase::new();
        for i in 0..50 {
            kb.insert("P-01", format!("E{i:03}"), fs(&[1, 100 + i]));
        }
        let knn = RankedKnn {
            top_nodes: 25,
            measure: SimilarityMeasure::Jaccard,
        };
        let ranked = rank(&knn, &kb, "P-01", &fs(&[1]));
        assert_eq!(ranked.len(), 25);
    }

    #[test]
    fn truncation_happens_before_dedup() {
        // Paper order of operations: cut the *node* list at top_nodes first,
        // then collapse codes. With top_nodes = 2 the two best nodes both
        // carry EAAA, so EBBB (third-best node) must NOT appear — it would
        // if dedup ran before the cut.
        let mut kb = KnowledgeBase::new();
        kb.insert("P", "EAAA", fs(&[1, 2, 3]));
        kb.insert("P", "EAAA", fs(&[1, 2, 4]));
        kb.insert("P", "EBBB", fs(&[1, 9]));
        let knn = RankedKnn {
            top_nodes: 2,
            measure: SimilarityMeasure::Jaccard,
        };
        let ranked = rank(&knn, &kb, "P", &fs(&[1, 2, 3]));
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].code, "EAAA");
        // the surviving code carries the best of its nodes' scores
        assert!((ranked[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_sorted_descending_with_code_tiebreak() {
        let mut kb = KnowledgeBase::new();
        kb.insert("P", "ED", fs(&[1, 2, 3, 4])); // 0.25 on q
        kb.insert("P", "EC", fs(&[1, 5])); // 0.5
        kb.insert("P", "EA", fs(&[1, 6])); // 0.5 — ties with EC
        kb.insert("P", "EB", fs(&[1])); // 1.0
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb, "P", &fs(&[1]));
        let codes: Vec<&str> = ranked.iter().map(|s| s.code.as_str()).collect();
        assert_eq!(codes, ["EB", "EA", "EC", "ED"]);
        for w in ranked.windows(2) {
            assert!(w[0].score > w[1].score || (w[0].score == w[1].score && w[0].code < w[1].code));
        }
    }

    #[test]
    fn empty_feature_query_yields_empty_ranking_for_known_part() {
        let knn = RankedKnn::default();
        let ranked = rank(&knn, &kb(), "P-01", &FeatureSet::default());
        assert!(ranked.is_empty());
        // … but an unknown part still gets the whole-KB fallback, scored 0
        let fallback = rank(&knn, &kb(), "P-??", &FeatureSet::default());
        assert!(!fallback.is_empty());
        assert!(fallback.iter().all(|s| s.score == 0.0));
    }

    #[test]
    fn overlap_vs_jaccard_ordering() {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "SMALL", fs(&[1, 2]));
        kb.insert("P-01", "BIG", fs(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let q = fs(&[1, 2, 9]);
        // Jaccard penalizes the big set less than overlap rewards small sets
        let j = rank(&RankedKnn::new(SimilarityMeasure::Jaccard), &kb, "P-01", &q);
        assert_eq!(j[0].code, "SMALL"); // 2/3 vs 2/9
        let o = rank(&RankedKnn::new(SimilarityMeasure::Overlap), &kb, "P-01", &q);
        assert_eq!(o[0].code, "SMALL"); // 2/2 vs 2/3
        assert!((o[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tiebreaks() {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "EB", fs(&[1]));
        kb.insert("P-01", "EA", fs(&[1]));
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb, "P-01", &fs(&[1]));
        // equal scores → code-lexicographic order
        assert_eq!(ranked[0].code, "EA");
        assert_eq!(ranked[1].code, "EB");
    }

    #[test]
    fn rank_of_helper() {
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = rank(&knn, &kb(), "P-01", &fs(&[1, 2, 3]));
        assert_eq!(knn.rank_of(&ranked, "E100"), Some(0));
        assert_eq!(knn.rank_of(&ranked, "E200"), Some(1));
        assert_eq!(knn.rank_of(&ranked, "E999"), None);
    }

    #[test]
    fn majority_vote_is_k_sensitive() {
        // Reconstructs the paper's Fig. 6 situation: the nearest few
        // neighbours favour one class, the wider neighbourhood another —
        // majority vote flips with k while the ranked list stays stable.
        let mut kb = KnowledgeBase::new();
        // 2 very close nodes of class A
        kb.insert("P", "A", fs(&[1, 2, 3, 4]));
        kb.insert("P", "A", fs(&[1, 2, 3, 5]));
        // 4 farther nodes of class B
        for i in 0..4 {
            kb.insert("P", "B", fs(&[1, 100 + i]));
        }
        let q = fs(&[1, 2, 3, 4]);
        let near = MajorityVoteKnn::new(2, SimilarityMeasure::Jaccard);
        assert_eq!(near.classify(&kb, "P", &q).as_deref(), Some("A"));
        let wide = MajorityVoteKnn::new(6, SimilarityMeasure::Jaccard);
        assert_eq!(wide.classify(&kb, "P", &q).as_deref(), Some("B"));
        // the ranked list puts A first regardless of any k choice
        let ranked = rank(&RankedKnn::new(SimilarityMeasure::Jaccard), &kb, "P", &q);
        assert_eq!(ranked[0].code, "A");
    }

    #[test]
    fn weighted_vote_resists_the_flip() {
        let mut kb = KnowledgeBase::new();
        kb.insert("P", "A", fs(&[1, 2, 3, 4]));
        kb.insert("P", "A", fs(&[1, 2, 3, 5]));
        for i in 0..4 {
            kb.insert("P", "B", fs(&[1, 100 + i]));
        }
        let q = fs(&[1, 2, 3, 4]);
        let weighted = MajorityVoteKnn {
            k: 6,
            measure: SimilarityMeasure::Jaccard,
            weighted: true,
        };
        // similarity-weighted votes keep the near class on top
        assert_eq!(weighted.classify(&kb, "P", &q).as_deref(), Some("A"));
    }

    #[test]
    fn majority_vote_ties_independent_of_insertion_order() {
        // Regression: with k = 1 and two equal-score nodes of different
        // codes, the vote used to go to whichever node entered the knowledge
        // base first (ties at the k-truncation boundary broke on node
        // index). The code-text tie-break makes both insertion orders elect
        // the lexicographically smaller code.
        let q = fs(&[1, 2]);
        for order in [["EB", "EA"], ["EA", "EB"]] {
            let mut kb = KnowledgeBase::new();
            for code in order {
                kb.insert("P", code, fs(&[1, 2]));
            }
            let knn = MajorityVoteKnn::new(1, SimilarityMeasure::Jaccard);
            assert_eq!(
                knn.classify(&kb, "P", &q).as_deref(),
                Some("EA"),
                "insertion order {order:?} changed the winner"
            );
        }
        // same at a truncation boundary inside a larger neighbourhood:
        // k = 3 keeps both perfect-score nodes plus exactly one of the two
        // tied 0.5-score nodes — which one must not depend on insertion order
        for order in [["EY", "EX"], ["EX", "EY"]] {
            let mut kb = KnowledgeBase::new();
            kb.insert("P", "EM", fs(&[1, 2]));
            kb.insert("P", "EM", fs(&[1, 2, 3]));
            for code in order {
                kb.insert("P", code, fs(&[1, 9]));
            }
            let knn = MajorityVoteKnn::new(3, SimilarityMeasure::Overlap);
            assert_eq!(knn.classify(&kb, "P", &q).as_deref(), Some("EM"));
        }
    }

    #[test]
    fn majority_vote_empty_cases() {
        let knn = MajorityVoteKnn::new(5, SimilarityMeasure::Jaccard);
        assert_eq!(knn.classify(&KnowledgeBase::new(), "P", &fs(&[1])), None);
        let kb = kb();
        assert_eq!(knn.classify(&kb, "P-01", &FeatureSet::default()), None);
    }

    #[test]
    fn early_returns_count_as_skipped() {
        // The global counters are shared across parallel tests, so assert on
        // deltas with ≥: concurrent tests can only add skips, never remove.
        let m = crate::metrics::metrics();
        let kb = kb();
        let knn = RankedKnn::default();
        let vote = MajorityVoteKnn::new(3, SimilarityMeasure::Jaccard);

        let skipped_before = m.classifier_skipped_total.get();
        let queries_before = m.rank_queries_total.get();
        // 1: known part, empty features → early return, no candidates
        assert!(rank(&knn, &kb, "P-01", &FeatureSet::default()).is_empty());
        // 2: known part, zero overlap → early return
        assert!(rank(&knn, &kb, "P-01", &fs(&[777])).is_empty());
        // 3: unknown part, zero overlap anywhere → whole-KB fallback, no
        //    kernel work — still an early return for the accumulator
        assert!(!rank(&knn, &kb, "P-??", &fs(&[777])).is_empty());
        // 4: majority vote with empty features → None without voting
        assert_eq!(vote.classify(&kb, "P-01", &FeatureSet::default()), None);
        // 5: majority vote on an empty knowledge base
        assert_eq!(vote.classify(&KnowledgeBase::new(), "P", &fs(&[1])), None);
        assert!(
            m.classifier_skipped_total.get() >= skipped_before + 5,
            "skips not counted"
        );
        assert!(
            m.rank_queries_total.get() >= queries_before + 5,
            "skipped queries must still count as queries"
        );

        // normal queries still land in the query counter (and produce
        // results, i.e. they did not take the early-return path)
        let queries_mid = m.rank_queries_total.get();
        assert!(!rank(&knn, &kb, "P-01", &fs(&[1, 2, 3])).is_empty());
        assert!(vote.classify(&kb, "P-01", &fs(&[1, 2, 3])).is_some());
        assert!(m.rank_queries_total.get() >= queries_mid + 2);
    }

    #[test]
    fn rank_pruned_finds_near_duplicates() {
        // same-code near-duplicates at Jaccard ≥ 0.5 are exactly what the
        // prefilter is tuned to keep; verify the full pruned pipeline agrees
        // with the exact path on them
        let mut kb = KnowledgeBase::new();
        for i in 0..20u32 {
            let base = i * 50;
            kb.insert(
                "P-01",
                format!("E{i:03}"),
                fs(&(0..12).map(|k| base + k).collect::<Vec<_>>()),
            );
            kb.insert(
                "P-01",
                format!("E{i:03}"),
                fs(&(0..12).map(|k| base + k + 2).collect::<Vec<_>>()),
            );
        }
        let idx = SealedIndex::build(&kb);
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        // query = a near-copy of code E003's bundles
        let q = fs(&(0..12).map(|k| 150 + k + 1).collect::<Vec<_>>());
        let exact = knn.rank(&idx, &kb, "P-01", &q);
        let pruned = knn.rank_pruned(&idx, &kb, "P-01", &q);
        assert_eq!(exact[0].code, "E003");
        assert_eq!(pruned[0].code, "E003");
        assert_eq!(pruned[0].score, exact[0].score);
        // pruned results are a subset of the exact ranking with equal scores
        for s in &pruned {
            let e = exact.iter().find(|e| e.code == s.code).expect("in exact");
            assert_eq!(s.score, e.score);
        }
        // unknown part / empty features delegate to the exact fallbacks
        assert_eq!(
            knn.rank_pruned(&idx, &kb, "P-??", &fs(&[9999])),
            knn.rank(&idx, &kb, "P-??", &fs(&[9999]))
        );
        assert_eq!(
            knn.rank_pruned(&idx, &kb, "P-01", &FeatureSet::default()),
            knn.rank(&idx, &kb, "P-01", &FeatureSet::default())
        );
    }

    #[test]
    fn empty_query_or_kb() {
        let knn = RankedKnn::default();
        assert!(rank(&knn, &KnowledgeBase::new(), "P-01", &fs(&[1])).is_empty());
        assert!(rank(&knn, &kb(), "P-01", &FeatureSet::default()).is_empty());
    }
}
