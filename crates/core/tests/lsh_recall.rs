//! Differential recall: the LSH-pruned sealed ranking path against the
//! exact sealed path as oracle, over a scale-tier-shaped corpus.
//!
//! The prefilter is allowed to miss nodes — that is the trade that buys the
//! ≥5x speedup at the 1m tier — but DESIGN.md §11 bounds the damage: over a
//! seeded query stream, the pruned top-25 code list must cover at least
//! 95% of the exact top-25 code list. `bench_report --scale 1m` enforces
//! the same bound on the real 1M corpus in the nightly job; this test holds
//! it on a 15k-bundle corpus with identical statistical shape, small enough
//! for the debug-build CI test suite.

use qatk_core::prelude::*;
use qatk_corpus::scale::{ScaleConfig, ScaleCorpus};

const QUERIES: usize = 256;
const MIN_RECALL: f64 = 0.95;

fn build(corpus: &ScaleCorpus) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for b in corpus.bundles() {
        kb.insert(
            ScaleCorpus::part_name(b.part),
            ScaleCorpus::code_name(b.code),
            FeatureSet::from_unsorted(b.features.to_vec()),
        );
    }
    kb
}

#[test]
fn pruned_top25_covers_exact_top25() {
    let corpus = ScaleCorpus::generate(ScaleConfig::custom(15_000, 42));
    let kb = build(&corpus);
    let idx = SealedIndex::build(&kb);
    let knn = RankedKnn::new(SimilarityMeasure::Jaccard);

    fn top_codes(ranked: &[ScoredCode]) -> Vec<&str> {
        ranked.iter().take(25).map(|s| s.code.as_str()).collect()
    }
    let (mut overlap, mut total, mut top1_hits) = (0usize, 0usize, 0usize);
    for (part, feats) in corpus.queries(QUERIES, 7) {
        let part = ScaleCorpus::part_name(part);
        let features = FeatureSet::from_unsorted(feats);
        let exact_ranked = knn.rank(&idx, &kb, &part, &features);
        let pruned_ranked = knn.rank_pruned(&idx, &kb, &part, &features);
        let exact = top_codes(&exact_ranked);
        let pruned = top_codes(&pruned_ranked);
        assert!(!exact.is_empty(), "query has no exact candidates at all");
        overlap += exact.iter().filter(|c| pruned.contains(c)).count();
        total += exact.len();
        if pruned.first() == exact.first() {
            top1_hits += 1;
        }
    }
    let recall = overlap as f64 / total as f64;
    assert!(
        recall >= MIN_RECALL,
        "top-25 differential recall {:.2}% ({overlap}/{total}) below {:.0}%",
        recall * 100.0,
        MIN_RECALL * 100.0
    );
    // the top suggestion — what the paper's expert actually clicks — must
    // survive pruning essentially always
    assert!(
        top1_hits as f64 >= QUERIES as f64 * 0.98,
        "top-1 agreement only {top1_hits}/{QUERIES}"
    );
}

#[test]
fn lsh_prefilter_actually_prunes() {
    // recall alone could be satisfied by a prefilter that returns
    // everything; pin the selectivity side too
    let corpus = ScaleCorpus::generate(ScaleConfig::custom(15_000, 42));
    let kb = build(&corpus);
    let idx = SealedIndex::build(&kb);
    let mut total_candidates = 0usize;
    let queries = corpus.queries(64, 9);
    for (_, feats) in &queries {
        let mut seen = std::collections::HashSet::new();
        idx.lsh().for_each_candidate(feats, |n| {
            seen.insert(n);
        });
        total_candidates += seen.len();
    }
    let avg = total_candidates as f64 / queries.len() as f64;
    assert!(
        avg < kb.len() as f64 / 10.0,
        "prefilter barely prunes: {avg:.0} candidates of {} nodes",
        kb.len()
    );
    // and it is not degenerate either: true neighbours exist for every
    // query, so candidates cannot be near-zero on average (cluster ≈ 60)
    assert!(avg > 20.0, "suspiciously few candidates: {avg:.0}");
}
