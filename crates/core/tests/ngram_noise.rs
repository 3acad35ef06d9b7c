//! Differential typo-robustness test (the char n-gram model's reason to
//! exist): corrupt every query word with a character transposition and
//! rank against a vocabulary frozen on *clean* training text. Under
//! bag-of-words each corrupted word is a brand-new token, the frozen
//! vocabulary drops it as out-of-vocabulary, and the query collapses —
//! kNN on a known part with empty features returns the empty ranking.
//! Under char 3–5-grams most interior grams of each word survive the
//! transposition, so the same corrupted queries keep scoring their true
//! code into the top-k.

use qatk_core::prelude::*;
use qatk_corpus::bundle::{DataBundle, SourceSelection};
use qatk_corpus::generator::{Corpus, CorpusConfig};
use qatk_text::engine::Pipeline;

const SEED: u64 = 20160315;
/// The synthetic corpus has few codes per part, so deep cut-offs saturate
/// even for near-random rankings; hit@1 is the discriminating depth.
const TOP_K: usize = 1;
const QUERIES: usize = 120;

/// Deterministic character noise: in every alphanumeric run of two or
/// more characters, swap one *unequal* adjacent pair ("report" -> "rpeort"),
/// preferring an interior pair so long words keep their boundary
/// characters. Working on runs — not whitespace words — matters because
/// the tokenizer splits hyphenated compounds ("kx7-condition"); requiring
/// unequal chars keeps double letters ("cooling") from yielding an
/// identity swap; and noising even the short numeric tokens ("347")
/// matters because those would otherwise survive verbatim and hand
/// bag-of-words an exact overlap with the query's own training node.
fn transpose_words(text: &str) -> String {
    fn transpose_run(run: &mut [char]) {
        if run.len() < 2 {
            return;
        }
        let interior = (1..run.len().saturating_sub(1)).find(|&j| run[j] != run[j + 1]);
        let j = interior.or_else(|| (0..run.len() - 1).find(|&j| run[j] != run[j + 1]));
        if let Some(j) = j {
            run.swap(j, j + 1);
        }
    }
    let mut out: Vec<char> = Vec::with_capacity(text.len());
    let mut run_start = 0usize;
    for c in text.chars() {
        if c.is_alphanumeric() {
            out.push(c);
        } else {
            transpose_run(&mut out[run_start..]);
            out.push(c);
            run_start = out.len();
        }
    }
    transpose_run(&mut out[run_start..]);
    out.into_iter().collect()
}

/// A copy of `bundle` with every test-time text source noised.
fn noised(bundle: &DataBundle) -> DataBundle {
    let mut b = bundle.clone();
    b.mechanic_report = transpose_words(&b.mechanic_report);
    b.initial_report = b.initial_report.as_deref().map(transpose_words);
    b.supplier_report = transpose_words(&b.supplier_report);
    b
}

/// Train a frozen vocabulary, knowledge base and its sealed index on the
/// clean corpus.
fn train(
    corpus: &Corpus,
    pipeline: &Pipeline,
    model: FeatureModel,
) -> (FrozenFeatureSpace, KnowledgeBase, SealedIndex) {
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for b in &corpus.bundles {
        let Some(code) = b.error_code.as_deref() else {
            continue;
        };
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).expect("corpus text is clean");
        kb.insert(b.part_id.clone(), code, space.extract(&cas, model));
    }
    let idx = SealedIndex::build(&kb);
    (space.freeze(), kb, idx)
}

/// Extract the noised bundle against the frozen vocabulary and rank it;
/// returns (features kept after OOV filtering, truth found in top-k).
fn noised_outcome(
    pipeline: &Pipeline,
    space: &FrozenFeatureSpace,
    (kb, idx): (&KnowledgeBase, &SealedIndex),
    model: FeatureModel,
    bundle: &DataBundle,
) -> (usize, bool) {
    let mut cas = noised(bundle).to_cas(SourceSelection::Test);
    pipeline
        .process(&mut cas)
        .expect("noised text is still processable");
    let features = space.extract(&cas, model);
    let truth = bundle.error_code.as_deref().expect("coded bundle");
    let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
    let ranked = knn.rank(idx, kb, &bundle.part_id, &features);
    let hit = ranked.iter().take(TOP_K).any(|s| s.code == truth);
    (features.len(), hit)
}

#[test]
fn char_ngrams_survive_transposition_noise_where_bag_of_words_goes_oov() {
    let corpus = Corpus::generate(CorpusConfig::small(SEED));
    let ngram_model = FeatureModel::CHAR_NGRAMS;
    // neither model needs the taxonomy, but build_pipeline keeps the
    // annotator wiring identical to the serving path
    let bow_pipeline = build_pipeline(&corpus, FeatureModel::BagOfWords);
    let ngram_pipeline = build_pipeline(&corpus, ngram_model);
    let (bow_space, bow_kb, bow_idx) = train(&corpus, &bow_pipeline, FeatureModel::BagOfWords);
    let (ngram_space, ngram_kb, ngram_idx) = train(&corpus, &ngram_pipeline, ngram_model);

    let coded: Vec<&DataBundle> = corpus
        .bundles
        .iter()
        .filter(|b| b.error_code.is_some())
        .take(QUERIES)
        .collect();
    assert!(coded.len() >= 100, "corpus too small for the differential");

    let mut bow_hits = 0usize;
    let mut bow_nonempty = 0usize;
    let mut ngram_hits = 0usize;
    for b in &coded {
        let (bow_feats, bow_hit) = noised_outcome(
            &bow_pipeline,
            &bow_space,
            (&bow_kb, &bow_idx),
            FeatureModel::BagOfWords,
            b,
        );
        let (ngram_feats, ngram_hit) = noised_outcome(
            &ngram_pipeline,
            &ngram_space,
            (&ngram_kb, &ngram_idx),
            ngram_model,
            b,
        );
        bow_hits += bow_hit as usize;
        bow_nonempty += (bow_feats > 0) as usize;
        assert!(
            ngram_feats > 0,
            "{}: transposed text lost every char n-gram",
            b.reference_number
        );
        ngram_hits += ngram_hit as usize;
    }

    let n = coded.len();
    eprintln!(
        "noise differential over {n} queries: bag-of-words top-{TOP_K} hits {bow_hits} \
         ({bow_nonempty} queries kept any feature), char-ngrams hits {ngram_hits}"
    );
    // bag-of-words: a transposed word is OOV against the frozen vocabulary,
    // so the noised queries lose (nearly) all their features and the true
    // code falls out of the top-k for the majority of queries
    assert!(
        bow_hits * 2 < n,
        "bag-of-words unexpectedly robust: {bow_hits}/{n} top-{TOP_K} hits under noise"
    );
    // char n-grams: interior grams survive the transposition and the true
    // code stays in the top-k almost everywhere
    assert!(
        ngram_hits * 10 >= n * 9,
        "char-ngrams lost robustness: {ngram_hits}/{n} top-{TOP_K} hits under noise"
    );
    // and the differential itself: the n-gram model strictly dominates
    assert!(
        ngram_hits > bow_hits,
        "no differential: ngram {ngram_hits} vs bow {bow_hits}"
    );
}
