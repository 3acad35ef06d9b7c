//! Ablation studies for the design choices DESIGN.md §5 calls out, beyond
//! the paper's own figures:
//!
//! 1. **Similarity measures** — the paper's Jaccard/overlap plus the Dice
//!    and cosine extensions (§4.2: the algorithm "can easily be used with
//!    different similarity or distance measures").
//! 2. **Taxonomy synonym expansion** (§4.5.3) — bag-of-concepts accuracy
//!    with the raw vs the substring-expanded taxonomy.
//! 3. **Configuration-instance dedup** (§4.3) — knowledge-base size with and
//!    without the dedup abstraction.
//! 4. **Stemming** (§6 future work) — bag-of-stems vs plain bag-of-words.
//! 5. **Ranked list vs standard majority-vote kNN** (Fig. 6/7) — why the
//!    paper abandons majority vote: its accuracy depends on the k choice,
//!    while the ranked list has no such parameter.
//!
//! Run: `cargo run --release -p qatk-bench --bin ablations [-- --small]`

use qatk_bench::{pct, print_curves, HarnessArgs};
use qatk_core::prelude::*;
use qatk_corpus::bundle::SourceSelection;
use qatk_corpus::generator::Corpus;
use qatk_taxonomy::expansion::{expand_taxonomy, ExpansionConfig};
use qatk_text::concept_annotator::ConceptAnnotator;
use qatk_text::engine::Pipeline;
use qatk_text::langdetect::LanguageDetector;
use qatk_text::tokenizer::WhitespaceTokenizer;

fn main() {
    let args = HarnessArgs::parse();
    let corpus = args.corpus();

    similarity_measures(&corpus);
    taxonomy_expansion(&corpus);
    dedup_ratio(&corpus);
    stemming(&corpus);
    majority_vote_vs_ranked(&corpus);
}

fn majority_vote_vs_ranked(corpus: &Corpus) {
    // single fold, bag-of-words + Jaccard: accuracy@1 of the ranked list vs
    // majority-vote kNN across k choices
    let model = FeatureModel::BagOfWords;
    let pipeline = build_pipeline(corpus, model);
    let bundles = corpus.evaluable_bundles();
    let codes: Vec<&str> = bundles
        .iter()
        .map(|b| b.error_code.as_deref().unwrap())
        .collect();
    let folds = stratified_folds(&codes, 5, 0x5EED);
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for (i, b) in bundles.iter().enumerate() {
        if folds[i] == 0 {
            continue;
        }
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).unwrap();
        let f = space.extract(&cas, model);
        kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
    }

    let test: Vec<(usize, FeatureSet)> = bundles
        .iter()
        .enumerate()
        .filter(|(i, _)| folds[*i] == 0)
        .map(|(i, b)| {
            let mut cas = b.to_cas(SourceSelection::Test);
            pipeline.process(&mut cas).unwrap();
            (i, space.extract(&cas, model))
        })
        .collect();

    println!(
        "
== Ablation 5 — majority-vote kNN vs ranked list (Fig. 6/7, fold 0) =="
    );
    let ranked = RankedKnn::new(SimilarityMeasure::Jaccard);
    let idx = SealedIndex::build(&kb);
    let mut hits = 0usize;
    for (i, f) in &test {
        let list = ranked.rank(&idx, &kb, &bundles[*i].part_id, f);
        if list.first().map(|s| s.code.as_str()) == bundles[*i].error_code.as_deref() {
            hits += 1;
        }
    }
    println!(
        "ranked list (k-free)         @1 {}",
        pct(hits as f64 / test.len() as f64)
    );
    for k in [1usize, 3, 6, 15, 25] {
        for weighted in [false, true] {
            let knn = MajorityVoteKnn {
                k,
                measure: SimilarityMeasure::Jaccard,
                weighted,
            };
            let mut hits = 0usize;
            for (i, f) in &test {
                if knn.classify(&kb, &bundles[*i].part_id, f).as_deref()
                    == bundles[*i].error_code.as_deref()
                {
                    hits += 1;
                }
            }
            println!(
                "majority vote k={k:<2} {}  @1 {}",
                if weighted {
                    "(weighted)  "
                } else {
                    "(unweighted)"
                },
                pct(hits as f64 / test.len() as f64)
            );
        }
    }
}

fn similarity_measures(corpus: &Corpus) {
    let mut results = Vec::new();
    for measure in SimilarityMeasure::ALL {
        let config = ClassifierConfig {
            model: FeatureModel::BagOfConcepts,
            measure,
            ..ClassifierConfig::default()
        };
        eprintln!("[measures] running {} ...", config.label());
        results.push(run_experiment(corpus, &config));
    }
    let curves: Vec<&AccuracyCurve> = results.iter().map(|r| &r.classifier).collect();
    print_curves(
        "Ablation 1 — similarity measures (bag-of-concepts)",
        &curves,
    );
}

fn taxonomy_expansion(corpus: &Corpus) {
    // Baseline: concepts with the expanded taxonomy vs the raw one. The
    // corpus was *written* against the raw taxonomy, so expansion here
    // measures robustness, not cheating: expanded terms match paraphrases.
    let raw = run_experiment(
        corpus,
        &ClassifierConfig {
            model: FeatureModel::BagOfConcepts,
            ..ClassifierConfig::default()
        },
    );

    let (expanded_tax, stats) =
        expand_taxonomy(&corpus.taxonomy.taxonomy, &ExpansionConfig::default()).unwrap();
    eprintln!(
        "[expansion] added {} terms to {} originals",
        stats.added_terms, stats.original_terms
    );
    // classification with a custom pipeline over the expanded taxonomy
    let pipeline = Pipeline::builder()
        .add(WhitespaceTokenizer::new())
        .add(LanguageDetector::new())
        .add(ConceptAnnotator::new(&expanded_tax))
        .build();
    // one fold worth of manual train/test split for the expanded variant
    let bundles = corpus.evaluable_bundles();
    let codes: Vec<&str> = bundles
        .iter()
        .map(|b| b.error_code.as_deref().unwrap())
        .collect();
    let folds = stratified_folds(&codes, 5, 0x5EED);
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for (i, b) in bundles.iter().enumerate() {
        if folds[i] == 0 {
            continue;
        }
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).unwrap();
        let f = space.extract(&cas, FeatureModel::BagOfConcepts);
        kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
    }
    let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
    let idx = SealedIndex::build(&kb);
    let mut acc = AccuracyCounter::new(&PAPER_KS);
    for (i, b) in bundles.iter().enumerate() {
        if folds[i] != 0 {
            continue;
        }
        let mut cas = b.to_cas(SourceSelection::Test);
        pipeline.process(&mut cas).unwrap();
        let f = space.extract(&cas, FeatureModel::BagOfConcepts);
        let ranked = knn.rank(&idx, &kb, &b.part_id, &f);
        acc.record(knn.rank_of(&ranked, b.error_code.as_deref().unwrap()));
    }

    println!("\n== Ablation 2 — taxonomy synonym expansion (bag-of-concepts) ==");
    println!(
        "raw taxonomy       @1 {}  @10 {}   (5-fold CV)",
        pct(raw.classifier.at(1).unwrap()),
        pct(raw.classifier.at(10).unwrap())
    );
    println!(
        "expanded taxonomy  @1 {}  @10 {}   (fold 0 only; +{} synonym terms)",
        pct(acc.at(1).unwrap()),
        pct(acc.at(10).unwrap()),
        stats.added_terms
    );
}

fn dedup_ratio(corpus: &Corpus) {
    // KB built over the full corpus: instances offered vs nodes kept
    for model in [FeatureModel::BagOfConcepts, FeatureModel::BagOfWords] {
        let pipeline = build_pipeline(corpus, model);
        let mut space = FeatureSpace::new();
        let mut kb = KnowledgeBase::new();
        for b in &corpus.bundles {
            let mut cas = b.to_cas(SourceSelection::Training);
            pipeline.process(&mut cas).unwrap();
            let f = space.extract(&cas, model);
            kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
        }
        if model == FeatureModel::BagOfConcepts {
            println!("\n== Ablation 3 — configuration-instance dedup (§4.3) ==");
        }
        println!(
            "{:18} instances {} -> nodes {} ({:.1}% kept)",
            model.label(),
            kb.instances_offered(),
            kb.len(),
            kb.len() as f64 / kb.instances_offered() as f64 * 100.0
        );
    }
}

fn stemming(corpus: &Corpus) {
    let mut results = Vec::new();
    for model in [
        FeatureModel::BagOfWords,
        FeatureModel::BagOfWordsNoStop,
        FeatureModel::BagOfStems,
    ] {
        let config = ClassifierConfig {
            model,
            ..ClassifierConfig::default()
        };
        eprintln!("[stemming] running {} ...", config.label());
        results.push(run_experiment(corpus, &config));
    }
    let curves: Vec<&AccuracyCurve> = results.iter().map(|r| &r.classifier).collect();
    print_curves(
        "Ablation 4 — stemming (§6 'more linguistic preprocessing')",
        &curves,
    );
    println!(
        "seconds/bundle: words {:.5}, nostop {:.5}, stems {:.5}",
        results[0].seconds_per_bundle, results[1].seconds_per_bundle, results[2].seconds_per_bundle
    );
}
