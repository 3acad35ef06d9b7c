//! # qatk-core — the Quality Analytics Toolkit's classification core
//!
//! This crate implements the paper's primary contribution: the ranked-list
//! kNN-derived error-code recommendation over domain-specific
//! (bag-of-concepts) and domain-ignorant (bag-of-words) feature abstractions
//! (paper §4), plus the evaluation machinery of §5:
//!
//! * [`interner`] / [`features`] — feature spaces and the three data
//!   abstraction models;
//! * [`knowledge`] — the deduplicated knowledge base with its part-ID
//!   index, persisted relationally;
//! * [`similarity`] — Jaccard and overlap (paper) plus Dice/cosine
//!   (extensions);
//! * [`classifier`] — the ranked-list kNN of §4.3, one kernel over the
//!   sealed index;
//! * [`zoo`] — the pluggable classifier zoo ([`zoo::Classifier`] trait:
//!   kNN, centroid/Rocchio, multinomial naive Bayes, one-vs-rest logistic
//!   regression) trained at snapshot seal time;
//! * [`segment`] / [`lsh`] — the sealed-snapshot index segment, the only
//!   posting format ranking reads: delta+varint-compressed posting arena
//!   and the minhash/LSH candidate prefilter for million-node corpora;
//! * [`baselines`] — the code-frequency and candidate-set baselines of §5.1;
//! * [`eval`] — Accuracy@k and stratified k-fold CV;
//! * [`pipeline`] — end-to-end experiment orchestration with parallel folds
//!   and per-bundle timing.
//!
//! ## Example
//!
//! ```
//! use qatk_core::prelude::*;
//! use qatk_corpus::prelude::*;
//!
//! let corpus = Corpus::generate(CorpusConfig::small(1));
//! let config = ClassifierConfig {
//!     model: FeatureModel::BagOfConcepts,
//!     folds: 2,
//!     ..ClassifierConfig::default()
//! };
//! let result = run_experiment(&corpus, &config);
//! assert!(result.classifier.at(25).unwrap() >= result.classifier.at(1).unwrap());
//! ```

pub mod baselines;
pub mod bootstrap;
pub mod classifier;
pub mod eval;
pub mod features;
pub mod interner;
pub mod knowledge;
pub mod lsh;
pub mod metrics;
pub mod pipeline;
pub mod segment;
pub mod similarity;
pub mod snapshot;
pub mod zoo;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::baselines::{CandidateSetBaseline, CodeFrequencyBaseline};
    pub use crate::bootstrap::{hits_at_k, paired_bootstrap, BootstrapResult};
    pub use crate::classifier::{BatchQuery, MajorityVoteKnn, RankedKnn, ScoredCode};
    pub use crate::eval::{stratified_folds, AccuracyCounter, F1Counter, PAPER_KS};
    pub use crate::features::{
        CharNgramExtractor, ConceptExtractor, FeatureExtractor, FeatureModel, FeatureSet,
        FeatureSpace, FrozenFeatureSpace, ModelExtractor, ParseModelError, TokenResolver,
        WordExtractor,
    };
    pub use crate::interner::Interner;
    pub use crate::knowledge::{KnowledgeBase, KnowledgeNode};
    pub use crate::lsh::{LshIndex, LshParams};
    pub use crate::pipeline::{
        build_pipeline, run_experiment, AccuracyCurve, ClassifierConfig, ExperimentResult,
    };
    pub use crate::segment::{
        decode_sorted, encode_sorted, read_varint, write_varint, CodecError, PostingArena,
        SealedIndex,
    };
    pub use crate::similarity::SimilarityMeasure;
    pub use crate::snapshot::{EpochCell, KnowledgeSnapshot, SnapshotBuilder};
    pub use crate::zoo::{
        Classifier, ClassifierFamily, ParseFamilyError, RankerConfig, RankerModel,
    };
}

pub use prelude::*;
