//! The optimized trie-based concept annotator.
//!
//! Implements the paper's improved taxonomy annotator (§4.5.3): the taxonomy
//! is loaded into a token trie; matching is *left-bounded greedy longest
//! match*, "eliminating concept matches which are completely enclosed by
//! other concept matches"; matching is multilingual (all languages share one
//! trie) and correctly captures multiwords. Matching runs on normalized
//! tokens, so casing, umlauts and the typical OEM-report sloppiness do not
//! break recall.

use std::collections::HashMap;
use std::sync::Arc;

use qatk_taxonomy::concept::{ConceptId, ConceptKind};
use qatk_taxonomy::normalize::is_separator;
use qatk_taxonomy::taxonomy::Taxonomy;
use qatk_taxonomy::trie::TokenTrie;

use crate::cas::{Annotation, AnnotationKind, Cas};
use crate::engine::{AnalysisEngine, Result, TextError};

/// Trie-backed concept annotator.
///
/// Cheap to clone (the trie and kind map are shared); build once per
/// taxonomy and reuse across pipelines and threads.
#[derive(Debug, Clone)]
pub struct ConceptAnnotator {
    trie: Arc<TokenTrie>,
    kinds: Arc<HashMap<ConceptId, ConceptKind>>,
    /// Which concept kinds to emit. The paper annotates "occurrences of
    /// components and symptoms from the taxonomy" (§4.5.3).
    emit: Vec<ConceptKind>,
}

impl ConceptAnnotator {
    /// Build from a taxonomy, emitting components and symptoms (paper
    /// default).
    pub fn new(taxonomy: &Taxonomy) -> Self {
        Self::with_kinds(taxonomy, &[ConceptKind::Component, ConceptKind::Symptom])
    }

    /// Build emitting only the given kinds.
    pub fn with_kinds(taxonomy: &Taxonomy, emit: &[ConceptKind]) -> Self {
        let trie = TokenTrie::from_taxonomy(taxonomy);
        let kinds = taxonomy.concepts().iter().map(|c| (c.id, c.kind)).collect();
        ConceptAnnotator {
            trie: Arc::new(trie),
            kinds: Arc::new(kinds),
            emit: emit.to_vec(),
        }
    }

    /// The number of trie entries (diagnostics).
    pub fn entry_count(&self) -> usize {
        self.trie.len()
    }
}

impl AnalysisEngine for ConceptAnnotator {
    fn name(&self) -> &str {
        "concept-annotator"
    }

    fn process(&self, cas: &mut Cas) -> Result<()> {
        let m = crate::metrics::metrics();
        let _span = qatk_obs::Timer::start(m.annotate_latency_ns);
        // Collect token views: (begin, end, normalized).
        let tokens: Vec<(usize, usize, &str)> = cas
            .annotations()
            .iter()
            .filter_map(|a| match &a.kind {
                AnnotationKind::Token { normalized } => Some((a.begin, a.end, normalized.as_str())),
                _ => None,
            })
            .collect();
        // Text without a token character (blank, "!!!") legitimately has no
        // tokens; tokenizable text without them means no tokenizer ran.
        if tokens.is_empty() && cas.text().chars().any(|c| !is_separator(c)) {
            return Err(TextError::MissingPrerequisite {
                engine: self.name().to_owned(),
                requires: "Token",
            });
        }
        let norms: Vec<&str> = tokens.iter().map(|t| t.2).collect();

        let mut out: Vec<Annotation> = Vec::new();
        let mut i = 0usize;
        while i < norms.len() {
            match self.trie.longest_match(&norms, i) {
                Some((len, concepts)) => {
                    let begin = tokens[i].0;
                    let end = tokens[i + len - 1].1;
                    for &concept in concepts {
                        let kind =
                            self.kinds
                                .get(&concept)
                                .copied()
                                .ok_or_else(|| TextError::Engine {
                                    engine: self.name().to_owned(),
                                    message: format!(
                                        "trie concept {concept} missing from taxonomy"
                                    ),
                                })?;
                        if self.emit.contains(&kind) {
                            out.push(Annotation::new(
                                begin,
                                end,
                                AnnotationKind::ConceptMention { concept, kind },
                            ));
                        }
                    }
                    // Left-bounded greedy: consume the matched span entirely,
                    // which eliminates enclosed matches by construction.
                    i += len;
                }
                None => i += 1,
            }
        }
        m.docs_annotated_total.inc();
        m.concept_hits_total.add(out.len() as u64);
        for ann in out {
            cas.add_annotation(ann);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::WhitespaceTokenizer;
    use qatk_taxonomy::builder::TaxonomyBuilder;
    use qatk_taxonomy::concept::Lang;

    fn taxonomy() -> (Taxonomy, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut b = TaxonomyBuilder::new("t");
        let comp = b.root(ConceptKind::Component, "Component");
        let fan = b.child(comp, "Fan");
        b.term(fan, Lang::En, "fan");
        b.term(fan, Lang::En, "cooling fan");
        b.term(fan, Lang::De, "Lüfter");
        let fender = b.child(comp, "Fender");
        b.terms(fender, Lang::En, ["fender", "mud guard", "splashboard"]);
        let sym = b.root(ConceptKind::Symptom, "Symptom");
        let crackle = b.child(sym, "Crackle");
        b.term(crackle, Lang::En, "crackling sound");
        let loc = b.root(ConceptKind::Location, "Location");
        let front = b.child(loc, "Front");
        b.term(front, Lang::En, "front");
        (b.build().unwrap(), fan, fender, crackle, front)
    }

    fn run(text: &str) -> (Cas, ConceptId, ConceptId, ConceptId, ConceptId) {
        let (tax, fan, fender, crackle, front) = taxonomy();
        let mut cas = Cas::new();
        cas.add_segment("r", text);
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        ConceptAnnotator::new(&tax).process(&mut cas).unwrap();
        (cas, fan, fender, crackle, front)
    }

    #[test]
    fn single_and_multiword_mentions() {
        let (cas, fan, _, crackle, _) = run("Fan makes a crackling sound");
        let ms: Vec<_> = cas.concept_mentions().collect();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].1, fan);
        assert_eq!(cas.covered_text(ms[0].0), "Fan");
        assert_eq!(ms[1].1, crackle);
        assert_eq!(cas.covered_text(ms[1].0), "crackling sound");
    }

    #[test]
    fn synonyms_collapse_to_one_concept() {
        let (cas_a, _, fender, _, _) = run("mud guard damaged");
        let (cas_b, _, _, _, _) = run("splashboard damaged");
        let (cas_c, _, _, _, _) = run("fender damaged");
        for cas in [&cas_a, &cas_b, &cas_c] {
            let ms: Vec<_> = cas.concept_mentions().collect();
            assert_eq!(ms.len(), 1);
            assert_eq!(ms[0].1, fender);
        }
    }

    #[test]
    fn multilingual_matching() {
        let (cas, fan, _, _, _) = run("LÜFTER defekt");
        let ms: Vec<_> = cas.concept_mentions().collect();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].1, fan);
    }

    #[test]
    fn longest_match_wins_and_encloses_nothing() {
        // "cooling fan" must match as one mention, not also "fan".
        let (cas, fan, _, _, _) = run("cooling fan rattles");
        let ms: Vec<_> = cas.concept_mentions().collect();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].1, fan);
        assert_eq!(cas.covered_text(ms[0].0), "cooling fan");
    }

    #[test]
    fn location_kind_filtered_by_default() {
        let (cas, _, _, _, _) = run("front fan broken");
        let kinds: Vec<ConceptKind> = cas.concept_mentions().map(|m| m.2).collect();
        assert_eq!(kinds, vec![ConceptKind::Component]);
    }

    #[test]
    fn custom_kinds() {
        let (tax, _, _, _, front) = taxonomy();
        let mut cas = Cas::new();
        cas.add_segment("r", "front panel");
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        ConceptAnnotator::with_kinds(&tax, &[ConceptKind::Location])
            .process(&mut cas)
            .unwrap();
        let ms: Vec<_> = cas.concept_mentions().collect();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].1, front);
    }

    #[test]
    fn requires_tokens() {
        let (tax, ..) = taxonomy();
        let mut cas = Cas::new();
        cas.add_segment("r", "fan");
        let err = ConceptAnnotator::new(&tax).process(&mut cas).unwrap_err();
        assert!(matches!(err, TextError::MissingPrerequisite { .. }));
    }

    #[test]
    fn punctuation_only_text_is_fine() {
        let (tax, ..) = taxonomy();
        for text in ["!!!", "?", " . ", "\u{0}", "!?\u{0}\n…"] {
            let mut cas = Cas::new();
            cas.add_segment("r", text);
            WhitespaceTokenizer::new().process(&mut cas).unwrap();
            ConceptAnnotator::new(&tax).process(&mut cas).unwrap();
            assert_eq!(cas.concept_mentions().count(), 0, "{text:?}");
        }
        // a token character without a tokenizer is still an error
        let mut cas = Cas::new();
        cas.add_segment("r", "!!! fan");
        let err = ConceptAnnotator::new(&tax).process(&mut cas).unwrap_err();
        assert!(matches!(err, TextError::MissingPrerequisite { .. }));
    }

    #[test]
    fn empty_text_is_fine() {
        let (tax, ..) = taxonomy();
        let mut cas = Cas::new();
        cas.add_segment("r", "   ");
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        ConceptAnnotator::new(&tax).process(&mut cas).unwrap();
        assert_eq!(cas.concept_mentions().count(), 0);
    }

    #[test]
    fn entry_count_reports_trie_size() {
        let (tax, ..) = taxonomy();
        let a = ConceptAnnotator::new(&tax);
        assert_eq!(a.entry_count(), 8);
    }

    #[test]
    fn clone_shares_trie() {
        let (tax, ..) = taxonomy();
        let a = ConceptAnnotator::new(&tax);
        let b = a.clone();
        assert_eq!(a.entry_count(), b.entry_count());
    }
}
