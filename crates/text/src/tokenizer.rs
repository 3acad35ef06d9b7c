//! The whitespace/punctuation tokenizer.
//!
//! "a simple custom whitespace-/punctuation-tokenizer" (paper §4.5.2). Each
//! token annotation stores its normalized form (lowercase, umlauts folded) so
//! later engines — stopword annotator, concept annotator, bag-of-words
//! feature extraction — share one normalization.

use qatk_taxonomy::normalize::{is_separator, normalize_token};

use crate::cas::{Annotation, AnnotationKind, Cas};
use crate::engine::{AnalysisEngine, Result};

/// Tokenizer engine. Stateless; one instance serves the whole pipeline.
#[derive(Debug, Default, Clone, Copy)]
pub struct WhitespaceTokenizer;

impl WhitespaceTokenizer {
    pub fn new() -> Self {
        WhitespaceTokenizer
    }
}

impl AnalysisEngine for WhitespaceTokenizer {
    fn name(&self) -> &str {
        "whitespace-tokenizer"
    }

    fn process(&self, cas: &mut Cas) -> Result<()> {
        let m = crate::metrics::metrics();
        let _span = qatk_obs::Timer::start(m.tokenize_latency_ns);
        let text = cas.text();
        let mut start: Option<usize> = None;
        let mut pending: Vec<Annotation> = Vec::new();
        for (i, c) in text.char_indices() {
            if is_separator(c) {
                if let Some(s) = start.take() {
                    pending.push(token(text, s, i));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            pending.push(token(text, s, text.len()));
        }
        m.docs_tokenized_total.inc();
        m.tokens_total.add(pending.len() as u64);
        for ann in pending {
            cas.add_annotation(ann);
        }
        Ok(())
    }
}

fn token(text: &str, begin: usize, end: usize) -> Annotation {
    Annotation::new(
        begin,
        end,
        AnnotationKind::Token {
            normalized: normalize_token(&text[begin..end]),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(s: &str) -> Cas {
        let mut cas = Cas::new();
        cas.add_segment("r", s);
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        cas
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        let cas = tokenize("Kleint says: radio turns on/off!");
        assert_eq!(
            cas.token_norms(),
            vec!["kleint", "says", "radio", "turns", "on", "off"]
        );
    }

    #[test]
    fn offsets_cover_surface_forms() {
        let cas = tokenize("Elektiral smell, crackling");
        let toks: Vec<&str> = cas.tokens().map(|a| cas.covered_text(a)).collect();
        assert_eq!(toks, vec!["Elektiral", "smell", "crackling"]);
    }

    #[test]
    fn umlauts_normalized_but_surface_kept() {
        let cas = tokenize("Lüfter funktioniert nicht.");
        assert_eq!(cas.token_norms(), vec!["luefter", "funktioniert", "nicht"]);
        let first = cas.tokens().next().unwrap();
        assert_eq!(cas.covered_text(first), "Lüfter");
    }

    #[test]
    fn hyphen_and_digits_kept_in_token() {
        let cas = tokenize("abs-steuergerät id test 470");
        assert_eq!(
            cas.token_norms(),
            vec!["abs-steuergeraet", "id", "test", "470"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").token_norms().is_empty());
        assert!(tokenize(" .,;! ").token_norms().is_empty());
    }

    #[test]
    fn token_at_end_of_text() {
        let cas = tokenize("end token");
        assert_eq!(cas.token_norms(), vec!["end", "token"]);
        let last = cas.tokens().last().unwrap();
        assert_eq!(last.end, cas.text().len());
    }

    #[test]
    fn tokens_never_straddle_segments() {
        let mut cas = Cas::new();
        cas.add_segment("a", "alpha");
        cas.add_segment("b", "beta");
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        assert_eq!(cas.token_norms(), vec!["alpha", "beta"]);
        let anns: Vec<&Annotation> = cas.tokens().collect();
        let seg_a = cas.segment("a").unwrap();
        assert!(anns[0].end <= seg_a.end);
        let seg_b = cas.segment("b").unwrap();
        assert!(anns[1].begin >= seg_b.begin);
    }
}
