//! The text path against its reference implementations.
//!
//! The tokenizer's normalisation and the language detector's scoring were
//! rewritten for speed: an ASCII fast path in `normalize_token`, one byte
//! pass per token for the cue patterns and stopword sets built once. The
//! straightforward versions they replaced live on here as oracles: per-char
//! normalisation, a `str::contains` probe per cue pattern, linear scans of
//! the stopword lists and f64 sums. Token annotations, language scores (bit
//! for bit) and language decisions must match them over the whole default
//! corpus under both source selections, and on arbitrary messy text, where
//! every feature model's pipeline must also succeed.
//!
//! The oracles sit in `qatk-core` because this crate links the corpus and
//! every pipeline; `qatk-text` cannot depend on the corpus without a cycle.

use std::sync::OnceLock;

use proptest::prelude::*;
use qatk_core::prelude::*;
use qatk_corpus::prelude::*;
use qatk_taxonomy::normalize::is_separator;
use qatk_text::prelude::*;
use qatk_text::stopwords::{ENGLISH, GERMAN};

/// Reference `normalize_token`: lowercase char by char, fold umlauts and ß.
fn legacy_normalize_token(token: &str) -> String {
    let mut out = String::with_capacity(token.len() + 2);
    for c in token.chars() {
        match c {
            'ä' | 'Ä' => out.push_str("ae"),
            'ö' | 'Ö' => out.push_str("oe"),
            'ü' | 'Ü' => out.push_str("ue"),
            'ß' => out.push_str("ss"),
            other => out.extend(other.to_lowercase()),
        }
    }
    out
}

/// Reference tokenizer: the token annotations `WhitespaceTokenizer` must add.
fn legacy_tokens(text: &str) -> Vec<Annotation> {
    let token = |begin: usize, end: usize| {
        Annotation::new(
            begin,
            end,
            AnnotationKind::Token {
                normalized: legacy_normalize_token(&text[begin..end]),
            },
        )
    };
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        if is_separator(c) {
            if let Some(s) = start.take() {
                out.push(token(s, i));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push(token(s, text.len()));
    }
    out
}

const DE_PATTERNS: &[&str] = &[
    "sch", "cht", "ung", "kei", "ief", "tz", "pf", "zw", "ae", "oe", "ue", "ss",
];
const EN_PATTERNS: &[&str] = &["th", "ing", "tion", "gh", "wh", "ck", "sh", "ey", "ou"];

/// Reference `score_tokens`: 3.0 per stopword list holding the token, 1.0
/// per cue pattern the token contains, summed in f64 and averaged.
fn legacy_score_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> LangScores {
    let mut de = 0.0;
    let mut en = 0.0;
    let mut n = 0usize;
    for tok in tokens {
        n += 1;
        if GERMAN.contains(&tok) {
            de += 3.0;
        }
        if ENGLISH.contains(&tok) {
            en += 3.0;
        }
        for p in DE_PATTERNS {
            if tok.contains(p) {
                de += 1.0;
            }
        }
        for p in EN_PATTERNS {
            if tok.contains(p) {
                en += 1.0;
            }
        }
    }
    if n == 0 {
        return LangScores { de: 0.0, en: 0.0 };
    }
    LangScores {
        de: de / n as f64,
        en: en / n as f64,
    }
}

/// Normalised forms of the tokens lying inside `seg`, in annotation order.
fn tokens_in<'a>(anns: &'a [Annotation], seg: &'a Segment) -> impl Iterator<Item = &'a str> {
    anns.iter().filter_map(move |a| match &a.kind {
        AnnotationKind::Token { normalized } if a.begin >= seg.begin && a.end <= seg.end => {
            Some(normalized.as_str())
        }
        _ => None,
    })
}

/// Run the tokenizer and the language detector on `cas` and compare every
/// annotation and every segment's scores with the oracles. Returns the
/// first difference found.
fn diff_against_oracles(cas: &mut Cas) -> Result<(), String> {
    let mut expected = legacy_tokens(cas.text());
    WhitespaceTokenizer::new()
        .process(cas)
        .map_err(|e| e.to_string())?;
    if cas.annotations() != expected.as_slice() {
        return Err(format!("tokens differ on {:?}", cas.text()));
    }
    let detector = LanguageDetector::new();
    for seg in cas.segments() {
        let legacy = legacy_score_tokens(tokens_in(&expected, seg));
        let fast = score_tokens(tokens_in(&expected, seg));
        if (fast.de.to_bits(), fast.en.to_bits()) != (legacy.de.to_bits(), legacy.en.to_bits()) {
            return Err(format!("scores {fast:?} != {legacy:?} on {:?}", seg.name));
        }
        expected.push(Annotation::new(
            seg.begin,
            seg.end,
            AnnotationKind::LanguageSpan {
                lang: legacy.decide(detector.margin),
            },
        ));
    }
    detector.process(cas).map_err(|e| e.to_string())?;
    if cas.annotations() != expected.as_slice() {
        return Err(format!("language spans differ on {:?}", cas.text()));
    }
    Ok(())
}

#[test]
fn text_path_matches_the_oracles_on_the_default_corpus() {
    let corpus = Corpus::generate(CorpusConfig::default());
    let (mut cases, mut segments, mut tokens) = (0usize, 0usize, 0usize);
    for bundle in &corpus.bundles {
        for selection in [SourceSelection::Training, SourceSelection::Test] {
            let mut cas = bundle.to_cas(selection);
            if let Err(diff) = diff_against_oracles(&mut cas) {
                panic!("{} ({selection:?}): {diff}", bundle.reference_number);
            }
            cases += 1;
            segments += cas.segments().len();
            tokens += cas.tokens().count();
        }
    }
    assert_eq!(cases, 2 * corpus.bundles.len());
    assert!(segments > cases && tokens > segments);
}

#[test]
fn oracles_agree_on_hand_picked_tokens() {
    for word in [
        "Lüfter",
        "GROSSE",
        "weiß",
        "ÄRGER",
        "İstanbul",
        "ΣΑΣ",
        "x24i",
        "",
    ] {
        assert_eq!(
            qatk_taxonomy::normalize::normalize_token(word),
            legacy_normalize_token(word),
            "{word:?}"
        );
    }
    let toks = [
        "der",
        "the",
        "in",
        "an",
        "so",
        "schwingung",
        "thought",
        "ß",
        "🚗",
    ];
    for tok in toks {
        let (fast, legacy) = (
            score_tokens([tok].into_iter()),
            legacy_score_tokens([tok].into_iter()),
        );
        assert_eq!(
            (fast.de.to_bits(), fast.en.to_bits()),
            (legacy.de.to_bits(), legacy.en.to_bits()),
            "{tok:?}"
        );
    }
}

/// Every feature model's served pipeline, built once.
fn pipelines() -> &'static [(FeatureModel, Pipeline)] {
    static PIPELINES: OnceLock<Vec<(FeatureModel, Pipeline)>> = OnceLock::new();
    PIPELINES.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig::small(7));
        FeatureModel::ALL
            .iter()
            .map(|&model| (model, build_pipeline(&corpus, model)))
            .collect()
    })
}

/// Words of both languages: stopwords, cue-rich words, taxonomy-like terms.
const WORDS: &[&str] = &[
    "der",
    "the",
    "und",
    "and",
    "nicht",
    "not",
    "Lüfter",
    "funktioniert",
    "Geräusch",
    "noise",
    "crackling",
    "Scheinwerfer",
    "through",
    "tightening",
    "Schweißnaht",
    "weiß",
    "fuer",
    "für",
    "Kontakt",
    "durchgeschmort",
    "radio",
    "turns",
    "off",
    "wheel",
    "Straße",
];

/// One piece of messy text.
fn arb_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        // punctuation-only runs
        "[!?.,;:()/*#]{1,6}",
        // NUL and other control characters
        "[\u{0}\u{1}\u{7f}]{1,3}",
        // umlauts, ß and random casing
        "[a-zA-ZäöüÄÖÜß]{1,12}",
        // emoji and other non-Latin symbols
        "[😀-🙏🚗⚙€°]{1,4}",
        // mixed German/English words, randomly cased
        (0..WORDS.len(), any::<u64>()).prop_map(|(i, bits)| {
            WORDS[i]
                .chars()
                .enumerate()
                .map(|(k, c)| {
                    if bits >> (k % 64) & 1 == 1 {
                        c.to_uppercase().collect::<String>()
                    } else {
                        c.to_lowercase().collect::<String>()
                    }
                })
                .collect::<String>()
        }),
        // one long token, up to ~1,000 bytes
        "[a-zäöß-]{300,700}",
    ]
}

/// Messy text: pieces glued together or split by whitespace and punctuation.
fn arb_messy_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((arb_piece(), "[ \t\n,.-]{0,2}"), 0..10).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(piece, sep)| piece + &sep)
            .collect::<String>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn messy_text_matches_the_oracles_and_every_pipeline_accepts_it(
        first in arb_messy_text(),
        second in arb_messy_text(),
    ) {
        let mut cas = Cas::new();
        cas.add_segment("mechanic_report", &first);
        cas.add_segment("supplier_report", &second);
        let pristine = cas.clone();
        let checked = diff_against_oracles(&mut cas);
        prop_assert!(checked.is_ok(), "{:?}", checked);
        for (model, pipeline) in pipelines() {
            let mut cas = pristine.clone();
            let result = pipeline.process(&mut cas);
            prop_assert!(result.is_ok(), "{:?} failed on {:?}: {:?}", model, cas.text(), result);
        }
    }
}
