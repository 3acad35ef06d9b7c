//! Per-segment language recognition for German/English code-switched reports.
//!
//! The paper's pipeline runs "Tokenization and Language Recognition" before
//! concept annotation (§4.4); reports are "mostly a mix of German and
//! English" (§3.2). This detector scores each segment with two lightweight,
//! language-independent-to-compute signals: stopword hits and characteristic
//! character patterns — no external models, as befits the thin-NLP
//! constraint.

use std::sync::LazyLock;

use crate::cas::{Annotation, AnnotationKind, Cas, DetectedLang};
use crate::engine::{AnalysisEngine, Result};
use crate::stopwords::StopwordList;

/// Character n-grams that are strong cues for each language (checked on
/// normalized text, so umlauts appear as ae/oe/ue).
const DE_PATTERNS: &[&str] = &[
    "sch", "cht", "ung", "kei", "ief", "tz", "pf", "zw", "ae", "oe", "ue", "ss",
];
const EN_PATTERNS: &[&str] = &["th", "ing", "tion", "gh", "wh", "ck", "sh", "ey", "ou"];

/// Scores for one text: higher wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LangScores {
    pub de: f64,
    pub en: f64,
}

impl LangScores {
    /// Decide with a margin: if the scores are too close (or both ~0) report
    /// `Unknown` rather than guessing.
    pub fn decide(&self, margin: f64) -> DetectedLang {
        if self.de < 1e-9 && self.en < 1e-9 {
            return DetectedLang::Unknown;
        }
        if self.de > self.en * (1.0 + margin) {
            DetectedLang::De
        } else if self.en > self.de * (1.0 + margin) {
            DetectedLang::En
        } else {
            DetectedLang::Unknown
        }
    }
}

/// Score a normalized token stream.
pub fn score_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> LangScores {
    let mut tally = Tally::default();
    for tok in tokens {
        tally.add(token_points(tok));
    }
    tally.scores()
}

/// Integer evidence for one token: `(German, English)` points. A stopword
/// hit is the strongest signal (weight 3); each cue pattern occurring in
/// the token adds 1, however often it occurs.
fn token_points(tok: &str) -> (u64, u64) {
    let (mut de, mut en) = stopword_points(tok);
    let cues = CUE_MATCHER.cues_in(tok.as_bytes());
    de += u64::from((cues & DE_CUES).count_ones());
    en += u64::from((cues & !DE_CUES).count_ones());
    (de, en)
}

/// Running evidence of one text. Points stay integers until [`Tally::scores`]
/// divides: every partial sum is exact in `f64`, so the quotients equal
/// those of summing 3.0s and 1.0s in floating point.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    de: u64,
    en: u64,
    tokens: u64,
}

impl Tally {
    fn add(&mut self, (de, en): (u64, u64)) {
        self.de += de;
        self.en += en;
        self.tokens += 1;
    }

    fn scores(self) -> LangScores {
        if self.tokens == 0 {
            return LangScores { de: 0.0, en: 0.0 };
        }
        let n = self.tokens as f64;
        LangScores {
            de: self.de as f64 / n,
            en: self.en as f64 / n,
        }
    }
}

/// The cue patterns of both languages, compiled once from `DE_PATTERNS`
/// and `EN_PATTERNS`: cue `i` is `DE_PATTERNS[i]`, and the English cues
/// follow the German ones.
struct CueMatcher {
    cues: [&'static [u8]; CUES],
    /// Bit `i` of `first[b]` is set when cue `i` starts with byte `b`.
    first: [u32; 256],
}

const CUES: usize = DE_PATTERNS.len() + EN_PATTERNS.len();

/// The cue bits that belong to `DE_PATTERNS`.
const DE_CUES: u32 = (1 << DE_PATTERNS.len()) - 1;

static CUE_MATCHER: CueMatcher = CueMatcher::build();

impl CueMatcher {
    const fn build() -> Self {
        const { assert!(CUES <= 32, "cue bits must fit a u32") };
        let mut m = CueMatcher {
            cues: [&[]; CUES],
            first: [0; 256],
        };
        let mut i = 0;
        while i < CUES {
            let cue = if i < DE_PATTERNS.len() {
                DE_PATTERNS[i].as_bytes()
            } else {
                EN_PATTERNS[i - DE_PATTERNS.len()].as_bytes()
            };
            assert!(!cue.is_empty(), "an empty cue would match every token");
            m.cues[i] = cue;
            m.first[cue[0] as usize] |= 1 << i;
            i += 1;
        }
        m
    }

    /// The set of cues occurring in `tok`, in one pass over its bytes: at
    /// each offset only the cues starting with that byte are compared.
    /// UTF-8 never starts a character inside another, so a byte match is
    /// exactly a `str::contains` match.
    fn cues_in(&self, tok: &[u8]) -> u32 {
        let mut found = 0u32;
        for (at, &b) in tok.iter().enumerate() {
            let mut candidates = self.first[usize::from(b)] & !found;
            while candidates != 0 {
                let i = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                if tok[at..].starts_with(self.cues[i]) {
                    found |= 1 << i;
                }
            }
        }
        found
    }
}

/// `(German, English)` stopword points of a token: 3 for each list that
/// holds it.
fn stopword_points(tok: &str) -> (u64, u64) {
    static LISTS: LazyLock<[StopwordList; 2]> =
        LazyLock::new(|| [StopwordList::german(), StopwordList::english()]);
    let [german, english] = &*LISTS;
    (
        3 * u64::from(german.contains(tok)),
        3 * u64::from(english.contains(tok)),
    )
}

/// Engine annotating every segment with a [`AnnotationKind::LanguageSpan`].
/// Requires tokens.
#[derive(Debug, Clone, Copy)]
pub struct LanguageDetector {
    /// Relative margin one language must lead by; below it → `Unknown`.
    pub margin: f64,
}

impl Default for LanguageDetector {
    fn default() -> Self {
        LanguageDetector { margin: 0.15 }
    }
}

impl LanguageDetector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Detect the language of a free-standing text (utility entry point for
    /// callers outside a pipeline, e.g. the NHTSA comparison path).
    pub fn detect_text(&self, text: &str) -> DetectedLang {
        let toks = qatk_taxonomy::normalize::normalize_phrase(text);
        score_tokens(toks.iter().map(String::as_str)).decide(self.margin)
    }
}

impl AnalysisEngine for LanguageDetector {
    fn name(&self) -> &str {
        "language-detector"
    }

    fn process(&self, cas: &mut Cas) -> Result<()> {
        let segments = cas.segments();
        let mut tallies = vec![Tally::default(); segments.len()];
        for a in cas.annotations() {
            let AnnotationKind::Token { normalized } = &a.kind else {
                continue;
            };
            let points = token_points(normalized);
            for (seg, tally) in segments.iter().zip(&mut tallies) {
                if a.begin >= seg.begin && a.end <= seg.end {
                    tally.add(points);
                }
            }
        }
        let spans: Vec<Annotation> = segments
            .iter()
            .zip(tallies)
            .map(|(seg, tally)| {
                Annotation::new(
                    seg.begin,
                    seg.end,
                    AnnotationKind::LanguageSpan {
                        lang: tally.scores().decide(self.margin),
                    },
                )
            })
            .collect();
        for s in spans {
            cas.add_annotation(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::WhitespaceTokenizer;

    #[test]
    fn detects_german() {
        let d = LanguageDetector::new();
        assert_eq!(
            d.detect_text("Der Lüfter funktioniert nicht, Kontakt ist defekt und durchgeschmort"),
            DetectedLang::De
        );
    }

    #[test]
    fn detects_english() {
        let d = LanguageDetector::new();
        assert_eq!(
            d.detect_text("the radio turns on and off by itself, crackling sound from the speaker"),
            DetectedLang::En
        );
    }

    #[test]
    fn empty_is_unknown() {
        let d = LanguageDetector::new();
        assert_eq!(d.detect_text(""), DetectedLang::Unknown);
        assert_eq!(d.detect_text("12345 9921"), DetectedLang::Unknown);
    }

    #[test]
    fn per_segment_annotation() {
        let mut cas = Cas::new();
        let de = cas.add_segment(
            "supplier_report",
            "Der Kontakt ist defekt und durchgeschmort, die Einheit wurde geprüft",
        );
        let en = cas.add_segment(
            "mechanic_report",
            "the client says that the radio turns on and off by itself",
        );
        WhitespaceTokenizer::new().process(&mut cas).unwrap();
        LanguageDetector::new().process(&mut cas).unwrap();
        assert_eq!(cas.language_of(de), Some(DetectedLang::De));
        assert_eq!(cas.language_of(en), Some(DetectedLang::En));
    }

    #[test]
    fn mixed_or_ambiguous_is_unknown() {
        // equal pull in both directions with tiny evidence
        let scores = LangScores { de: 0.5, en: 0.5 };
        assert_eq!(scores.decide(0.15), DetectedLang::Unknown);
        let scores = LangScores { de: 0.0, en: 0.0 };
        assert_eq!(scores.decide(0.15), DetectedLang::Unknown);
    }

    #[test]
    fn score_tokens_scale_invariant() {
        let short = score_tokens(["der", "luefter"].into_iter());
        let long = score_tokens(["der", "luefter", "der", "luefter", "der", "luefter"].into_iter());
        assert!((short.de - long.de).abs() < 1e-9);
    }
}
