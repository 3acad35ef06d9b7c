//! Token normalization shared by the taxonomy trie and the text annotators.
//!
//! Reports are "riddled with spelling errors, idiosyncratic ... expressions"
//! (paper §1.2); matching taxonomy terms against them requires at minimum a
//! casefold and a German umlaut/ß transliteration so that "Lüfter", "LUEFTER"
//! and "luefter" all meet in one form.

/// Normalize a single token: lowercase + German transliteration
/// (ä→ae, ö→oe, ü→ue, ß→ss).
pub fn normalize_token(token: &str) -> String {
    // most report tokens are ASCII, where lowercasing is all there is to do
    if token.is_ascii() {
        return token.to_ascii_lowercase();
    }
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

/// True for characters that separate tokens: everything that is neither
/// alphanumeric nor a word-internal hyphen. This is the simple
/// whitespace-/punctuation-tokenization the paper's prototype uses (§4.5.2).
pub fn is_separator(c: char) -> bool {
    !(c.is_alphanumeric() || c == '-')
}

/// Split a phrase into normalized tokens. Used when loading multiword
/// taxonomy terms into the trie so that term tokenization and report
/// tokenization agree exactly.
pub fn normalize_phrase(phrase: &str) -> Vec<String> {
    phrase
        .split(is_separator)
        .filter(|t| !t.is_empty())
        .map(normalize_token)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_case_and_umlauts() {
        assert_eq!(normalize_token("Lüfter"), "luefter");
        assert_eq!(normalize_token("GROSSE"), "grosse");
        assert_eq!(normalize_token("weiß"), "weiss");
        assert_eq!(normalize_token("Ärger"), "aerger");
        assert_eq!(normalize_token("ÖL"), "oel");
    }

    #[test]
    fn plain_ascii_untouched_but_lowercased() {
        assert_eq!(normalize_token("Radio"), "radio");
        assert_eq!(normalize_token("x24i"), "x24i");
    }

    #[test]
    fn phrase_splitting() {
        assert_eq!(
            normalize_phrase("Crackling sound, electrical smell!"),
            vec!["crackling", "sound", "electrical", "smell"]
        );
        assert_eq!(normalize_phrase("  "), Vec::<String>::new());
        // hyphens are word-internal
        assert_eq!(normalize_phrase("mud-guard"), vec!["mud-guard"]);
        assert_eq!(normalize_phrase("a/b"), vec!["a", "b"]);
    }

    #[test]
    fn separator_classes() {
        assert!(is_separator(' '));
        assert!(is_separator(','));
        assert!(is_separator('/'));
        assert!(!is_separator('a'));
        assert!(!is_separator('7'));
        assert!(!is_separator('-'));
        assert!(!is_separator('ü'));
    }
}
