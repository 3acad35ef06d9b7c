//! The four workloads: what each server runs, which requests it gets, and
//! how every response is checked.

use std::collections::HashMap;

use qatk_corpus::generator::Corpus;

use crate::client::encode;
use crate::json::{self, escape, Value};

/// The endpoint a request stream drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suggest,
    Classify,
    Learn,
}

/// One workload. Rates are open-loop arrivals, chosen for a 2-core machine
/// to stay far under the capacity the closed-loop segments measure there,
/// even at half speed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The server's `--model`, which the in-process replica trains too.
    pub model: &'static str,
    /// The read stream every workload carries.
    pub read: Kind,
    /// Open-loop read arrivals per second.
    pub read_rate: f64,
    /// `Some(rate)`: a WAL-backed replicating leader that also takes
    /// `/learn` — closed loop, then open loop at `rate` per second.
    pub learn_rate: Option<f64>,
}

impl Spec {
    /// The operation capacity and CPU cost are measured on.
    pub fn primary(&self) -> Kind {
        if self.learn_rate.is_some() {
            Kind::Learn
        } else {
            self.read
        }
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "suggest",
        model: "bag-of-concepts",
        read: Kind::Suggest,
        read_rate: 1000.0,
        learn_rate: None,
    },
    Spec {
        name: "suggest_ngram",
        model: "char-ngrams",
        read: Kind::Suggest,
        read_rate: 60.0,
        learn_rate: None,
    },
    Spec {
        name: "classify_external",
        model: "bag-of-concepts",
        read: Kind::Classify,
        read_rate: 250.0,
        learn_rate: None,
    },
    Spec {
        name: "learn_durable",
        model: "bag-of-concepts",
        read: Kind::Suggest,
        read_rate: 200.0,
        learn_rate: Some(1.5),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Texts per `/classify_batch` request.
pub const BATCH_TEXTS: usize = 4;

/// Suggestions shown on the first screen, the depth `acc10_pct` checks.
pub const TOP: usize = 10;

/// One pre-encoded request and the corpus bundles it was built from.
#[derive(Debug, Clone)]
pub struct Template {
    pub raw: Vec<u8>,
    pub bundles: Vec<usize>,
}

impl Template {
    pub fn new(path: &str, body: &str, bundles: Vec<usize>) -> Template {
        Template {
            raw: encode("POST", path, body),
            bundles,
        }
    }
}

/// splitmix64: the benchmark's own generator, so inputs depend on the seed
/// and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The request streams of one run.
pub struct Inputs {
    pub reads: Vec<Template>,
    pub learns: Vec<Template>,
}

/// Build the request streams from the seed: it picks which coded bundles
/// become requests and in what order.
pub fn make_inputs(spec: &Spec, corpus: &Corpus, seed: u64) -> Inputs {
    let coded: Vec<usize> = (0..corpus.bundles.len())
        .filter(|&i| corpus.bundles[i].error_code.is_some())
        .collect();
    let mut rng = Rng::new(seed);
    let mut order = coded.clone();
    rng.shuffle(&mut order);
    let reads = match spec.read {
        Kind::Suggest => order
            .iter()
            .map(|&i| Template::new("/suggest", &suggest_body(corpus, i), vec![i]))
            .collect(),
        Kind::Classify => order
            .chunks_exact(BATCH_TEXTS)
            .map(|chunk| {
                let texts: Vec<String> = chunk
                    .iter()
                    .map(|&i| format!("\"{}\"", escape(&corpus.bundles[i].supplier_report)))
                    .collect();
                let body = format!("{{\"texts\":[{}]}}", texts.join(","));
                Template::new("/classify_batch", &body, chunk.to_vec())
            })
            .collect(),
        Kind::Learn => unreachable!("learns are not a read stream"),
    };
    let learns = match spec.learn_rate {
        None => Vec::new(),
        Some(_) => {
            let mut order = coded;
            rng.shuffle(&mut order);
            order
                .iter()
                .map(|&i| Template::new("/learn", &learn_body(corpus, i), vec![i]))
                .collect()
        }
    };
    Inputs { reads, learns }
}

/// A full Test-selection document: the reports an engineer has before the
/// code is known, plus the part.
pub fn suggest_body(corpus: &Corpus, i: usize) -> String {
    let b = &corpus.bundles[i];
    let mut body = format!(
        "{{\"reference_number\":\"{}\",\"part_id\":\"{}\",\"mechanic_report\":\"{}\"",
        escape(&b.reference_number),
        escape(&b.part_id),
        escape(&b.mechanic_report)
    );
    if let Some(initial) = &b.initial_report {
        body.push_str(&format!(",\"initial_report\":\"{}\"", escape(initial)));
    }
    body.push_str(&format!(
        ",\"supplier_report\":\"{}\",\"part_description\":\"{}\"}}",
        escape(&b.supplier_report),
        escape(&b.part_description)
    ));
    body
}

/// An expert's assignment: the part, the mechanic and supplier texts and
/// the code the corpus recorded for them.
pub fn learn_body(corpus: &Corpus, i: usize) -> String {
    let b = &corpus.bundles[i];
    format!(
        "{{\"part_id\":\"{}\",\"mechanic_report\":\"{}\",\"supplier_report\":\"{}\",\"code\":\"{}\"}}",
        escape(&b.part_id),
        escape(&b.mechanic_report),
        escape(&b.supplier_report),
        escape(b.error_code.as_deref().expect("learn bundles are coded"))
    )
}

/// A `/suggest` for exactly the text a learn taught: after a restart its
/// code must still be suggested.
pub fn learned_text_body(corpus: &Corpus, i: usize) -> String {
    let b = &corpus.bundles[i];
    format!(
        "{{\"reference_number\":\"{}\",\"part_id\":\"{}\",\"mechanic_report\":\"{}\",\"supplier_report\":\"{}\"}}",
        escape(&b.reference_number),
        escape(&b.part_id),
        escape(&b.mechanic_report),
        escape(&b.supplier_report)
    )
}

pub fn truth(corpus: &Corpus, i: usize) -> &str {
    corpus.bundles[i]
        .error_code
        .as_deref()
        .expect("requests are built from coded bundles")
}

/// Top-10 hits over the texts of one response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hits {
    pub hit: u64,
    pub total: u64,
}

impl std::ops::AddAssign for Hits {
    fn add_assign(&mut self, o: Hits) {
        self.hit += o.hit;
        self.total += o.total;
    }
}

/// What a connection remembers between its responses.
pub struct Checker<'a> {
    corpus: &'a Corpus,
    kind: Kind,
    /// Read-only servers answer a repeated request byte for byte alike.
    fixed_kb: bool,
    /// Template index → its validated body and hits (reads on a fixed
    /// knowledge base only).
    seen: HashMap<usize, (Vec<u8>, Hits)>,
    /// Epoch of the last response: acked learns rise by exactly one, reads
    /// never go back.
    pub last_epoch: Option<u64>,
}

impl<'a> Checker<'a> {
    pub fn new(corpus: &'a Corpus, kind: Kind, fixed_kb: bool) -> Checker<'a> {
        Checker {
            corpus,
            kind,
            fixed_kb,
            seen: HashMap::new(),
            last_epoch: None,
        }
    }

    /// Judge a 2xx body for template `idx`; `Err` names the violation.
    pub fn check(&mut self, idx: usize, tpl: &Template, body: &[u8]) -> Result<Hits, String> {
        if self.fixed_kb {
            if let Some((seen, hits)) = self.seen.get(&idx) {
                return if seen.as_slice() == body {
                    Ok(*hits)
                } else {
                    Err(format!(
                        "request {idx} answered differently on a read-only server: {} vs {}",
                        String::from_utf8_lossy(seen),
                        String::from_utf8_lossy(body)
                    ))
                };
            }
        }
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let doc = json::parse(text).map_err(|e| format!("body does not parse ({e}): {text}"))?;
        let epoch = doc
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("no epoch in {text}"))?;
        let hits = match self.kind {
            Kind::Suggest => self.check_suggest(tpl, &doc)?,
            Kind::Classify => self.check_classify(tpl, &doc)?,
            Kind::Learn => {
                if let Some(last) = self.last_epoch {
                    if epoch != last + 1 {
                        return Err(format!("learn acked epoch {epoch} after epoch {last}"));
                    }
                }
                if doc.get("enqueued").and_then(Value::as_u64) != Some(1) {
                    return Err(format!("learn did not enqueue one instance: {text}"));
                }
                Hits::default()
            }
        };
        if self.kind != Kind::Learn && self.last_epoch.is_some_and(|last| epoch < last) {
            return Err(format!(
                "read saw epoch {epoch} after epoch {:?}",
                self.last_epoch
            ));
        }
        self.last_epoch = Some(epoch);
        if self.fixed_kb {
            self.seen.insert(idx, (body.to_vec(), hits));
        }
        Ok(hits)
    }

    fn check_suggest(&self, tpl: &Template, doc: &Value) -> Result<Hits, String> {
        let b = &self.corpus.bundles[tpl.bundles[0]];
        if doc.get("reference_number").and_then(Value::as_str) != Some(&b.reference_number) {
            return Err(format!(
                "suggest for {} echoed another bundle",
                b.reference_number
            ));
        }
        let top = ranking(doc.get("top"))?;
        if top.len() > TOP {
            return Err(format!("top holds {} entries", top.len()));
        }
        let all: Vec<&str> = doc
            .get("all_codes_for_part")
            .and_then(Value::as_arr)
            .ok_or("no all_codes_for_part")?
            .iter()
            .map(|c| c.as_str().ok_or("non-string code in all_codes_for_part"))
            .collect::<Result<_, _>>()?;
        if let Some(code) = top.iter().find(|c| !all.contains(c)) {
            return Err(format!(
                "suggested {code} is not a code of part {}",
                b.part_id
            ));
        }
        let truth = truth(self.corpus, tpl.bundles[0]);
        Ok(Hits {
            hit: u64::from(top.contains(&truth)),
            total: 1,
        })
    }

    fn check_classify(&self, tpl: &Template, doc: &Value) -> Result<Hits, String> {
        let results = doc
            .get("results")
            .and_then(Value::as_arr)
            .ok_or("no results array")?;
        if results.len() != tpl.bundles.len() {
            return Err(format!(
                "{} rankings for {} texts",
                results.len(),
                tpl.bundles.len()
            ));
        }
        let mut hits = Hits::default();
        for (ranked, &i) in results.iter().zip(&tpl.bundles) {
            let codes = ranking(Some(ranked))?;
            let truth = truth(self.corpus, i);
            hits += Hits {
                hit: u64::from(codes.iter().take(TOP).any(|c| *c == truth)),
                total: 1,
            };
        }
        Ok(hits)
    }
}

/// The codes of a `[{"code","score"},…]` ranking, checking that scores
/// descend.
fn ranking(v: Option<&Value>) -> Result<Vec<&str>, String> {
    let entries = v.and_then(Value::as_arr).ok_or("ranking is not an array")?;
    let mut codes = Vec::with_capacity(entries.len());
    let mut prev = f64::INFINITY;
    for e in entries {
        let code = e
            .get("code")
            .and_then(Value::as_str)
            .ok_or("entry without code")?;
        let score = e
            .get("score")
            .and_then(Value::as_f64)
            .ok_or("entry without score")?;
        if score > prev {
            return Err(format!("scores rise at {code}: {prev} then {score}"));
        }
        prev = score;
        codes.push(code);
    }
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qatk_corpus::generator::CorpusConfig;

    #[test]
    fn checks_catch_broken_suggest_responses() {
        let corpus = Corpus::generate(CorpusConfig::small(5));
        let tpl = Template::new("/suggest", &suggest_body(&corpus, 0), vec![0]);
        let b = &corpus.bundles[0];
        let code = b.error_code.clone().unwrap();
        let ok = format!(
            "{{\"epoch\":0,\"reference_number\":\"{}\",\"top\":[{{\"code\":\"{code}\",\"score\":0.9}},{{\"code\":\"X\",\"score\":0.5}}],\"all_codes_for_part\":[\"{code}\",\"X\"]}}",
            b.reference_number
        );
        let mut c = Checker::new(&corpus, Kind::Suggest, true);
        assert_eq!(
            c.check(0, &tpl, ok.as_bytes()),
            Ok(Hits { hit: 1, total: 1 })
        );
        // a read-only server must repeat itself
        let other = ok.replace("0.5", "0.4");
        assert!(c.check(0, &tpl, other.as_bytes()).is_err());
        let mut c = Checker::new(&corpus, Kind::Suggest, false);
        for bad in [
            ok.replace("0.9", "0.1"),               // scores rise
            ok.replace(",\"X\"]", "]"),             // code not of the part
            ok.replace("\"epoch\":0,", ""),         // no epoch
            ok.replace(&b.reference_number, "R-0"), // wrong bundle
            ok[..ok.len() - 1].to_owned(),          // truncated
        ] {
            assert!(c.check(0, &tpl, bad.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn learn_epochs_rise_by_one_and_reads_never_go_back() {
        let corpus = Corpus::generate(CorpusConfig::small(5));
        let tpl = Template::new("/learn", &learn_body(&corpus, 0), vec![0]);
        let mut c = Checker::new(&corpus, Kind::Learn, false);
        let ack = |e: u64| format!("{{\"enqueued\":1,\"added\":1,\"epoch\":{e}}}");
        assert!(c.check(0, &tpl, ack(3).as_bytes()).is_ok());
        assert!(c.check(0, &tpl, ack(4).as_bytes()).is_ok());
        assert!(
            c.check(0, &tpl, ack(6).as_bytes()).is_err(),
            "skipped an epoch"
        );
        let batch = Template::new("/classify_batch", "{}", vec![0, 1]);
        let mut c = Checker::new(&corpus, Kind::Classify, false);
        let code = truth(&corpus, 1);
        let two = format!("{{\"epoch\":2,\"results\":[[],[{{\"code\":\"{code}\",\"score\":1}}]]}}");
        assert_eq!(
            c.check(0, &batch, two.as_bytes()),
            Ok(Hits { hit: 1, total: 2 })
        );
        let back = two.replace("\"epoch\":2", "\"epoch\":1");
        assert!(
            c.check(0, &batch, back.as_bytes()).is_err(),
            "epoch went back"
        );
        let one = format!("{{\"epoch\":2,\"results\":[[{{\"code\":\"{code}\",\"score\":1}}]]}}");
        assert!(
            c.check(0, &batch, one.as_bytes()).is_err(),
            "one ranking per text"
        );
    }
}
