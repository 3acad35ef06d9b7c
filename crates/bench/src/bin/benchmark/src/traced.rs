//! The traced phase: the workload's request bodies replayed in-process,
//! with the benchmark's own timers around each layer's public entry point.
//! Nothing inside the program is instrumented for it.
//!
//! The replica is built the way `quest serve` builds its service
//! (`RecommendationService::train_with` on the same corpus, model and
//! ranker), and the text engines the way `build_pipeline` builds them. Both
//! are checked: the engine names must equal the served pipeline's, and the
//! features the staged calls produce must equal
//! `KnowledgeSnapshot::process_and_extract`, so the stages measure the
//! program that serves.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qatk_core::prelude::{
    BatchQuery, Classifier, ClassifierFamily, FeatureModel, FeatureSet, KnowledgeSnapshot,
    RankerConfig, SimilarityMeasure, SnapshotBuilder,
};
use qatk_corpus::bundle::{DataBundle, SourceSelection};
use qatk_corpus::generator::Corpus;
use qatk_serve::{Handler, Limits, RequestParser};
use qatk_text::prelude::{
    AnalysisEngine, Cas, ConceptAnnotator, LanguageDetector, WhitespaceTokenizer,
};
use quest::prelude::{HealthInfo, QuestApp, RecommendationService};

use crate::workload::{Inputs, Kind, Spec, Template};

/// Stage names in request order. Every workload reports every stage; a
/// stage its requests never reach reports 0.
pub const STAGES: [&str; 13] = [
    "serve.parse",
    "quest.decode",
    "corpus.to_cas",
    "text.tokenize",
    "text.langdetect",
    "text.annotate",
    "core.extract",
    "core.rank",
    "core.rank_batch",
    "core.cow_build",
    "core.train_instance",
    "core.seal",
    "quest.handle",
];

/// Stages that run inside `QuestApp::handle`; `serve.parse` runs before it.
pub fn inside_handle(stage: &str) -> bool {
    !matches!(stage, "serve.parse" | "quest.handle")
}

/// Wall time per call of every stage, in nanoseconds.
pub struct Traced {
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Traced {
    pub fn of(&self, stage: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(&[], |(_, v)| v)
    }
}

/// Replay calls until this much time has passed, within the call counts.
const BUDGET: Duration = Duration::from_secs(4);
const MIN_CALLS: usize = 100;
const MAX_CALLS: usize = 1000;
/// Learns rebuild the whole snapshot; fewer calls fit the budget.
const MIN_LEARN_CALLS: usize = 20;
/// Requests whose staged features are checked against the served path.
const EQUIVALENCE_CHECKS: usize = 200;

struct Engines {
    tokenizer: WhitespaceTokenizer,
    langdetect: LanguageDetector,
    annotator: Option<ConceptAnnotator>,
}

impl Engines {
    /// Mirror `build_pipeline`: tokenizer and language detector always, the
    /// concept annotator for bag-of-concepts only.
    fn new(
        corpus: &Corpus,
        model: FeatureModel,
        snapshot: &KnowledgeSnapshot,
    ) -> Result<Self, String> {
        let annotator = (model == FeatureModel::BagOfConcepts)
            .then(|| ConceptAnnotator::new(&corpus.taxonomy.taxonomy));
        let engines = Engines {
            tokenizer: WhitespaceTokenizer::new(),
            langdetect: LanguageDetector::new(),
            annotator,
        };
        let mut names = vec![engines.tokenizer.name(), engines.langdetect.name()];
        names.extend(engines.annotator.as_ref().map(|a| a.name()));
        let served = snapshot.pipeline().engine_names();
        if names != served {
            return Err(format!(
                "traced engines {names:?} differ from the served pipeline {served:?}"
            ));
        }
        Ok(engines)
    }
}

/// Run the traced phase for `spec` and return per-stage samples.
pub fn run(spec: &Spec, corpus: &Corpus, inputs: &Inputs) -> Result<Traced, String> {
    let model = FeatureModel::parse(spec.model).map_err(|e| e.to_string())?;
    let svc = RecommendationService::train_with(
        corpus,
        model,
        RankerConfig::new(ClassifierFamily::Knn, SimilarityMeasure::Jaccard),
    );
    let app = QuestApp::new(Arc::new(svc), HealthInfo::default());
    let engines = Engines::new(corpus, model, &app.service().snapshot())?;
    let mut t = Timers::default();
    match spec.primary() {
        Kind::Learn => replay_learns(&app, corpus, &inputs.learns, &mut t)?,
        kind => replay_reads(&app, &engines, corpus, kind, &inputs.reads, &mut t)?,
    }
    Ok(Traced {
        samples: STAGES.iter().map(|&s| (s, t.take(s))).collect(),
    })
}

#[derive(Default)]
struct Timers(Vec<(&'static str, Vec<f64>)>);

impl Timers {
    fn record(&mut self, stage: &'static str, since: Instant) -> Instant {
        let now = Instant::now();
        let ns = (now - since).as_nanos() as f64;
        match self.0.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, v)) => v.push(ns),
            None => self.0.push((stage, vec![ns])),
        }
        now
    }

    fn take(&mut self, stage: &str) -> Vec<f64> {
        self.0
            .iter_mut()
            .find(|(s, _)| *s == stage)
            .map(|(_, v)| std::mem::take(v))
            .unwrap_or_default()
    }
}

fn keep_going(calls: usize, min: usize, start: Instant) -> bool {
    calls < MAX_CALLS && (calls < min || start.elapsed() < BUDGET)
}

fn parse_request(raw: &[u8]) -> Result<qatk_serve::Request, String> {
    let mut parser = RequestParser::new(Limits::default());
    parser.push(raw);
    parser
        .take_request()
        .map_err(|e| format!("request does not parse: {e:?}"))?
        .ok_or_else(|| "request incomplete".to_owned())
}

fn decode(req: &qatk_serve::Request) -> Result<qatk_obs::json::Value, String> {
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    qatk_obs::json::parse(text).map_err(|e| e.to_string())
}

/// The bundle `/suggest` builds from a request: only what the body carries.
fn served_bundle(b: &DataBundle) -> DataBundle {
    DataBundle {
        reference_number: b.reference_number.clone(),
        article_code: String::new(),
        part_id: b.part_id.clone(),
        error_code: None,
        responsibility_code: None,
        mechanic_report: b.mechanic_report.clone(),
        initial_report: b.initial_report.clone().filter(|s| !s.is_empty()),
        supplier_report: b.supplier_report.clone(),
        final_report: None,
        part_description: b.part_description.clone(),
        error_description: None,
    }
}

fn replay_reads(
    app: &QuestApp,
    engines: &Engines,
    corpus: &Corpus,
    kind: Kind,
    templates: &[Template],
    t: &mut Timers,
) -> Result<(), String> {
    let snapshot = app.service().snapshot();
    let start = Instant::now();
    let mut calls = 0;
    while keep_going(calls, MIN_CALLS, start) {
        let tpl = &templates[calls % templates.len()];
        let bundles: Vec<DataBundle> = tpl
            .bundles
            .iter()
            .map(|&i| served_bundle(&corpus.bundles[i]))
            .collect();

        let t0 = Instant::now();
        let req = parse_request(&tpl.raw)?;
        let t1 = t.record("serve.parse", t0);
        black_box(decode(&req)?);
        let t2 = t.record("quest.decode", t1);
        let mut cases: Vec<Cas> = match kind {
            Kind::Suggest => vec![bundles[0].to_cas(SourceSelection::Test)],
            _ => bundles
                .iter()
                .map(|b| {
                    let mut cas = Cas::new();
                    cas.add_segment("external_text", &b.supplier_report);
                    cas
                })
                .collect(),
        };
        let t3 = t.record("corpus.to_cas", t2);
        for cas in &mut cases {
            engines.tokenizer.process(cas).map_err(|e| e.to_string())?;
        }
        let t4 = t.record("text.tokenize", t3);
        for cas in &mut cases {
            engines.langdetect.process(cas).map_err(|e| e.to_string())?;
        }
        let t5 = t.record("text.langdetect", t4);
        if let Some(annotator) = &engines.annotator {
            for cas in &mut cases {
                annotator.process(cas).map_err(|e| e.to_string())?;
            }
        }
        let t6 = t.record("text.annotate", t5);
        let features: Vec<FeatureSet> = cases.iter().map(|c| snapshot.extract(c)).collect();
        let t7 = t.record("core.extract", t6);
        let ranker = snapshot.ranker();
        if kind == Kind::Suggest {
            black_box(ranker.rank(
                snapshot.kb(),
                Some(snapshot.index()),
                &bundles[0].part_id,
                &features[0],
            ));
            t.record("core.rank", t7);
        } else {
            let queries: Vec<BatchQuery<'_>> = features
                .iter()
                .map(|f| BatchQuery {
                    part_id: "<external>",
                    features: f,
                })
                .collect();
            black_box(ranker.rank_batch(snapshot.kb(), Some(snapshot.index()), &queries));
            t.record("core.rank_batch", t7);
        }

        let h0 = Instant::now();
        let resp = app.handle(&req);
        t.record("quest.handle", h0);
        if resp.status != 200 {
            return Err(format!("in-process handle answered {}", resp.status));
        }

        if calls < EQUIVALENCE_CHECKS {
            for (i, b) in bundles.iter().enumerate() {
                let mut cas = match kind {
                    Kind::Suggest => b.to_cas(SourceSelection::Test),
                    _ => {
                        let mut cas = Cas::new();
                        cas.add_segment("external_text", &b.supplier_report);
                        cas
                    }
                };
                let served = snapshot
                    .process_and_extract(&mut cas)
                    .map_err(|e| e.to_string())?;
                if served != features[i] {
                    return Err(format!(
                        "staged features differ from process_and_extract for {}",
                        b.reference_number
                    ));
                }
            }
        }
        calls += 1;
    }
    Ok(())
}

fn replay_learns(
    app: &QuestApp,
    corpus: &Corpus,
    templates: &[Template],
    t: &mut Timers,
) -> Result<(), String> {
    let start = Instant::now();
    let mut calls = 0;
    while keep_going(calls, MIN_LEARN_CALLS, start) {
        let tpl = &templates[calls % templates.len()];
        let b = &corpus.bundles[tpl.bundles[0]];
        // what `/learn` builds from its body
        let bundle = DataBundle {
            reference_number: String::new(),
            initial_report: None,
            part_description: String::new(),
            ..served_bundle(b)
        };
        let code = b.error_code.as_deref().expect("learn bundles are coded");
        // each learn starts from the epoch the handler would start from
        let base = app.service().snapshot();

        let t0 = Instant::now();
        let req = parse_request(&tpl.raw)?;
        let t1 = t.record("serve.parse", t0);
        black_box(decode(&req)?);
        let t2 = t.record("quest.decode", t1);
        let mut cas = bundle.to_cas(SourceSelection::Training);
        let t3 = t.record("corpus.to_cas", t2);
        let mut builder = SnapshotBuilder::from_snapshot(&base);
        let t4 = t.record("core.cow_build", t3);
        builder
            .train_instance(&mut cas, &bundle.part_id, code)
            .map_err(|e| e.to_string())?;
        let t5 = t.record("core.train_instance", t4);
        let sealed = builder.seal();
        t.record("core.seal", t5);
        drop(black_box(sealed));
        drop(base);

        let h0 = Instant::now();
        let resp = app.handle(&req);
        t.record("quest.handle", h0);
        if resp.status != 200 {
            return Err(format!("in-process learn answered {}", resp.status));
        }
        calls += 1;
    }
    Ok(())
}
