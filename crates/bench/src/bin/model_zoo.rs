//! model_zoo — the (feature model × classifier family) evaluation grid.
//!
//! Two deliverables from one binary:
//!
//! * **quality** (default): run every cell of the grid — four feature
//!   models (bag-of-words, bag-of-words-no-stop, bag-of-concepts, char
//!   3–5-grams) × the four zoo families — through `run_experiment`'s
//!   stratified CV on the paper corpus, and emit micro-F1, macro-F1 and
//!   accuracy@{1,5,25} per cell to `MODEL_ZOO.json` plus a table on
//!   stdout. The kNN × bag-of-words and kNN × bag-of-concepts cells are
//!   asserted against the golden-accuracy snapshot (511/548 resp.
//!   507/548 @1 on seed 20160315), so the zoo harness itself is pinned to
//!   the paper kernel's behaviour.
//! * **timing**: per-family `rank_batch` medians over one shared
//!   knowledge base (`zoo_rank_<family>`), merged into the bench-gate
//!   baseline (default `BENCH_PR10.json`) and gated by `--check` with the
//!   same 25% median + p95 tolerance as every other bench.
//!
//! `--scale 100k|1m` skips the CV grid (scale corpora carry pre-extracted
//! synthetic features, so feature models don't apply) and instead times
//! every family's rank path at tier size: `zoo_rank_<tier>_<family>`.
//!
//! Run: `cargo run --release -p qatk-bench --bin model_zoo -- \
//!       [--scale 100k|1m] [--out F] [--zoo-out F] [--check BASELINE] [--seed N]`

use std::process::ExitCode;
use std::time::Instant;

use qatk_bench::report::{
    bench, check_against, merge_entries, parse_entries, render_report, BenchResult,
    REGRESSION_TOLERANCE,
};
use qatk_core::prelude::*;
use qatk_corpus::bundle::SourceSelection;
use qatk_corpus::generator::{Corpus, CorpusConfig};
use qatk_corpus::scale::{ScaleConfig, ScaleCorpus, ScaleTier};
use qatk_obs::json::{self, Value as Json};

/// The corpus seed the golden-accuracy snapshot is pinned to.
const GOLDEN_SEED: u64 = 20160315; // EDBT 2016
/// Folds matching `crates/core/tests/golden_accuracy.rs`.
const FOLDS: usize = 3;
/// Absolute accuracy@1 drift tolerated against the golden snapshot. CV
/// on 548 items quantizes accuracy to 1/548 ≈ 0.0018, so this allows a
/// one-item wobble and nothing more.
const GOLDEN_TOLERANCE: f64 = 2.5 / 548.0;

/// The feature models under evaluation (the grid's columns).
const MODELS: [FeatureModel; 4] = [
    FeatureModel::BagOfWords,
    FeatureModel::BagOfWordsNoStop,
    FeatureModel::BagOfConcepts,
    FeatureModel::CharNgrams { lo: 3, hi: 5 },
];

/// One evaluated grid cell.
struct ZooCell {
    model: String,
    classifier: &'static str,
    label: String,
    micro_f1: f64,
    macro_f1: f64,
    acc_at: [(usize, f64); 3],
    total_tested: usize,
    cv_seconds: f64,
}

fn accuracy_at(result: &ExperimentResult, k: usize) -> f64 {
    let i = result
        .classifier
        .ks
        .iter()
        .position(|&x| x == k)
        .expect("PAPER_KS tracks 1, 5 and 25");
    result.classifier.accuracy[i]
}

/// Run one (model, family) cell through stratified CV.
fn run_cell(corpus: &Corpus, model: FeatureModel, family: ClassifierFamily) -> ZooCell {
    let config = ClassifierConfig {
        model,
        classifier: family,
        folds: FOLDS,
        ..ClassifierConfig::default()
    };
    let t = Instant::now();
    let result = run_experiment(corpus, &config);
    ZooCell {
        model: model.label(),
        classifier: family.label(),
        label: config.label(),
        micro_f1: result.micro_f1,
        macro_f1: result.macro_f1,
        acc_at: [
            (1, accuracy_at(&result, 1)),
            (5, accuracy_at(&result, 5)),
            (25, accuracy_at(&result, 25)),
        ],
        total_tested: result.total_tested,
        cv_seconds: t.elapsed().as_secs_f64(),
    }
}

/// Pin the zoo harness to the golden-accuracy snapshot: the kNN cells must
/// reproduce the exact curve `crates/core/tests/golden_accuracy.rs` pins.
fn assert_golden(cells: &[ZooCell]) -> Result<(), String> {
    for (model, golden_at_1) in [
        ("bag-of-words", 511.0 / 548.0),
        ("bag-of-concepts", 507.0 / 548.0),
    ] {
        let cell = cells
            .iter()
            .find(|c| c.model == model && c.classifier == "knn")
            .ok_or_else(|| format!("grid is missing the knn × {model} golden cell"))?;
        if cell.total_tested != 548 {
            return Err(format!(
                "{}: tested {} items, golden snapshot expects 548",
                cell.label, cell.total_tested
            ));
        }
        let got = cell.acc_at[0].1;
        if (got - golden_at_1).abs() > GOLDEN_TOLERANCE {
            return Err(format!(
                "{}: accuracy@1 {got:.6} drifted from golden {golden_at_1:.6} \
                 (tolerance {GOLDEN_TOLERANCE:.6})",
                cell.label
            ));
        }
    }
    eprintln!("golden check: knn × {{bag-of-words, bag-of-concepts}} match the pinned snapshot");
    Ok(())
}

/// Render the `qatk-model-zoo/v1` JSON document.
fn render_zoo_report(seed: u64, cells: &[ZooCell]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"qatk-model-zoo/v1\",\n  \"corpus_seed\": {seed},\n  \
         \"folds\": {FOLDS},\n  \"cells\": [\n"
    );
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"classifier\": \"{}\", \"label\": \"{}\", \
             \"micro_f1\": {:.6}, \"macro_f1\": {:.6}, \"acc_at_1\": {:.6}, \
             \"acc_at_5\": {:.6}, \"acc_at_25\": {:.6}, \"total_tested\": {}}}{}\n",
            json::escape(&c.model),
            json::escape(c.classifier),
            json::escape(&c.label),
            c.micro_f1,
            c.macro_f1,
            c.acc_at[0].1,
            c.acc_at[1].1,
            c.acc_at[2].1,
            c.total_tested,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The quality grid on the paper corpus.
fn run_grid(seed: u64) -> Vec<ZooCell> {
    eprintln!("generating paper corpus (seed {seed}) ...");
    let corpus = Corpus::generate(CorpusConfig::small(seed));
    let mut cells = Vec::with_capacity(MODELS.len() * ClassifierFamily::ALL.len());
    for model in MODELS {
        for family in ClassifierFamily::ALL {
            let cell = run_cell(&corpus, model, family);
            eprintln!(
                "  {:32} micro-F1 {:.4}  macro-F1 {:.4}  @1 {:.4}  ({:.1}s)",
                cell.label, cell.micro_f1, cell.macro_f1, cell.acc_at[0].1, cell.cv_seconds
            );
            cells.push(cell);
        }
    }
    cells
}

fn print_grid(cells: &[ZooCell]) {
    println!(
        "\n== model zoo ({FOLDS}-fold stratified CV, {} items) ==",
        cells[0].total_tested
    );
    println!(
        "{:24} {:12} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "model", "classifier", "micro-F1", "macro-F1", "acc@1", "acc@5", "acc@25"
    );
    for c in cells {
        println!(
            "{:24} {:12} {:>9.4} {:>9.4} {:>7.4} {:>7.4} {:>7.4}",
            c.model,
            c.classifier,
            c.micro_f1,
            c.macro_f1,
            c.acc_at[0].1,
            c.acc_at[1].1,
            c.acc_at[2].1
        );
    }
}

/// Build the (part, features) query set and KB for the timing benches:
/// full-corpus training under `model`, first 120 bundles as the worklist.
fn paper_kb(
    corpus: &Corpus,
    model: FeatureModel,
) -> Result<(KnowledgeBase, Vec<(String, FeatureSet)>), String> {
    let pipeline = build_pipeline(corpus, model);
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for b in &corpus.bundles {
        let Some(code) = b.error_code.as_deref() else {
            continue;
        };
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).map_err(|e| e.to_string())?;
        kb.insert(b.part_id.clone(), code, space.extract(&cas, model));
    }
    let queries = corpus
        .bundles
        .iter()
        .take(120)
        .map(|b| {
            let mut cas = b.to_cas(SourceSelection::Test);
            pipeline.process(&mut cas).expect("corpus text is clean");
            (b.part_id.clone(), space.extract(&cas, model))
        })
        .collect();
    Ok((kb, queries))
}

/// Per-family rank_batch medians over one shared KB and its sealed index,
/// sealed once outside the timing loop; `tag` distinguishes
/// the paper corpus ("") from the scale tiers ("_100k"). `batch_reps`
/// replicates the worklist within a single timed batch: the paper-corpus
/// batches are only ~100µs, so the scoped-thread spawn cost of the eager
/// families lands straight in p95 unless amortized over a larger batch.
fn bench_families(
    kb: &KnowledgeBase,
    queries: &[(String, FeatureSet)],
    tag: &str,
    samples: usize,
    batch_reps: usize,
) -> Vec<BenchResult> {
    let refs: Vec<BatchQuery<'_>> = std::iter::repeat_n(queries.iter(), batch_reps.max(1))
        .flatten()
        .map(|(part, f)| BatchQuery {
            part_id: part,
            features: f,
        })
        .collect();
    let idx = SealedIndex::build(kb);
    let mut benches = Vec::new();
    for family in ClassifierFamily::ALL {
        let t = Instant::now();
        let ranker = RankerConfig::new(family, SimilarityMeasure::Jaccard).train(kb);
        eprintln!(
            "  trained {} in {:.1}s; benchmarking zoo_rank{tag}_{} ...",
            family.label(),
            t.elapsed().as_secs_f64(),
            family.label()
        );
        let name = format!("zoo_rank{tag}_{}", family.label().replace('-', "_"));
        benches.push(bench(&name, refs.len() as u64, 1, samples, || {
            std::hint::black_box(ranker.rank_batch(kb, Some(&idx), &refs));
        }));
    }
    benches
}

/// The scale-tier timing pass: every family at tier size over synthetic
/// pre-extracted features (feature models don't apply here — the tiers
/// have no text to extract from).
fn run_scale(tier: ScaleTier, seed: u64) -> Vec<BenchResult> {
    let label = tier.label();
    let config = ScaleConfig::tier(tier, seed);
    eprintln!(
        "generating {label} scale corpus ({} bundles, seed {seed}) ...",
        config.n_bundles
    );
    let corpus = ScaleCorpus::generate(config);
    let mut kb = KnowledgeBase::new();
    for b in corpus.bundles() {
        kb.insert(
            ScaleCorpus::part_name(b.part),
            ScaleCorpus::code_name(b.code),
            FeatureSet::from_unsorted(b.features.to_vec()),
        );
    }
    eprintln!("  {} nodes", kb.len());
    let queries: Vec<(String, FeatureSet)> = corpus
        .queries(120, seed)
        .into_iter()
        .map(|(part, feats)| {
            (
                ScaleCorpus::part_name(part),
                FeatureSet::from_unsorted(feats),
            )
        })
        .collect();
    bench_families(&kb, &queries, &format!("_{label}"), 3, 1)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_PR10.json");
    let zoo_out = flag_value(&args, "--zoo-out").unwrap_or("MODEL_ZOO.json");
    let check_path = flag_value(&args, "--check");
    let seed: u64 = flag_value(&args, "--seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed `{s}`")))
        .transpose()?
        .unwrap_or(GOLDEN_SEED);
    let scale = flag_value(&args, "--scale")
        .map(|s| {
            ScaleTier::parse(s).ok_or_else(|| format!("bad --scale `{s}` (expected 100k|1m|10m)"))
        })
        .transpose()?;

    let benches = match scale {
        Some(tier) => run_scale(tier, seed),
        None => {
            let cells = run_grid(seed);
            print_grid(&cells);
            if seed == GOLDEN_SEED {
                assert_golden(&cells)?;
            } else {
                eprintln!("golden check skipped: seed {seed} is not the pinned {GOLDEN_SEED}");
            }
            std::fs::write(zoo_out, render_zoo_report(seed, &cells))
                .map_err(|e| format!("writing {zoo_out}: {e}"))?;
            println!("wrote {zoo_out} ({} cells)", cells.len());

            eprintln!("\ntiming pass (bag-of-concepts KB, 120-query batches) ...");
            let corpus = Corpus::generate(CorpusConfig::small(seed));
            let (kb, queries) = paper_kb(&corpus, FeatureModel::BagOfConcepts)?;
            bench_families(&kb, &queries, "", 20, 8)
        }
    };

    println!("\n== model_zoo timings ==");
    for b in &benches {
        println!(
            "{:24} median {:>12} ns  p95 {:>12} ns  {:>14.1} items/s",
            b.bench, b.median_ns, b.p95_ns, b.throughput
        );
    }

    // merge into the shared bench baseline, exactly like bench_report
    let (previous, prev_obs, prev_trace_rank, prev_trace_serve) =
        match std::fs::read_to_string(out_path) {
            Ok(text) => {
                let prev =
                    json::parse(&text).map_err(|e| format!("parsing existing {out_path}: {e}"))?;
                (
                    parse_entries(&prev)?,
                    prev.get("obs_overhead_pct").and_then(Json::as_f64),
                    prev.get("trace_overhead_rank_pct").and_then(Json::as_f64),
                    prev.get("trace_overhead_serve_pct").and_then(Json::as_f64),
                )
            }
            Err(_) => (Vec::new(), None, None, None),
        };
    let merged = merge_entries(&previous, &benches);
    let report = render_report(
        &merged,
        prev_obs.unwrap_or(0.0),
        prev_trace_rank.unwrap_or(0.0),
        prev_trace_serve.unwrap_or(0.0),
    );
    std::fs::write(out_path, &report).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "wrote {out_path} ({} entries, {} fresh)",
        merged.len(),
        benches.len()
    );

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline = json::parse(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?;
        let regressions = check_against(&baseline, &benches)?;
        if !regressions.is_empty() {
            return Err(format!(
                "bench gate: {} regression(s) beyond {:.0}%:\n  {}",
                regressions.len(),
                REGRESSION_TOLERANCE * 100.0,
                regressions.join("\n  ")
            ));
        }
        println!("bench gate: all benches within tolerance");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
