//! Serving-layer concurrency battery (ISSUE 6 satellite 3): N clients
//! hammer `POST /suggest` over keep-alive connections while a writer loops
//! `POST /learn` epoch publishes. Invariants, mirroring the snapshot
//! concurrency suite one layer down:
//!
//! * every `/suggest` response is internally consistent — its epoch is one
//!   the service actually published, and each suggested code is in the
//!   part's own code list;
//! * per connection, observed epochs never decrease (each request sees the
//!   published snapshot or a newer one);
//! * `/healthz` epochs are monotonically non-decreasing;
//! * shutdown drains: every `/learn` acked with a 200 is published — after
//!   the server is gone, the shared service's knowledge base accounts for
//!   every acked instance;
//! * text without a token character ("!!!", NUL) is served like any other
//!   text on every endpoint: no handler panics, and a learn of it beside a
//!   good learn cannot make the good one vanish.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qatk_core::prelude::{FeatureModel, SimilarityMeasure};
use qatk_corpus::generator::{Corpus, CorpusConfig};
use qatk_obs::json::{self, Value};
use qatk_serve::{HttpClient, Server, ServerConfig};
use quest::prelude::*;

fn start(model: FeatureModel) -> (Server, Arc<RecommendationService>, Corpus) {
    let corpus = Corpus::generate(CorpusConfig::small(23));
    let svc = Arc::new(RecommendationService::train(
        &corpus,
        model,
        SimilarityMeasure::Overlap,
    ));
    let app = Arc::new(QuestApp::new(Arc::clone(&svc), HealthInfo::default()));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 6,
            ..ServerConfig::default()
        },
        app,
    )
    .expect("bind loopback");
    (server, svc, corpus)
}

fn parse_json(body: &[u8]) -> Value {
    json::parse(std::str::from_utf8(body).expect("response is UTF-8")).expect("response is JSON")
}

#[test]
fn readers_see_consistent_monotonic_epochs_under_publishes() {
    const READERS: usize = 4;
    const READS_PER_CLIENT: usize = 60;
    const LEARN_BATCHES: usize = 12;

    let (server, svc, corpus) = start(FeatureModel::BagOfWords);
    let addr = server.local_addr();
    let initial_epoch = svc.epoch();
    let writer_done = AtomicBool::new(false);
    let max_health_epoch = AtomicU64::new(initial_epoch);

    let suggest_body = {
        let b = &corpus.bundles[0];
        format!(
            "{{\"part_id\":\"{}\",\"text\":\"{}\"}}",
            json::escape(&b.part_id),
            json::escape(&b.supplier_report)
        )
    };

    std::thread::scope(|scope| {
        // the writer: each /learn publishes one epoch
        scope.spawn(|| {
            let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
            for i in 0..LEARN_BATCHES {
                let body = format!(
                    "{{\"part_id\":\"{}\",\"text\":\"novel failure mode {i} vibration\",\"code\":\"EX-{i}\"}}",
                    json::escape(&corpus.bundles[0].part_id)
                );
                let r = c.request("POST", "/learn", Some(&body)).unwrap();
                assert_eq!(r.status, 200, "{}", r.body_str());
                let doc = parse_json(&r.body);
                // ack ⇒ published: the service must already be at the epoch
                // the response reports
                let acked = doc.get("epoch").and_then(Value::as_u64).unwrap();
                assert!(
                    svc.epoch() >= acked,
                    "learn acked epoch {acked} before the service reached it"
                );
            }
            writer_done.store(true, Ordering::Release);
        });

        // the health poller: epochs never go backwards
        scope.spawn(|| {
            let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
            let mut last = initial_epoch;
            while !writer_done.load(Ordering::Acquire) {
                let r = c.request("GET", "/healthz", None).unwrap();
                assert_eq!(r.status, 200);
                let doc = parse_json(&r.body);
                let epoch = doc.get("epoch").and_then(Value::as_u64).unwrap();
                assert!(epoch >= last, "healthz epoch regressed: {last} -> {epoch}");
                last = epoch;
                max_health_epoch.fetch_max(epoch, Ordering::AcqRel);
            }
        });

        // the readers: hammer /suggest on keep-alive connections
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                let mut last_epoch = 0u64;
                for _ in 0..READS_PER_CLIENT {
                    let r = c.request("POST", "/suggest", Some(&suggest_body)).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body_str());
                    let doc = parse_json(&r.body);
                    let epoch = doc.get("epoch").and_then(Value::as_u64).unwrap();
                    assert!(
                        epoch >= last_epoch,
                        "per-connection epoch regressed: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    // internal consistency: suggested codes come from the
                    // part's own code list of the same snapshot
                    let all: Vec<&str> = doc
                        .get("all_codes_for_part")
                        .and_then(Value::as_arr)
                        .unwrap()
                        .iter()
                        .filter_map(Value::as_str)
                        .collect();
                    for sc in doc.get("top").and_then(Value::as_arr).unwrap() {
                        let code = sc.get("code").and_then(Value::as_str).unwrap();
                        assert!(
                            all.contains(&code),
                            "suggested code {code} missing from the part's code list (epoch {epoch})"
                        );
                    }
                }
            });
        }
    });

    // every /learn published exactly one epoch
    assert_eq!(svc.epoch(), initial_epoch + LEARN_BATCHES as u64);
    assert!(max_health_epoch.load(Ordering::Acquire) <= svc.epoch());
    server.shutdown();
}

#[test]
fn shutdown_drains_without_dropping_acked_learns() {
    const LEARNS: usize = 8;

    let (server, svc, corpus) = start(FeatureModel::BagOfWords);
    let addr = server.local_addr();
    let kb_before = svc.kb_len();
    let part = corpus.bundles[0].part_id.clone();

    // ack every learn, then shut the server down immediately afterwards —
    // anything the client saw a 200 for must already be in the service
    let mut acked_added = 0u64;
    let mut last_acked_epoch = 0u64;
    let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
    for i in 0..LEARNS {
        let body = format!(
            "{{\"part_id\":\"{}\",\"text\":\"drain check instance {i} leakage\",\"code\":\"DR-{i}\"}}",
            json::escape(&part)
        );
        let r = c.request("POST", "/learn", Some(&body)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body_str());
        let doc = parse_json(&r.body);
        acked_added += doc.get("added").and_then(Value::as_u64).unwrap();
        last_acked_epoch = doc.get("epoch").and_then(Value::as_u64).unwrap();
    }
    server.shutdown();

    // the server is gone; the shared service retains every acked learn
    assert_eq!(svc.pending_len(), 0, "acked learns left unpublished");
    assert!(svc.epoch() >= last_acked_epoch);
    assert_eq!(
        svc.kb_len() as u64,
        kb_before as u64 + acked_added,
        "acked instances missing from the knowledge base after shutdown"
    );
    // and the port no longer accepts work
    assert!(
        HttpClient::connect(addr, Duration::from_millis(300))
            .and_then(|mut c| c.request("GET", "/healthz", None))
            .is_err(),
        "server still serving after shutdown"
    );
}

#[test]
fn concurrent_batch_classification_pins_one_epoch() {
    const WRITER_ROUNDS: usize = 6;

    let (server, svc, corpus) = start(FeatureModel::BagOfWords);
    let addr = server.local_addr();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
            for i in 0..WRITER_ROUNDS {
                let body = format!(
                    "{{\"part_id\":\"{}\",\"text\":\"pin check {i} corrosion\",\"code\":\"PC-{i}\"}}",
                    json::escape(&corpus.bundles[0].part_id)
                );
                let r = c.request("POST", "/learn", Some(&body)).unwrap();
                assert_eq!(r.status, 200);
            }
            done.store(true, Ordering::Release);
        });

        scope.spawn(|| {
            let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
            let body = "{\"texts\":[\"engine stalls at idle\",\"coolant leak near hose\",\"rattling noise over bumps\"]}";
            let mut last_epoch = 0u64;
            while !done.load(Ordering::Acquire) {
                let r = c.request("POST", "/classify_batch", Some(body)).unwrap();
                assert_eq!(r.status, 200, "{}", r.body_str());
                let doc = parse_json(&r.body);
                let epoch = doc.get("epoch").and_then(Value::as_u64).unwrap();
                assert!(epoch >= last_epoch, "batch epoch regressed");
                last_epoch = epoch;
                let results = doc.get("results").and_then(Value::as_arr).unwrap();
                assert_eq!(results.len(), 3, "one ranking per text, always");
            }
        });
    });
    assert!(svc.epoch() >= WRITER_ROUNDS as u64);
    server.shutdown();
}

#[test]
fn punctuation_only_text_is_served_and_cannot_eat_a_concurrent_learn() {
    // bag-of-concepts: the pipeline whose concept annotator reads tokens
    let (server, svc, corpus) = start(FeatureModel::BagOfConcepts);
    let addr = server.local_addr();
    let panics_before = qatk_serve::metrics::metrics().handler_panics_total.get();
    let epoch_before = svc.epoch();
    let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();

    let r = c
        .request(
            "POST",
            "/classify_batch",
            Some("{\"texts\":[\"!!!\",\"?\",\" . \",\"\\u0000\"]}"),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());
    let results = parse_json(&r.body);
    let results = results.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 4);

    let part = json::escape(&corpus.bundles[0].part_id);
    let body = format!(
        "{{\"part_id\":\"{part}\",\"mechanic_report\":\"!!!\",\"initial_report\":\"?\",\
         \"supplier_report\":\"\\u0000 ...\",\"part_description\":\"(!)\"}}"
    );
    let r = c.request("POST", "/suggest", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());

    // a "!!!" learn and a good learn, released together on two connections
    let good_text = json::escape(&corpus.bundles[0].supplier_report);
    let learns = [
        "{\"part_id\":\"P-NEW\",\"text\":\"!!!\",\"code\":\"EX-BANG\"}".to_owned(),
        format!("{{\"part_id\":\"P-NEW\",\"text\":\"{good_text}\",\"code\":\"EX-GOOD\"}}"),
    ];
    let barrier = std::sync::Barrier::new(learns.len());
    std::thread::scope(|scope| {
        for body in &learns {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut c = HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                barrier.wait();
                let r = c.request("POST", "/learn", Some(body)).unwrap();
                assert_eq!(r.status, 200, "{body}: {}", r.body_str());
            });
        }
    });
    assert!(svc.epoch() > epoch_before);
    assert_eq!(svc.pending_len(), 0);

    let body = format!("{{\"part_id\":\"P-NEW\",\"text\":\"{good_text}\"}}");
    let r = c.request("POST", "/suggest", Some(&body)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());
    let doc = parse_json(&r.body);
    let top = doc.get("top").and_then(Value::as_arr).unwrap();
    assert_eq!(
        top.first()
            .and_then(|s| s.get("code"))
            .and_then(Value::as_str),
        Some("EX-GOOD"),
        "the good learn is not visible: {}",
        r.body_str()
    );

    assert_eq!(
        qatk_serve::metrics::metrics().handler_panics_total.get(),
        panics_before,
        "a handler panicked"
    );
    server.shutdown();
}
