//! The recommendation service behind the QUEST error-code assignment screen.
//!
//! Paper §4.5.4: "the user is first presented with a selection of the 10 most
//! likely error codes in descending order of likelihood. If the user decides
//! that the correct error code is not among these 10 codes, they can access
//! the list of all error codes available for the part ID of the current data
//! bundle". Scored suggestions and final assignments are persisted
//! relationally (§4.3: "These scored error codes are stored in a relational
//! database and presented to the quality worker via the web app interface").
//!
//! ## Concurrency model (DESIGN.md §8)
//!
//! The whole serving path is `&self`: every query loads the currently
//! published [`KnowledgeSnapshot`] from an [`EpochCell`] (one read lock + one
//! `Arc` clone) and runs entirely against that immutable snapshot — frozen
//! vocabulary, sealed knowledge base, precomputed per-part code lists.
//! Writers ([`RecommendationService::learn`],
//! [`RecommendationService::create_code`], or the batched
//! [`RecommendationService::enqueue_learn`] →
//! [`RecommendationService::publish_pending`] path) serialize on a pending
//! mutex, rebuild the next snapshot copy-on-write, and publish it with one
//! atomic pointer swap. In-flight readers finish on the epoch they loaded;
//! new queries observe the new epoch.

use std::sync::{Arc, Mutex, PoisonError};

use qatk_core::prelude::*;
use qatk_corpus::bundle::{DataBundle, SourceSelection};
use qatk_corpus::generator::Corpus;
use qatk_store::prelude::*;
use qatk_text::cas::Cas;
use qatk_text::engine::Pipeline;

use crate::users::{Role, UserError, UserRegistry};

/// Number of suggestions shown on the first screen.
pub const TOP_SUGGESTIONS: usize = 10;

/// What the assignment screen shows for one bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestions {
    pub reference_number: String,
    /// The ranked top-10 (at most).
    pub top: Vec<ScoredCode>,
    /// Fallback: every code known for this part ID, sorted. A cheap clone of
    /// the list the snapshot precomputed at seal time.
    pub all_codes_for_part: Arc<[String]>,
}

/// Service errors.
#[derive(Debug)]
pub enum ServiceError {
    Store(StoreError),
    User(UserError),
    UnknownCode { code: String, part_id: String },
    AlreadyAssigned { reference: String, code: String },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Store(e) => write!(f, "storage error: {e}"),
            ServiceError::User(e) => write!(f, "user error: {e}"),
            ServiceError::UnknownCode { code, part_id } => {
                write!(f, "code {code} is not defined for part {part_id}")
            }
            ServiceError::AlreadyAssigned { reference, code } => {
                write!(f, "bundle {reference} already carries code {code}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<UserError> for ServiceError {
    fn from(e: UserError) -> Self {
        ServiceError::User(e)
    }
}

/// Result table names used by the service.
pub mod tables {
    /// Scored suggestions per (bundle, code).
    pub const RECOMMENDATIONS: &str = "recommendations";
    /// Final assignments with the assigning user.
    pub const ASSIGNMENTS: &str = "assignments";
}

/// What [`RecommendationService::recover`] reconstructed from disk.
pub struct RecoveredService {
    /// The service, if the recovered store held a persisted knowledge
    /// snapshot (`None` on a fresh store).
    pub service: Option<RecommendationService>,
    /// The recovered store, ready for further logged writes.
    pub store: LoggedDatabase,
    /// What recovery found: snapshot, segments, replayed records, torn tail.
    pub report: RecoveryReport,
}

/// A learn instance waiting for the next snapshot publish: the raw training
/// CAS plus its (part, code) label. Processing and extraction happen at
/// publish time against the builder's growing vocabulary.
struct PendingInstance {
    cas: Cas,
    part_id: String,
    code: String,
}

/// The recommendation service: an epoch-swapped knowledge snapshot serving
/// `&self` queries, plus a pending delta for incremental learning and the
/// persistence of its outputs.
///
/// Ranking is fully snapshot-driven: the snapshot carries the ranker trained
/// at seal time ([`KnowledgeSnapshot::ranker`]), so the service — and the
/// HTTP layer above it — never names a classifier family. Adding a family to
/// the zoo requires zero changes here.
pub struct RecommendationService {
    current: EpochCell<KnowledgeSnapshot>,
    pending: Mutex<Vec<PendingInstance>>,
}

impl RecommendationService {
    /// Train from the coded bundles of a corpus with the paper's ranked kNN.
    pub fn train(corpus: &Corpus, model: FeatureModel, measure: SimilarityMeasure) -> Self {
        Self::train_with(
            corpus,
            model,
            RankerConfig::new(ClassifierFamily::Knn, measure),
        )
    }

    /// Train from the coded bundles of a corpus with an explicit classifier
    /// family + measure (the `--classifier` path of the CLI).
    pub fn train_with(corpus: &Corpus, model: FeatureModel, ranker: RankerConfig) -> Self {
        let pipeline = Arc::new(build_pipeline(corpus, model));
        let mut builder = SnapshotBuilder::new(pipeline, model).with_ranker(ranker);
        for b in &corpus.bundles {
            let Some(code) = b.error_code.as_deref() else {
                continue;
            };
            let mut cas = b.to_cas(SourceSelection::Training);
            builder
                .train_instance(&mut cas, &b.part_id, code)
                .expect("build_pipeline tokenizes first, so any text processes");
        }
        Self::from_snapshot(builder.seal())
    }

    /// Wrap an already sealed snapshot (e.g. one loaded from a database).
    /// The snapshot brings its own trained ranker.
    pub fn from_snapshot(snapshot: KnowledgeSnapshot) -> Self {
        crate::metrics::metrics().epoch.set(snapshot.epoch() as i64);
        RecommendationService {
            current: EpochCell::new(snapshot),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Resume from the newest snapshot persisted in `db`, if any. The
    /// classifier family and measure come from the persisted snapshot meta.
    pub fn load_latest(db: &Database, pipeline: Arc<Pipeline>) -> StoreResult<Option<Self>> {
        Ok(KnowledgeSnapshot::load_latest(db, pipeline)?.map(Self::from_snapshot))
    }

    /// Persist the currently published snapshot under its epoch.
    pub fn save_snapshot(&self, db: &mut Database) -> StoreResult<()> {
        self.current.load().save_to_db(db)
    }

    /// Persist the published snapshot into `db` and write the whole
    /// database to `path` atomically (temp file + fsync + rename + parent
    /// directory fsync): a crash mid-save never destroys the previous
    /// snapshot file.
    pub fn save_snapshot_file(
        &self,
        db: &mut Database,
        path: impl AsRef<std::path::Path>,
    ) -> StoreResult<()> {
        self.save_snapshot(db)?;
        db.save(path)
    }

    /// Crash-safe resume: recover the store from `snapshot_path` plus every
    /// surviving WAL segment (DESIGN.md §9), then rebuild the service from
    /// the newest knowledge snapshot persisted in it. Damage surfaces as an
    /// `Err` and a store without a persisted snapshot as `service: None` —
    /// recovery reports its outcome instead of panicking.
    pub fn recover(
        snapshot_path: impl AsRef<std::path::Path>,
        wal_path: impl AsRef<std::path::Path>,
        policy: SyncPolicy,
        pipeline: Arc<Pipeline>,
    ) -> StoreResult<RecoveredService> {
        Self::recover_with_retention(
            snapshot_path,
            wal_path,
            policy,
            SegmentRetention::default(),
            pipeline,
        )
    }

    /// [`RecommendationService::recover`] with an explicit sealed-segment
    /// retention policy. A replicating leader opens with
    /// [`SegmentRetention::Keep`] so followers can resume from recent
    /// sealed segments instead of forcing a full snapshot reseed.
    pub fn recover_with_retention(
        snapshot_path: impl AsRef<std::path::Path>,
        wal_path: impl AsRef<std::path::Path>,
        policy: SyncPolicy,
        retention: SegmentRetention,
        pipeline: Arc<Pipeline>,
    ) -> StoreResult<RecoveredService> {
        let (store, report) =
            LoggedDatabase::open_with_retention(snapshot_path, wal_path, policy, retention)?;
        let service = Self::load_latest(store.db(), pipeline)?;
        Ok(RecoveredService {
            service,
            store,
            report,
        })
    }

    /// The currently published snapshot. Hold the `Arc` to pin an epoch
    /// across several calls (e.g. a consistent paginated worklist).
    pub fn snapshot(&self) -> Arc<KnowledgeSnapshot> {
        self.current.load()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.load().epoch()
    }

    /// Knowledge-base size (configuration instances).
    pub fn kb_len(&self) -> usize {
        self.current.load().kb().len()
    }

    /// Label of the feature model the published snapshot was trained under
    /// (e.g. `bag-of-concepts`, `char-ngrams-3-5`).
    pub fn model_label(&self) -> String {
        self.current.load().model().label()
    }

    /// Label of the classifier family serving queries (e.g. `knn`,
    /// `centroid`).
    pub fn classifier_label(&self) -> &'static str {
        self.current.load().ranker_config().family.label()
    }

    /// Label of the similarity measure configured for the ranker.
    pub fn measure_label(&self) -> &'static str {
        self.current.load().ranker_config().measure.label()
    }

    /// Suggestions for a (possibly not yet coded) bundle.
    pub fn suggest(&self, bundle: &DataBundle) -> Suggestions {
        let m = crate::metrics::metrics();
        let _span = qatk_obs::Timer::start(m.suggest_latency_ns);
        m.suggest_total.inc();
        self.suggest_on(&self.current.load(), bundle)
    }

    /// [`RecommendationService::suggest`] against a caller-pinned snapshot —
    /// every bundle of a worklist sees the same epoch even if a publish
    /// lands mid-iteration.
    pub fn suggest_on(&self, snapshot: &KnowledgeSnapshot, bundle: &DataBundle) -> Suggestions {
        let features = Self::extract_with(snapshot, bundle);
        // dispatch through the snapshot's seal-time-trained ranker; the kNN
        // family serves off the snapshot's sealed segment
        let ranked = snapshot.ranker().rank(
            snapshot.kb(),
            Some(snapshot.index()),
            &bundle.part_id,
            &features,
        );
        Self::assemble(snapshot, bundle, ranked)
    }

    /// Suggestions for a whole worklist at once. The rankings come out of
    /// [`qatk_core::zoo::Classifier::rank_batch`], which fans all but the
    /// smallest worklists across scoped worker threads — per-bundle results
    /// are identical to calling [`RecommendationService::suggest`] in a
    /// loop, and the whole batch runs on one pinned snapshot regardless of
    /// concurrent publishes.
    pub fn suggest_batch(&self, bundles: &[&DataBundle]) -> Vec<Suggestions> {
        let m = crate::metrics::metrics();
        let _span = qatk_obs::Timer::start(m.suggest_batch_latency_ns);
        m.suggest_batch_total.inc();
        m.suggest_batch_size.record(bundles.len() as u64);
        let snapshot = self.current.load();
        let features: Vec<FeatureSet> = bundles
            .iter()
            .map(|b| Self::extract_with(&snapshot, b))
            .collect();
        let queries: Vec<BatchQuery<'_>> = bundles
            .iter()
            .zip(&features)
            .map(|(b, f)| BatchQuery {
                part_id: &b.part_id,
                features: f,
            })
            .collect();
        let rankings =
            snapshot
                .ranker()
                .rank_batch(snapshot.kb(), Some(snapshot.index()), &queries);
        bundles
            .iter()
            .zip(rankings)
            .map(|(b, ranked)| Self::assemble(&snapshot, b, ranked))
            .collect()
    }

    fn extract_with(snapshot: &KnowledgeSnapshot, bundle: &DataBundle) -> FeatureSet {
        let mut cas = bundle.to_cas(SourceSelection::Test);
        snapshot
            .process_and_extract(&mut cas)
            .expect("build_pipeline tokenizes first, so any text processes")
    }

    fn assemble(
        snapshot: &KnowledgeSnapshot,
        bundle: &DataBundle,
        mut top: Vec<ScoredCode>,
    ) -> Suggestions {
        top.truncate(TOP_SUGGESTIONS);
        Suggestions {
            reference_number: bundle.reference_number.clone(),
            top,
            all_codes_for_part: snapshot.codes_for_part(&bundle.part_id),
        }
    }

    /// Persist scored suggestions (idempotent per bundle: re-suggestion
    /// replaces earlier rows).
    pub fn persist_suggestions(
        &self,
        db: &mut Database,
        s: &Suggestions,
    ) -> Result<(), ServiceError> {
        if !db.has_table(tables::RECOMMENDATIONS) {
            let schema = SchemaBuilder::new()
                .pk("id", DataType::Text)
                .col("reference_number", DataType::Text)
                .col("error_code", DataType::Text)
                .col("score", DataType::Float)
                .col("rank", DataType::Int)
                .build()?;
            db.create_table(tables::RECOMMENDATIONS, schema)?;
            db.table_mut(tables::RECOMMENDATIONS)?.create_index(
                "rec_by_ref",
                "reference_number",
                IndexKind::Hash,
            )?;
        }
        // drop earlier suggestions for this bundle
        let stale: Vec<Value> = db
            .table(tables::RECOMMENDATIONS)?
            .lookup(
                "reference_number",
                &Value::from(s.reference_number.as_str()),
            )?
            .iter()
            .map(|r| r.values()[0].clone())
            .collect();
        for pk in stale {
            db.delete(tables::RECOMMENDATIONS, &pk)?;
        }
        for (rank, sc) in s.top.iter().enumerate() {
            db.insert(
                tables::RECOMMENDATIONS,
                row![
                    format!("{}#{}", s.reference_number, sc.code),
                    s.reference_number.clone(),
                    sc.code.clone(),
                    sc.score,
                    rank as i64
                ],
            )?;
        }
        Ok(())
    }

    /// Record a final code assignment by an authorized user.
    pub fn assign(
        &self,
        db: &mut Database,
        users: &UserRegistry,
        user: &str,
        bundle: &DataBundle,
        code: &str,
    ) -> Result<(), ServiceError> {
        users.authorize(user, "assign error codes", Role::can_assign_codes)?;
        let known = self
            .current
            .load()
            .codes_for_part(&bundle.part_id)
            .iter()
            .any(|c| c == code);
        if !known {
            return Err(ServiceError::UnknownCode {
                code: code.to_owned(),
                part_id: bundle.part_id.clone(),
            });
        }
        if !db.has_table(tables::ASSIGNMENTS) {
            let schema = SchemaBuilder::new()
                .pk("reference_number", DataType::Text)
                .col("error_code", DataType::Text)
                .col("assigned_by", DataType::Text)
                .build()?;
            db.create_table(tables::ASSIGNMENTS, schema)?;
        }
        if let Some(prev) = db.get(
            tables::ASSIGNMENTS,
            &Value::from(bundle.reference_number.as_str()),
        )? {
            let prev_code = prev.get(1).and_then(Value::as_text).unwrap_or_default();
            return Err(ServiceError::AlreadyAssigned {
                reference: bundle.reference_number.clone(),
                code: prev_code.to_owned(),
            });
        }
        db.insert(
            tables::ASSIGNMENTS,
            row![
                bundle.reference_number.clone(),
                code.to_owned(),
                user.to_owned()
            ],
        )?;
        Ok(())
    }

    /// Define a new error code (extended rights required). Publishes a new
    /// epoch whose per-part code lists include it.
    pub fn create_code(
        &self,
        users: &UserRegistry,
        user: &str,
        part_id: &str,
        code: &str,
    ) -> Result<(), ServiceError> {
        users.authorize(user, "create error codes", Role::can_create_codes)?;
        self.mutate(|builder| {
            builder.declare_code(part_id, code);
        });
        Ok(())
    }

    /// The currently published knowledge base. The returned guard is the
    /// whole snapshot — hold it while reading the knowledge base.
    pub fn knowledge_base(&self) -> Arc<KnowledgeSnapshot> {
        self.current.load()
    }

    /// Online learning: once a quality expert has assigned a final code, the
    /// bundle becomes a training instance. kNN is a lazy learner (paper
    /// §4.2), so "learning" inserts the new configuration into a
    /// copy-on-write successor snapshot and publishes it as the next epoch —
    /// no retraining pass, and concurrent readers are never blocked. Returns
    /// `true` if the instance added a new configuration (dedup may absorb
    /// it). Any instances enqueued via
    /// [`RecommendationService::enqueue_learn`] ride along in the same
    /// publish.
    pub fn learn(&self, bundle: &DataBundle, code: &str) -> bool {
        // the freshly assigned code's description is not part of the bundle
        // yet; the reports and part description carry the signal
        let mut cas = bundle.to_cas(SourceSelection::Training);
        let part_id = bundle.part_id.clone();
        let added = self.mutate(|builder| {
            builder
                .train_instance(&mut cas, &part_id, code)
                .expect("build_pipeline tokenizes first, so any text processes")
        });
        if added {
            crate::metrics::metrics().learned_total.inc();
        }
        added
    }

    /// Enqueue a learn instance without publishing: the bundle's training CAS
    /// joins the pending delta and becomes visible only at the next
    /// [`RecommendationService::publish_pending`] (or any other publish).
    /// Lets a burst of assignments amortize one epoch swap.
    pub fn enqueue_learn(&self, bundle: &DataBundle, code: &str) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        pending.push(PendingInstance {
            cas: bundle.to_cas(SourceSelection::Training),
            part_id: bundle.part_id.clone(),
            code: code.to_owned(),
        });
        crate::metrics::metrics()
            .pending_delta
            .set(pending.len() as i64);
    }

    /// Learn instances enqueued but not yet published.
    pub fn pending_len(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Publish every enqueued learn instance as one new epoch. Returns how
    /// many added a new configuration (dedup may absorb some). No-op — and no
    /// epoch churn — when nothing is pending.
    pub fn publish_pending(&self) -> usize {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if pending.is_empty() {
            return 0;
        }
        let snapshot = self.current.load();
        let mut builder = SnapshotBuilder::from_snapshot(&snapshot);
        let added = Self::drain_into(&mut pending, &mut builder);
        self.install(builder.seal());
        crate::metrics::metrics().learned_total.add(added as u64);
        added
    }

    /// Single-writer mutation: serializes on the pending lock, folds any
    /// enqueued instances into a copy-on-write builder, applies `f`, seals,
    /// and publishes the next epoch.
    fn mutate<R>(&self, f: impl FnOnce(&mut SnapshotBuilder) -> R) -> R {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let snapshot = self.current.load();
        let mut builder = SnapshotBuilder::from_snapshot(&snapshot);
        Self::drain_into(&mut pending, &mut builder);
        let out = f(&mut builder);
        self.install(builder.seal());
        out
    }

    /// Move every pending instance into the builder; returns how many added
    /// a new configuration. Caller holds the pending lock.
    fn drain_into(pending: &mut Vec<PendingInstance>, builder: &mut SnapshotBuilder) -> usize {
        let mut added = 0;
        for mut p in pending.drain(..) {
            if builder
                .train_instance(&mut p.cas, &p.part_id, &p.code)
                .expect("build_pipeline tokenizes first, so any text processes")
            {
                added += 1;
            }
        }
        crate::metrics::metrics().pending_delta.set(0);
        added
    }

    /// Publish an externally produced snapshot as the new epoch — the read
    /// replica path: a follower replays the leader's WAL, loads the newest
    /// persisted epoch, and republishes it here so `/suggest` serves it with
    /// zero serve-layer changes. The caller is responsible for monotonicity
    /// (the replica loop tracks the last persisted epoch it republished).
    pub fn publish_snapshot(&self, next: KnowledgeSnapshot) {
        self.install(next);
    }

    /// Publish a sealed snapshot as the new epoch and update the gauges.
    fn install(&self, next: KnowledgeSnapshot) {
        let m = crate::metrics::metrics();
        m.epoch.set(next.epoch() as i64);
        m.epoch_swaps_total.inc();
        self.current.publish(next);
    }

    /// Convenience: record the assignment *and* learn from it in one step.
    pub fn assign_and_learn(
        &self,
        db: &mut Database,
        users: &UserRegistry,
        user: &str,
        bundle: &DataBundle,
        code: &str,
    ) -> Result<bool, ServiceError> {
        self.assign(db, users, user, bundle, code)?;
        Ok(self.learn(bundle, code))
    }

    /// Classify a free text with an unknown part ID (the §5.4 external-source
    /// path: the NHTSA complaint has no OEM part ID, so candidate selection
    /// falls back across the whole knowledge base).
    pub fn classify_external(&self, text: &str) -> Vec<ScoredCode> {
        self.classify_external_for_part(text, "<external>")
    }

    /// Classify an external text against one part type's knowledge — the
    /// per-part comparison screen, where the external source was pre-filtered
    /// by component category.
    pub fn classify_external_for_part(&self, text: &str, part_id: &str) -> Vec<ScoredCode> {
        let snapshot = self.current.load();
        let features = Self::extract_external(&snapshot, text);
        snapshot
            .ranker()
            .rank(snapshot.kb(), Some(snapshot.index()), part_id, &features)
    }

    /// Batch variant of [`RecommendationService::classify_external_for_part`]:
    /// all texts share one part ID (or `"<external>"` for the unscoped path)
    /// and are ranked in one [`qatk_core::zoo::Classifier::rank_batch`]
    /// call.
    pub fn classify_external_batch(&self, texts: &[&str], part_id: &str) -> Vec<Vec<ScoredCode>> {
        self.classify_external_batch_on(&self.current.load(), texts, part_id)
    }

    /// [`RecommendationService::classify_external_batch`] against a
    /// caller-pinned snapshot — the serving layer reports the epoch a batch
    /// actually ran on, so the whole batch must see exactly that epoch even
    /// if a publish lands mid-request.
    pub fn classify_external_batch_on(
        &self,
        snapshot: &KnowledgeSnapshot,
        texts: &[&str],
        part_id: &str,
    ) -> Vec<Vec<ScoredCode>> {
        let features: Vec<FeatureSet> = texts
            .iter()
            .map(|t| Self::extract_external(snapshot, t))
            .collect();
        let queries: Vec<BatchQuery<'_>> = features
            .iter()
            .map(|f| BatchQuery {
                part_id,
                features: f,
            })
            .collect();
        snapshot
            .ranker()
            .rank_batch(snapshot.kb(), Some(snapshot.index()), &queries)
    }

    fn extract_external(snapshot: &KnowledgeSnapshot, text: &str) -> FeatureSet {
        let mut cas = Cas::new();
        cas.add_segment("external_text", text);
        snapshot
            .process_and_extract(&mut cas)
            .expect("build_pipeline tokenizes first, so any text processes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qatk_corpus::generator::CorpusConfig;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small(31))
    }

    fn users() -> UserRegistry {
        let mut u = UserRegistry::new();
        u.add("anna", Role::QualityExpert).unwrap();
        u.add("root", Role::Admin).unwrap();
        u.add("guest", Role::Viewer).unwrap();
        u
    }

    /// Regression for the poisoned-mutex policy: a request thread that
    /// panics while holding the pending-delta lock must not wedge the
    /// service — the lock guards plain data that stays consistent across a
    /// panic, so later learns and publishes recover it via
    /// `PoisonError::into_inner` and keep publishing epochs.
    #[test]
    fn learns_still_publish_after_a_panicked_thread_poisons_the_lock() {
        let c = corpus();
        let svc =
            RecommendationService::train(&c, FeatureModel::BagOfWords, SimilarityMeasure::Jaccard);
        let before = svc.epoch();

        // poison the pending lock: panic while holding the guard
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = svc.pending.lock().unwrap();
                panic!("poison the pending lock");
            });
            assert!(poisoner.join().is_err(), "the poisoner must panic");
        });
        assert!(svc.pending.is_poisoned(), "lock is poisoned");

        // every pending-lock path still works
        let bundle = &c.bundles[0];
        svc.enqueue_learn(bundle, "E999-01");
        assert_eq!(svc.pending_len(), 1);
        let added = svc.publish_pending();
        assert_eq!(added, 1);
        assert_eq!(svc.epoch(), before + 1, "the learn published a new epoch");
        assert!(svc.learn(bundle, "E999-02"));
        assert_eq!(svc.epoch(), before + 2);
    }

    #[test]
    fn suggestions_capped_at_ten_with_fallback_list() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        assert!(svc.kb_len() > 0);
        let b = &c.bundles[0];
        let s = svc.suggest(b);
        assert!(s.top.len() <= TOP_SUGGESTIONS);
        assert!(!s.all_codes_for_part.is_empty());
        // fallback list covers the part's full code inventory observed in data
        for sc in &s.top {
            assert!(s.all_codes_for_part.contains(&sc.code));
        }
        // scores descend
        for w in s.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn true_code_usually_in_top_ten() {
        let c = corpus();
        let svc =
            RecommendationService::train(&c, FeatureModel::BagOfWords, SimilarityMeasure::Jaccard);
        let mut hits = 0;
        let total = 100.min(c.bundles.len());
        for b in c.bundles.iter().take(total) {
            let s = svc.suggest(b);
            let truth = b.error_code.as_deref().unwrap();
            if s.top.iter().any(|sc| sc.code == truth) {
                hits += 1;
            }
        }
        // training data is in the KB, so this is optimistic by construction
        assert!(hits * 10 >= total * 8, "only {hits}/{total} in top-10");
    }

    #[test]
    fn suggest_batch_matches_sequential_suggest() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let worklist: Vec<&DataBundle> = c.bundles.iter().take(40).collect();
        let batch = svc.suggest_batch(&worklist);
        assert_eq!(batch.len(), worklist.len());
        for (b, got) in worklist.iter().zip(&batch) {
            let expected = svc.suggest(b);
            assert_eq!(*got, expected, "batch diverges for {}", b.reference_number);
        }
    }

    #[test]
    fn external_batch_matches_sequential_classification() {
        let c = corpus();
        let svc =
            RecommendationService::train(&c, FeatureModel::BagOfWords, SimilarityMeasure::Overlap);
        let texts = [
            "THE COOLING FAN EXHIBITED GRINDING NOISE",
            "SPEAKER RATTLE AT HIGH VOLUME",
            "",
        ];
        let part = c.bundles[0].part_id.clone();
        let batch = svc.classify_external_batch(&texts, &part);
        assert_eq!(batch.len(), texts.len());
        for (t, got) in texts.iter().zip(&batch) {
            let expected = svc.classify_external_for_part(t, &part);
            assert_eq!(*got, expected);
        }
    }

    #[test]
    fn persist_suggestions_roundtrip_and_replace() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let mut db = Database::new();
        let s = svc.suggest(&c.bundles[0]);
        svc.persist_suggestions(&mut db, &s).unwrap();
        let n = db.table(tables::RECOMMENDATIONS).unwrap().len();
        assert_eq!(n, s.top.len());
        // re-persisting replaces, not duplicates
        svc.persist_suggestions(&mut db, &s).unwrap();
        assert_eq!(db.table(tables::RECOMMENDATIONS).unwrap().len(), n);
    }

    #[test]
    fn assignment_requires_rights_and_known_code() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let users = users();
        let mut db = Database::new();
        let b = &c.bundles[0];
        let code = b.error_code.clone().unwrap();

        assert!(matches!(
            svc.assign(&mut db, &users, "guest", b, &code),
            Err(ServiceError::User(UserError::Forbidden { .. }))
        ));
        assert!(matches!(
            svc.assign(&mut db, &users, "anna", b, "E-unknown"),
            Err(ServiceError::UnknownCode { .. })
        ));
        svc.assign(&mut db, &users, "anna", b, &code).unwrap();
        assert!(matches!(
            svc.assign(&mut db, &users, "anna", b, &code),
            Err(ServiceError::AlreadyAssigned { .. })
        ));
        let stored = db
            .get(
                tables::ASSIGNMENTS,
                &Value::from(b.reference_number.as_str()),
            )
            .unwrap()
            .unwrap();
        assert_eq!(stored.get(2).and_then(Value::as_text), Some("anna"));
    }

    #[test]
    fn code_creation_gated_and_visible() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let users = users();
        let b = c.bundles[0].clone();
        let epoch_before = svc.epoch();

        assert!(matches!(
            svc.create_code(&users, "anna", &b.part_id, "E-NEW"),
            Err(ServiceError::User(UserError::Forbidden { .. }))
        ));
        svc.create_code(&users, "root", &b.part_id, "E-NEW")
            .unwrap();
        // idempotent (each call still publishes an epoch; the code list is
        // unchanged the second time)
        svc.create_code(&users, "root", &b.part_id, "E-NEW")
            .unwrap();
        assert!(svc.epoch() > epoch_before);
        let s = svc.suggest(&b);
        assert!(s.all_codes_for_part.contains(&"E-NEW".to_owned()));
        assert_eq!(
            s.all_codes_for_part
                .iter()
                .filter(|c| c.as_str() == "E-NEW")
                .count(),
            1
        );
        // and assignable now
        let mut db = Database::new();
        svc.assign(&mut db, &users, "anna", &b, "E-NEW").unwrap();
    }

    #[test]
    fn online_learning_adds_configurations() {
        let c = corpus();
        let svc2 = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let before = svc2.kb_len();
        // a brand-new bundle for a known part with a fresh admin-created code
        let mut fresh = c.bundles[0].clone();
        fresh.reference_number = "R-FRESH".into();
        fresh.supplier_report = "Unit received, speaker inspected. Found grinding noise at speaker.              Root cause confirmed per analysis zzqq-99."
            .into();
        fresh.error_code = None;
        fresh.error_description = None;

        let users = users();
        svc2.create_code(&users, "root", &fresh.part_id, "E-LEARN")
            .unwrap();
        let mut db = Database::new();
        let added = svc2
            .assign_and_learn(&mut db, &users, "anna", &fresh, "E-LEARN")
            .unwrap();
        assert!(added);
        assert_eq!(svc2.kb_len(), before + 1);
        // the new code is now recommendable for similar future bundles
        let mut similar = fresh.clone();
        similar.reference_number = "R-SIMILAR".into();
        let s = svc2.suggest(&similar);
        assert!(s.top.iter().any(|sc| sc.code == "E-LEARN"));
    }

    #[test]
    fn learning_identical_configuration_is_deduped() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let before = svc.kb_len();
        let b = c.bundles[0].clone();
        let code = b.error_code.clone().unwrap();
        // the exact training bundle re-learned adds nothing
        let added = svc.learn(&b, &code);
        assert!(!added);
        assert_eq!(svc.kb_len(), before);
    }

    #[test]
    fn learn_publishes_a_new_epoch_old_readers_unaffected() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let pinned = svc.snapshot();
        let epoch0 = pinned.epoch();
        let kb0 = pinned.kb().len();

        let mut fresh = c.bundles[0].clone();
        fresh.reference_number = "R-EPOCH".into();
        fresh.supplier_report = "entirely fresh supplier narrative qq-17".into();
        svc.learn(&fresh, c.bundles[0].error_code.as_deref().unwrap());

        // the pinned snapshot still answers from the old epoch …
        assert_eq!(pinned.epoch(), epoch0);
        assert_eq!(pinned.kb().len(), kb0);
        // … while the service has moved on
        assert_eq!(svc.epoch(), epoch0 + 1);
    }

    #[test]
    fn enqueue_then_publish_batches_one_epoch_swap() {
        let c = corpus();
        // bag-of-words: the fresh narrative tokens below become features, so
        // neither instance dedups away
        let svc =
            RecommendationService::train(&c, FeatureModel::BagOfWords, SimilarityMeasure::Jaccard);
        let epoch0 = svc.epoch();
        let kb0 = svc.kb_len();

        let code = c.bundles[0].error_code.clone().unwrap();
        for (i, report) in ["fresh narrative aa-1", "fresh narrative bb-2"]
            .iter()
            .enumerate()
        {
            let mut fresh = c.bundles[0].clone();
            fresh.reference_number = format!("R-PEND-{i}");
            fresh.supplier_report = (*report).into();
            svc.enqueue_learn(&fresh, &code);
        }
        assert_eq!(svc.pending_len(), 2);
        // nothing visible yet — no publish happened
        assert_eq!(svc.epoch(), epoch0);
        assert_eq!(svc.kb_len(), kb0);

        let added = svc.publish_pending();
        assert_eq!(added, 2);
        assert_eq!(svc.pending_len(), 0);
        // exactly one epoch swap for the whole batch
        assert_eq!(svc.epoch(), epoch0 + 1);
        assert_eq!(svc.kb_len(), kb0 + 2);
        // republishing with an empty delta is a no-op
        assert_eq!(svc.publish_pending(), 0);
        assert_eq!(svc.epoch(), epoch0 + 1);
    }

    #[test]
    fn snapshot_persistence_roundtrip_through_service() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        // move past epoch 0 so load-latest has something to choose
        let mut fresh = c.bundles[0].clone();
        fresh.reference_number = "R-PERSIST".into();
        fresh.supplier_report = "narrative for persistence cc-3".into();
        svc.learn(&fresh, c.bundles[0].error_code.as_deref().unwrap());

        let mut db = Database::new();
        svc.save_snapshot(&mut db).unwrap();

        let pipeline = Arc::clone(svc.snapshot().pipeline());
        let restored = RecommendationService::load_latest(&db, pipeline)
            .unwrap()
            .unwrap();
        assert_eq!(restored.epoch(), svc.epoch());
        assert_eq!(restored.kb_len(), svc.kb_len());
        // restored service suggests identically
        for b in c.bundles.iter().take(10) {
            assert_eq!(restored.suggest(b), svc.suggest(b));
        }
        // an empty database yields no service
        assert!(RecommendationService::load_latest(
            &Database::new(),
            Arc::clone(svc.snapshot().pipeline()),
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn recover_resumes_service_from_atomic_snapshot_file() {
        let dir = std::env::temp_dir().join(format!("qatk_svc_recover_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("service.qdb");
        let wal = dir.join("service.wal");

        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let mut db = Database::new();
        svc.save_snapshot_file(&mut db, &snap).unwrap();
        assert!(snap.exists());
        assert!(
            !dir.join("service.qdb.tmp").exists(),
            "tmp file left behind"
        );

        let pipeline = Arc::clone(svc.snapshot().pipeline());
        let recovered =
            RecommendationService::recover(&snap, &wal, SyncPolicy::OsOnly, Arc::clone(&pipeline))
                .unwrap();
        assert!(recovered.report.snapshot_loaded);
        assert!(!recovered.report.torn_tail);
        let restored = recovered
            .service
            .expect("persisted snapshot yields a service");
        assert_eq!(restored.epoch(), svc.epoch());
        assert_eq!(restored.kb_len(), svc.kb_len());
        for b in c.bundles.iter().take(5) {
            assert_eq!(restored.suggest(b), svc.suggest(b));
        }

        // a fresh pair of paths recovers to an empty store with no service
        let snap2 = dir.join("fresh.qdb");
        let wal2 = dir.join("fresh.wal");
        let empty =
            RecommendationService::recover(&snap2, &wal2, SyncPolicy::OsOnly, pipeline).unwrap();
        assert!(empty.service.is_none());
        assert!(!empty.report.snapshot_loaded);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_knn_family_serves_learns_and_persists_through_same_service() {
        let c = corpus();
        let svc = RecommendationService::train_with(
            &c,
            FeatureModel::BagOfWords,
            RankerConfig::new(ClassifierFamily::NaiveBayes, SimilarityMeasure::Jaccard),
        );
        assert_eq!(svc.classifier_label(), "naive-bayes");
        let b = &c.bundles[0];
        let s = svc.suggest(b);
        assert!(s.top.len() <= TOP_SUGGESTIONS);
        for w in s.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }

        // online learning retrains the family's model at the epoch swap
        let mut fresh = b.clone();
        fresh.reference_number = "R-NB".into();
        fresh.supplier_report = "fresh naive bayes narrative zz-42".into();
        svc.learn(&fresh, b.error_code.as_deref().unwrap());
        assert_eq!(svc.classifier_label(), "naive-bayes");

        // persistence keeps the family without the caller restating it
        let mut db = Database::new();
        svc.save_snapshot(&mut db).unwrap();
        let restored =
            RecommendationService::load_latest(&db, Arc::clone(svc.snapshot().pipeline()))
                .unwrap()
                .unwrap();
        assert_eq!(restored.classifier_label(), "naive-bayes");
        for b in c.bundles.iter().take(5) {
            assert_eq!(restored.suggest(b), svc.suggest(b));
        }
    }

    #[test]
    fn external_classification_works_without_part_id() {
        let c = corpus();
        let svc = RecommendationService::train(
            &c,
            FeatureModel::BagOfConcepts,
            SimilarityMeasure::Jaccard,
        );
        let ranked = svc.classify_external("THE COOLING FAN EXHIBITED GRINDING NOISE");
        // unknown part falls back across the whole KB; some suggestion appears
        assert!(!ranked.is_empty());
    }
}
