//! Training, validation and few-shot fine-tuning of zero-shot models.
//!
//! There is **one** training loop in the workspace, the private `fit`
//! behind [`ModelTrainer`]: seed the shuffle, clone the worker replicas,
//! and per epoch shuffle, chunk into optimizer steps, split every step
//! into fixed-size micro-batch *shards* whose gradients are computed
//! independently (optionally on `std::thread` workers) through the
//! (level, kind)-batched engine ([`crate::batch`]), reduce them in
//! ascending shard order, apply Adam, then monitor a median q-error for
//! early stopping and restore the best epoch.  Because the shard
//! boundaries depend only on the configuration — never on the thread
//! count — training with 1 thread and with N threads produces
//! **bit-identical** weights.  Fine-tuning is the same loop started from
//! an artifact's weights with no validation split and no early stopping.
//!
//! What the loop needs from a model is the [`Trainable`] trait: a
//! constructor, the parameter buffers in canonical order, one batched
//! forward+backward, one batched forward, and how to turn predictions
//! into q-errors.  The gradient plumbing (`zero_grad`, `apply_step`,
//! `export_gradients`, `add_gradients`, `copy_weights_from`) and the
//! chunked evaluation are provided methods written once over
//! [`Trainable::params`].  [`Trainer`] is `ModelTrainer<ZeroShotCostModel>`;
//! the multi-task crate's trainer is the same struct over its own model,
//! so a new task head costs one `impl Trainable`, not a trainer.
//!
//! The loop returns an in-memory [`TrainingRun`]; each model packages it
//! into its own concrete artifact struct ([`TrainedModel`] here).  One
//! generic `Trained<M>` is not possible, for two reasons: the vendored
//! `serde_derive` shim rejects generic types, and the two artifacts'
//! on-disk field names differ (`final_train_qerror: f64` here,
//! `final_train_qerrors: TaskQErrors` in the multi-task artifact, likewise
//! the validation fields and the curves' element types) while the
//! registry's artifact format version stays where it is.

use crate::features::{featurize_execution, FeaturizerConfig, PlanGraph};
use crate::model::{ModelConfig, ZeroShotCostModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use zsdb_engine::QueryExecution;
use zsdb_nn::{median, q_error, Adam, ParamBuf};
use zsdb_obs::Tracer;
use zsdb_storage::Database;

/// Hyper-parameters of the training loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of passes over the training corpus (upper bound when early
    /// stopping is enabled).
    pub epochs: usize,
    /// Mini-batch size (graphs per optimizer step).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Fraction of training *databases* held out for validation (0 = no
    /// validation split).
    pub validation_fraction: f64,
    /// Shuffling / initialisation seed.
    pub seed: u64,
    /// Fixed shard granularity of data-parallel gradient accumulation:
    /// each mini-batch is split into micro-batches of at most this many
    /// graphs, whose gradients are computed independently and reduced in
    /// ascending micro-batch order.  The shard boundaries depend only on
    /// this value — not on [`TrainingConfig::threads`] — which is what
    /// makes training results independent of the thread count.
    pub microbatch_size: usize,
    /// Worker threads for micro-batch gradient computation (0 = one per
    /// available CPU core).  Any value produces bit-identical weights.
    pub threads: usize,
    /// Early stopping: abort after this many epochs without improvement
    /// of the monitored median Q-error (validation when a split exists,
    /// training otherwise) and return the best epoch's weights.  0
    /// disables early stopping.
    pub early_stopping_patience: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 40,
            batch_size: 16,
            learning_rate: 1.5e-3,
            validation_fraction: 0.1,
            seed: 13,
            microbatch_size: 8,
            threads: 1,
            early_stopping_patience: 6,
        }
    }
}

impl TrainingConfig {
    /// Fast configuration for unit tests.  Early stopping is disabled so
    /// test assertions about full training curves stay deterministic.
    pub fn tiny() -> Self {
        TrainingConfig {
            epochs: 60,
            batch_size: 8,
            validation_fraction: 0.0,
            microbatch_size: 4,
            early_stopping_patience: 0,
            ..TrainingConfig::default()
        }
    }

    /// Effective number of worker threads (resolves the `0 = auto`
    /// setting against the machine's available parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Hyper-parameters of incremental fine-tuning: continuing training from
/// an already-trained model on a (typically small) set of newly observed
/// executions, e.g. few-shot adaptation to an unseen database or an online
/// adaptation round inside the serving layer.
///
/// Fine-tuning runs through the same loop as [`ModelTrainer::train`], so
/// the 1-thread ≡ N-thread bit-determinism guarantee carries over: the
/// shard boundaries depend only on [`FinetuneConfig::microbatch_size`],
/// never on [`FinetuneConfig::threads`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// Number of passes over the fine-tuning set.
    pub epochs: usize,
    /// Adam learning rate (fine-tuning wants a smaller step than initial
    /// training — the model starts near a good optimum).
    pub learning_rate: f64,
    /// Mini-batch size; `0` means full-batch (one optimizer step per
    /// epoch), the natural choice for few-shot-sized sets.
    pub batch_size: usize,
    /// Micro-batch shard granularity of the deterministic data-parallel
    /// gradient accumulation (see [`TrainingConfig::microbatch_size`]).
    pub microbatch_size: usize,
    /// Worker threads (0 = one per core); any value produces bit-identical
    /// weights.
    pub threads: usize,
    /// Shuffling seed (only relevant when `batch_size` splits the set).
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 30,
            learning_rate: 3e-4,
            batch_size: 0,
            microbatch_size: 8,
            threads: 1,
            seed: 17,
        }
    }
}

/// What the training loop needs from a model.
///
/// The required methods say how the model is built, where its parameters
/// live, how one mini-batch is pushed forward (and backward) and how
/// predictions are scored; everything the loop does with gradients and
/// weights is provided once, over [`Trainable::params`] /
/// [`Trainable::params_mut`].
pub trait Trainable: Clone + Send + Sized {
    /// Hyper-parameters a fresh model is built from.
    type Config: Clone + Debug;
    /// One labelled training example.
    type Sample: Sync;
    /// What the model predicts for one sample.
    type Prediction: Send;
    /// Median q-error(s) of a set of predictions (one number per task).
    type QErrors: Copy;
    /// The serializable artifact a finished [`TrainingRun`] is packaged as.
    type Trained;

    /// Create a freshly initialised model.
    fn new(config: Self::Config) -> Self;

    /// Every parameter buffer in the model's canonical order (weights
    /// before bias per layer).  This order defines the layout of the flat
    /// gradient vectors of the deterministic shard reduction.
    fn params(&self) -> Vec<&ParamBuf>;

    /// Mutable counterpart of [`Trainable::params`], same order.
    fn params_mut(&mut self) -> Vec<&mut ParamBuf>;

    /// One batched forward + backward over `samples`, *accumulating*
    /// gradients (no optimizer step); returns the training-forward
    /// predictions in sample order.
    fn accumulate_batch(&mut self, samples: &[&Self::Sample]) -> Vec<Self::Prediction>;

    /// One batched forward over `samples`.
    fn predict_samples(&self, samples: &[&Self::Sample]) -> Vec<Self::Prediction>;

    /// Median q-error(s) of `predictions` against the samples' labels.
    fn q_errors(samples: &[&Self::Sample], predictions: &[Self::Prediction]) -> Self::QErrors;

    /// The one number early stopping monitors.
    fn monitored(qerrors: &Self::QErrors) -> f64;

    /// Whether `sample` carries every label training needs.
    fn is_labelled(_sample: &Self::Sample) -> bool {
        true
    }

    /// Package a finished run as the model's artifact.
    fn into_trained(run: TrainingRun<Self>, featurizer: FeaturizerConfig) -> Self::Trained;

    /// The model and featurizer configuration inside an artifact.
    fn from_trained(trained: &Self::Trained) -> (&Self, FeaturizerConfig);

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Apply one optimizer step over all parameters, in canonical order.
    fn apply_step(&mut self, adam: &mut Adam) {
        adam.step(&mut self.params_mut());
    }

    /// Export the accumulated gradients as one flat vector in canonical
    /// parameter order (cleared and refilled).
    fn export_gradients(&self, out: &mut Vec<f64>) {
        out.clear();
        for p in self.params() {
            out.extend_from_slice(&p.grad);
        }
    }

    /// Add a flat gradient vector (as produced by
    /// [`Trainable::export_gradients`]) onto this model's gradient
    /// buffers.  Together with a fixed caller-side reduction order this
    /// makes multi-shard gradient accumulation deterministic.
    fn add_gradients(&mut self, flat: &[f64]) {
        let mut offset = 0;
        for p in self.params_mut() {
            let len = p.grad.len();
            for (g, v) in p.grad.iter_mut().zip(&flat[offset..offset + len]) {
                *g += v;
            }
            offset += len;
        }
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
    }

    /// Copy the parameter *values* (not gradients or optimizer moments)
    /// from `src`, buffer to buffer.  Used to refresh worker-shard model
    /// replicas after every optimizer step.
    fn copy_weights_from(&mut self, src: &Self) {
        let from = src.params();
        let dst = self.params_mut();
        assert_eq!(dst.len(), from.len(), "model shapes differ");
        for (d, s) in dst.into_iter().zip(from) {
            d.data.copy_from_slice(&s.data);
        }
    }

    /// Predict `samples` in bounded-size batches (keeps the batched
    /// forward's intermediate state flat for arbitrarily large sets).
    fn predict_chunked(&self, samples: &[&Self::Sample]) -> Vec<Self::Prediction> {
        const EVAL_CHUNK: usize = 256;
        let chunks = samples.chunks(EVAL_CHUNK);
        chunks.flat_map(|c| self.predict_samples(c)).collect()
    }

    /// Median q-error(s) of the model over `samples`, through the batched
    /// forward pass (bit-identical to per-example prediction).
    fn evaluate(&self, samples: &[Self::Sample]) -> Self::QErrors {
        let refs: Vec<&Self::Sample> = samples.iter().collect();
        Self::q_errors(&refs, &self.predict_chunked(&refs))
    }
}

/// What one run of the training loop produced, before a model packages it
/// as its artifact ([`Trainable::into_trained`]).
pub struct TrainingRun<M: Trainable> {
    /// The returned weights (the best monitored epoch under early
    /// stopping, the last epoch otherwise).
    pub model: M,
    /// Training q-errors of the returned weights.
    pub final_train: M::QErrors,
    /// Validation q-errors of the returned weights (`None` without a
    /// validation split).
    pub final_validation: Option<M::QErrors>,
    /// Per-epoch q-errors of the epoch's own training forwards (one entry
    /// per epoch actually run).
    pub training_curve: Vec<M::QErrors>,
    /// Per-epoch monitored validation q-error (empty without a split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended the run before the epoch cap.
    pub stopped_early: bool,
}

/// A trained zero-shot model together with its featurizer configuration and
/// training statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The trained model.
    pub model: ZeroShotCostModel,
    /// Featurizer configuration used during training (and required at
    /// inference time).
    pub featurizer: FeaturizerConfig,
    /// Median training Q-error of the returned weights.
    pub final_train_qerror: f64,
    /// Median validation Q-error of the returned weights (`None` when no
    /// validation split was used).
    pub final_validation_qerror: Option<f64>,
    /// Per-epoch median training Q-errors (training curve; one entry per
    /// epoch actually run).
    pub training_curve: Vec<f64>,
    /// Per-epoch median validation Q-errors (empty without a validation
    /// split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended training before
    /// [`TrainingConfig::epochs`] epochs.
    pub stopped_early: bool,
}

impl TrainedModel {
    /// Predict the runtime (seconds) of a featurized plan.
    pub fn predict(&self, graph: &PlanGraph) -> f64 {
        self.model.predict(graph)
    }

    /// Batched runtime prediction, bit-identical per graph to
    /// [`TrainedModel::predict`].
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
        self.model.predict_batch(graphs)
    }

    /// Serialize to JSON (for persistence).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained model serialization cannot fail")
    }

    /// Restore from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl Trainable for ZeroShotCostModel {
    type Config = ModelConfig;
    type Sample = PlanGraph;
    type Prediction = f64;
    type QErrors = f64;
    type Trained = TrainedModel;

    fn new(config: ModelConfig) -> Self {
        ZeroShotCostModel::new(config)
    }

    /// Encoders by node kind, then combine, then output.
    fn params(&self) -> Vec<&ParamBuf> {
        let mut params = self.encoder.params();
        params.extend(self.output.params());
        params
    }

    fn params_mut(&mut self) -> Vec<&mut ParamBuf> {
        let mut params = self.encoder.params_mut();
        params.extend(self.output.params_mut());
        params
    }

    fn accumulate_batch(&mut self, graphs: &[&PlanGraph]) -> Vec<f64> {
        let targets: Vec<f64> = graphs
            .iter()
            .map(|g| g.runtime_secs.expect("labelled"))
            .collect();
        self.accumulate_gradients_batch(graphs, &targets)
            .predictions
    }

    fn predict_samples(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
        self.predict_batch(graphs)
    }

    /// Median q-error over the labelled graphs (unlabelled ones are
    /// skipped, so evaluation sets may mix both).
    fn q_errors(graphs: &[&PlanGraph], predictions: &[f64]) -> f64 {
        let qs: Vec<f64> = graphs
            .iter()
            .zip(predictions)
            .filter_map(|(g, p)| g.runtime_secs.map(|t| q_error(*p, t)))
            .collect();
        median(&qs)
    }

    fn monitored(qerror: &f64) -> f64 {
        *qerror
    }

    fn is_labelled(graph: &PlanGraph) -> bool {
        graph.runtime_secs.is_some()
    }

    fn into_trained(run: TrainingRun<Self>, featurizer: FeaturizerConfig) -> TrainedModel {
        TrainedModel {
            model: run.model,
            featurizer,
            final_train_qerror: run.final_train,
            final_validation_qerror: run.final_validation,
            training_curve: run.training_curve,
            validation_curve: run.validation_curve,
            stopped_early: run.stopped_early,
        }
    }

    fn from_trained(trained: &TrainedModel) -> (&Self, FeaturizerConfig) {
        (&trained.model, trained.featurizer)
    }
}

/// The trainer: one model configuration, one [`TrainingConfig`], one
/// featurizer configuration, and the one training loop in the workspace.
#[derive(Debug, Clone)]
pub struct ModelTrainer<M: Trainable> {
    model_config: M::Config,
    training_config: TrainingConfig,
    featurizer: FeaturizerConfig,
    tracer: Option<Tracer>,
}

/// Trainer for zero-shot cost models.
pub type Trainer = ModelTrainer<ZeroShotCostModel>;

impl<M: Trainable> ModelTrainer<M> {
    /// Create a trainer.
    pub fn new(
        model_config: M::Config,
        training_config: TrainingConfig,
        featurizer: FeaturizerConfig,
    ) -> Self {
        ModelTrainer {
            model_config,
            training_config,
            featurizer,
            tracer: None,
        }
    }

    /// Attach a [`Tracer`]: [`ModelTrainer::train`] then emits one
    /// `train.epoch_secs` event per epoch (wall time, shard-gradient time
    /// and the epoch's monitored median q-error in the detail).  Tracing
    /// never changes the trained weights.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The trainer's training configuration.
    pub fn training_config(&self) -> &TrainingConfig {
        &self.training_config
    }

    /// The trainer's featurizer configuration.
    pub fn featurizer(&self) -> FeaturizerConfig {
        self.featurizer
    }

    /// Train a fresh model on labelled samples: shuffled mini-batches,
    /// (level, kind)-batched message passing, deterministic sharded
    /// gradient accumulation, validation split and early stopping.
    ///
    /// Samples in the validation tail split are evaluated but never
    /// trained on; early stopping monitors [`Trainable::monitored`] of
    /// the validation q-errors (of the training q-errors without a
    /// split).
    pub fn train(&self, samples: &[M::Sample]) -> M::Trained {
        let cfg = &self.training_config;
        // Split by index: samples from the same database are contiguous
        // in collection order, so a tail split approximates a
        // database-level holdout.  `validation_fraction` is public and
        // deserializable, hence the clamp.
        let val_len =
            (((samples.len() as f64) * cfg.validation_fraction) as usize).min(samples.len());
        let (train, val) = samples.split_at(samples.len() - val_len);
        let model = M::new(self.model_config.clone());
        let tracer = self.tracer.as_ref();
        let run = fit(model, train, val, cfg, "train.epoch_secs", tracer);
        M::into_trained(run, self.featurizer)
    }

    /// Incrementally fine-tune an already-trained model on newly observed
    /// labelled samples, returning a new artifact; `trained` is not
    /// modified.
    ///
    /// This is the one fine-tuning path in the workspace: few-shot
    /// adaptation ([`few_shot_finetune`]) and the online adaptation loop
    /// in `zsdb_serve` both run through it.  It is the loop of
    /// [`ModelTrainer::train`] started from the artifact's weights, so
    /// fine-tuning with 1 thread and with N threads produces
    /// **bit-identical** weights.
    pub fn finetune_from(
        trained: &M::Trained,
        samples: &[M::Sample],
        config: FinetuneConfig,
    ) -> M::Trained {
        Self::finetune_from_traced(trained, samples, config, None)
    }

    /// [`ModelTrainer::finetune_from`] emitting one `finetune.epoch_secs`
    /// event per epoch on the given tracer (same detail as
    /// [`ModelTrainer::with_tracer`]).  Tracing never changes the
    /// fine-tuned weights.
    pub fn finetune_from_traced(
        trained: &M::Trained,
        samples: &[M::Sample],
        config: FinetuneConfig,
        tracer: Option<&Tracer>,
    ) -> M::Trained {
        assert!(!samples.is_empty(), "fine-tuning needs at least one sample");
        let (model, featurizer) = M::from_trained(trained);
        // Fine-tuning is training from the artifact's weights with no
        // validation split and no early stopping.
        let cfg = TrainingConfig {
            epochs: config.epochs,
            learning_rate: config.learning_rate,
            batch_size: match config.batch_size {
                0 => samples.len(),
                n => n,
            },
            microbatch_size: config.microbatch_size,
            threads: config.threads,
            seed: config.seed,
            validation_fraction: 0.0,
            early_stopping_patience: 0,
        };
        let run = fit(
            model.clone(),
            samples,
            &[],
            &cfg,
            "finetune.epoch_secs",
            tracer,
        );
        M::into_trained(run, featurizer)
    }
}

impl Trainer {
    /// Featurize a multi-database corpus of executions.
    ///
    /// Every execution is featurized against the catalog of the database it
    /// ran on — `catalogs` maps database names to catalogs via the supplied
    /// lookup closure.
    pub fn featurize_corpus<'a, F>(
        &self,
        corpus: &[QueryExecution],
        mut catalog_of: F,
    ) -> Vec<PlanGraph>
    where
        F: FnMut(&str) -> &'a zsdb_catalog::SchemaCatalog,
    {
        corpus
            .iter()
            .map(|e| featurize_execution(catalog_of(&e.database), e, self.featurizer))
            .collect()
    }
}

/// The training loop: `cfg.epochs` passes of shuffled mini-batch Adam
/// over `train` starting from `model`, monitoring `val` (or the running
/// training metric when `val` is empty) for early stopping, one `event`
/// per epoch on `tracer`.  The caller has already split off `val`;
/// `cfg.validation_fraction` is not read here.
fn fit<M: Trainable>(
    mut model: M,
    train: &[M::Sample],
    val: &[M::Sample],
    cfg: &TrainingConfig,
    event: &'static str,
    tracer: Option<&Tracer>,
) -> TrainingRun<M> {
    // Checked here rather than discovered inside a worker thread.
    assert!(
        train.iter().chain(val).all(M::is_labelled),
        "every training sample must carry its labels"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.learning_rate);
    let batch_size = cfg.batch_size.max(1);
    let microbatch = cfg.microbatch_size.max(1);

    // Worker replicas compute shard gradients against a snapshot of the
    // current weights.  A single replica is used even with one thread, so
    // the reduction structure (zeroed shard buffer → flat export →
    // ordered add) never depends on the thread count.
    let shards_per_step = batch_size.div_ceil(microbatch);
    let mut replicas: Vec<M> = (0..cfg.effective_threads().min(shards_per_step).max(1))
        .map(|_| model.clone())
        .collect();

    let mut indices: Vec<usize> = (0..train.len()).collect();
    let mut training_curve = Vec::with_capacity(cfg.epochs);
    let mut validation_curve = Vec::new();
    let mut best: Option<(f64, M)> = None;
    let mut epochs_without_improvement = 0usize;
    let mut stopped_early = false;

    for epoch in 0..cfg.epochs {
        let epoch_started = Instant::now();
        let mut shard_secs = 0.0f64;
        indices.shuffle(&mut rng);
        let mut predictions = Vec::with_capacity(train.len());
        for step in indices.chunks(batch_size) {
            let micro_batches: Vec<&[usize]> = step.chunks(microbatch).collect();
            let shard_started = Instant::now();
            let shards = compute_shard_results(&model, &mut replicas, train, &micro_batches);
            shard_secs += shard_started.elapsed().as_secs_f64();
            model.zero_grad();
            for (gradients, shard_predictions) in shards {
                model.add_gradients(&gradients);
                predictions.extend(shard_predictions);
            }
            model.apply_step(&mut adam);
        }

        // Running training metric: the q-errors of the predictions made
        // by the epoch's own training forwards (no separate evaluation
        // pass).  Shards return in shard order, so the predictions line
        // up with the shuffled `indices`.
        let shuffled: Vec<&M::Sample> = indices.iter().map(|&i| &train[i]).collect();
        let train_q = M::q_errors(&shuffled, &predictions);
        training_curve.push(train_q);
        if let Some(tracer) = tracer {
            tracer.event(
                event,
                epoch_started.elapsed().as_secs_f64(),
                format!(
                    "epoch {epoch}: median q-error {:.4}, {shard_secs:.6}s in shard gradients",
                    M::monitored(&train_q)
                ),
            );
        }
        let monitored = if val.is_empty() {
            M::monitored(&train_q)
        } else {
            let val_q = M::monitored(&model.evaluate(val));
            validation_curve.push(val_q);
            val_q
        };

        if cfg.early_stopping_patience > 0 {
            if best.as_ref().is_none_or(|(b, _)| monitored < *b) {
                best = Some((monitored, model.clone()));
                epochs_without_improvement = 0;
            } else {
                epochs_without_improvement += 1;
                if epochs_without_improvement >= cfg.early_stopping_patience {
                    stopped_early = true;
                    break;
                }
            }
        }
    }

    // With early stopping enabled, return the best-epoch weights.
    if let Some((_, best_model)) = best {
        model = best_model;
    }
    TrainingRun {
        final_train: model.evaluate(train),
        final_validation: (!val.is_empty()).then(|| model.evaluate(val)),
        model,
        training_curve,
        validation_curve,
        stopped_early,
    }
}

/// Compute every micro-batch shard's flat gradient vector and
/// training-forward predictions, using up to `replicas.len()` worker
/// threads, and return them in ascending shard order.
///
/// Each shard is computed against a replica freshly synced to `model`'s
/// weights.  Work distribution across threads is dynamic (an atomic
/// cursor), but since each shard is computed independently and results
/// are returned in shard order, the *outcome* — and therefore training —
/// does not depend on which thread computed which shard or how many
/// threads ran.
fn compute_shard_results<M: Trainable>(
    model: &M,
    replicas: &mut [M],
    samples: &[M::Sample],
    micro_batches: &[&[usize]],
) -> Vec<(Vec<f64>, Vec<M::Prediction>)> {
    let run_shard = |replica: &mut M, shard: &[usize]| {
        let refs: Vec<&M::Sample> = shard.iter().map(|&i| &samples[i]).collect();
        replica.zero_grad();
        let predictions = replica.accumulate_batch(&refs);
        let mut gradients = Vec::new();
        replica.export_gradients(&mut gradients);
        (gradients, predictions)
    };

    // Only the replicas that will actually run a shard need this step's
    // weights (e.g. the final partial mini-batch of an epoch may have a
    // single shard).
    let used = replicas.len().min(micro_batches.len()).max(1);
    let replicas = &mut replicas[..used];
    for replica in replicas.iter_mut() {
        replica.copy_weights_from(model);
    }

    if replicas.len() <= 1 || micro_batches.len() <= 1 {
        let replica = replicas.first_mut().expect("at least one replica");
        return micro_batches
            .iter()
            .map(|shard| run_shard(replica, shard))
            .collect();
    }

    let slots = Mutex::new((0..micro_batches.len()).map(|_| None).collect::<Vec<_>>());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for replica in replicas.iter_mut() {
            let (slots, cursor, run_shard) = (&slots, &cursor, &run_shard);
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= micro_batches.len() {
                    break;
                }
                let result = run_shard(replica, micro_batches[k]);
                slots.lock().expect("shard slots poisoned")[k] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("shard slots poisoned")
        .into_iter()
        .map(|s| s.expect("every shard computed"))
        .collect()
}

/// Median Q-error of a model over labelled graphs, evaluated through the
/// batched forward pass (bit-identical to per-example prediction).
pub fn median_q_error(model: &ZeroShotCostModel, graphs: &[PlanGraph]) -> f64 {
    model.evaluate(graphs)
}

/// Few-shot fine-tuning: continue training an existing zero-shot model with
/// a small number of executions from the (previously unseen) target
/// database.  Returns a new `TrainedModel`; the original is not modified.
///
/// Featurizes the executions with the model's own featurizer and runs
/// [`few_shot_finetune_with`] (full-batch by default — fine-tuning sets
/// are tiny by definition) with the given epoch/learning-rate overrides.
pub fn few_shot_finetune(
    trained: &TrainedModel,
    target_db: &Database,
    executions: &[QueryExecution],
    epochs: usize,
    learning_rate: f64,
) -> TrainedModel {
    few_shot_finetune_with(
        trained,
        target_db,
        executions,
        FinetuneConfig {
            epochs,
            learning_rate,
            ..FinetuneConfig::default()
        },
    )
}

/// [`few_shot_finetune`] with full control over the fine-tuning
/// hyper-parameters: featurize the target-database executions with the
/// model's own featurizer, then run [`ModelTrainer::finetune_from`].
pub fn few_shot_finetune_with(
    trained: &TrainedModel,
    target_db: &Database,
    executions: &[QueryExecution],
    config: FinetuneConfig,
) -> TrainedModel {
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| featurize_execution(target_db.catalog(), e, trained.featurizer))
        .collect();
    Trainer::finetune_from(trained, &graphs, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{collect_for_database, collect_training_corpus, TrainingDataConfig};
    use zsdb_catalog::presets;
    use zsdb_query::WorkloadSpec;

    fn featurized_tiny_corpus() -> Vec<PlanGraph> {
        let config = TrainingDataConfig::tiny();
        let corpus = collect_training_corpus(&config);
        // Rebuild the catalogs the corpus was generated from.
        let schemas = zsdb_catalog::SchemaGenerator::new(config.schema_config.clone())
            .generate_corpus("train", config.num_databases, config.seed);
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        trainer.featurize_corpus(&corpus, |name| {
            schemas
                .iter()
                .find(|s| s.name == name)
                .expect("catalog for corpus database")
        })
    }

    #[test]
    fn training_reduces_qerror() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);
        let first = trained.training_curve.first().copied().unwrap();
        let last = trained.final_train_qerror;
        assert!(last < first, "q-error should improve: {first} -> {last}");
        assert!(last < 2.5, "final training q-error too high: {last}");
    }

    #[test]
    fn trained_model_generalizes_to_unseen_database() {
        // Train on the tiny synthetic corpus, evaluate on the IMDB-like
        // database the model has never seen.  Zero-shot predictions should
        // be far better than a naive constant predictor.
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);

        let imdb = Database::generate(presets::imdb_like(0.02), 42);
        let eval_execs = collect_for_database(&imdb, &WorkloadSpec::paper_training(), 30, 77);
        let eval_graphs: Vec<PlanGraph> = eval_execs
            .iter()
            .map(|e| featurize_execution(imdb.catalog(), e, trained.featurizer))
            .collect();
        let zero_shot_q = median_q_error(&trained.model, &eval_graphs);

        // Naive baseline: always predict the mean training runtime.
        let mean_runtime =
            graphs.iter().filter_map(|g| g.runtime_secs).sum::<f64>() / graphs.len() as f64;
        let naive_q = median(
            &eval_execs
                .iter()
                .map(|e| q_error(mean_runtime, e.runtime_secs))
                .collect::<Vec<_>>(),
        );
        assert!(
            zero_shot_q < naive_q,
            "zero-shot {zero_shot_q} should beat naive {naive_q}"
        );
        assert!(zero_shot_q < 5.0, "zero-shot median q-error {zero_shot_q}");
    }

    #[test]
    fn few_shot_improves_on_target_database() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);

        let imdb = Database::generate(presets::imdb_like(0.02), 42);
        let target_execs = collect_for_database(&imdb, &WorkloadSpec::paper_training(), 40, 5);
        let (finetune_set, holdout) = target_execs.split_at(25);

        let holdout_graphs: Vec<PlanGraph> = holdout
            .iter()
            .map(|e| featurize_execution(imdb.catalog(), e, trained.featurizer))
            .collect();
        let before = median_q_error(&trained.model, &holdout_graphs);
        let finetuned = few_shot_finetune(&trained, &imdb, finetune_set, 30, 3e-4);
        let after = median_q_error(&finetuned.model, &holdout_graphs);
        assert!(
            after <= before * 1.15,
            "few-shot should not make things much worse: {before} -> {after}"
        );
    }

    #[test]
    fn thread_count_never_changes_a_bit_of_training_or_fine_tuning() {
        // The determinism guarantee of the sharded gradient reduction:
        // shard boundaries are fixed by `microbatch_size`, shard gradients
        // are reduced in ascending shard order, so the thread count must
        // not change a single bit of the artifact — weights or curves.
        let graphs = featurized_tiny_corpus();
        let run = |threads: usize| {
            let training = TrainingConfig {
                epochs: 3,
                microbatch_size: 3,
                validation_fraction: 0.1,
                threads,
                ..TrainingConfig::tiny()
            };
            let finetuning = FinetuneConfig {
                epochs: 4,
                batch_size: 8,
                microbatch_size: 3,
                threads,
                ..FinetuneConfig::default()
            };
            let base = Trainer::new(ModelConfig::tiny(), training, FeaturizerConfig::exact())
                .train(&graphs);
            let tuned = Trainer::finetune_from(&base, &graphs[..12], finetuning);
            (base, tuned)
        };
        let (base, tuned) = run(1);
        for threads in [2, 4] {
            let (other_base, other_tuned) = run(threads);
            assert_eq!(base.to_json(), other_base.to_json(), "{threads} threads");
            assert_eq!(tuned.to_json(), other_tuned.to_json(), "{threads} threads");
        }
        // Fine-tuning actually moved the weights, and the featurizer
        // rides along.
        assert_ne!(tuned.model.to_json(), base.model.to_json());
        assert_eq!(tuned.featurizer, base.featurizer);
    }

    #[test]
    fn finetune_from_improves_fit_on_the_finetuning_set() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                validation_fraction: 0.0,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let base = trainer.train(&graphs);
        let finetune_set = &graphs[..16];
        let before = median_q_error(&base.model, finetune_set);
        let tuned = Trainer::finetune_from(
            &base,
            finetune_set,
            FinetuneConfig {
                epochs: 25,
                ..FinetuneConfig::default()
            },
        );
        assert!(
            tuned.final_train_qerror <= before * 1.05,
            "fine-tuning should not hurt the set it fits: {before} -> {}",
            tuned.final_train_qerror
        );
        assert_eq!(tuned.training_curve.len(), 25);
    }

    #[test]
    fn attached_tracer_records_epochs_without_changing_weights() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 3,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let tracer = Tracer::new(64);
        let plain = trainer.train(&graphs);
        let traced = trainer.clone().with_tracer(tracer.clone()).train(&graphs);
        assert_eq!(
            plain.model.to_json(),
            traced.model.to_json(),
            "tracing must not perturb training"
        );
        let epochs: Vec<_> = tracer
            .events(16)
            .into_iter()
            .filter(|e| e.name == "train.epoch_secs")
            .collect();
        assert_eq!(epochs.len(), 3, "one event per epoch");
        // `TrainingConfig::tiny()` disables early stopping: every epoch ran.
        assert!(plain.training_curve.len() == 3 && !plain.stopped_early);
        assert!(epochs.iter().all(|e| e.value >= 0.0));
        assert!(epochs.iter().any(|e| e.detail.contains("shard gradients")));

        let tuned = Trainer::finetune_from_traced(
            &plain,
            &graphs[..8],
            FinetuneConfig {
                epochs: 2,
                ..FinetuneConfig::default()
            },
            Some(&tracer),
        );
        assert_eq!(tuned.training_curve.len(), 2);
        let finetune_epochs = tracer
            .events(32)
            .into_iter()
            .filter(|e| e.name == "finetune.epoch_secs")
            .count();
        assert_eq!(finetune_epochs, 2);
    }

    #[test]
    fn trained_model_serialization_roundtrip() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);
        let json = trained.to_json();
        let restored = TrainedModel::from_json(&json).unwrap();
        assert!((restored.predict(&graphs[0]) - trained.predict(&graphs[0])).abs() < 1e-9);
        assert_eq!(restored.stopped_early, trained.stopped_early);
        assert_eq!(restored.training_curve.len(), trained.training_curve.len());
    }

    #[test]
    fn validation_split_and_early_stopping_work_together() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 60,
                validation_fraction: 0.25,
                early_stopping_patience: 2,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);

        // A validation split was carved out and evaluated every epoch.
        assert_eq!(trained.validation_curve.len(), trained.training_curve.len());
        let final_val = trained
            .final_validation_qerror
            .expect("validation split requested");
        assert!(final_val.is_finite());

        // The returned weights are the *best* monitored epoch, not the
        // last one.
        let best_seen = trained
            .validation_curve
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (final_val - best_seen).abs() < 1e-12,
            "returned model should be the best epoch: best {best_seen}, got {final_val}"
        );

        // With patience 2 over 60 epochs on a tiny corpus, early stopping
        // fires well before the epoch cap.
        assert!(
            trained.stopped_early || trained.training_curve.len() == 60,
            "curve bookkeeping is consistent"
        );
    }
}
