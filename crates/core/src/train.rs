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
//! `export_gradients`, `add_gradients_from`, `copy_weights_from`) and the
//! chunked evaluation are provided methods written once over
//! [`Trainable::params`], which iterates the buffers without collecting
//! them.  [`Trainer`] is `ModelTrainer<ZeroShotCostModel>`; the
//! multi-task crate's trainer is the same struct over its own model, so a
//! new task head costs one `impl Trainable`, not a trainer.
//!
//! # What a step costs
//!
//! A step pays for its arithmetic and nothing else:
//!
//! * **No allocation.**  Each replica keeps a [`Trainable::Scratch`]
//!   beside it — for the cost model a [`TrainScratch`] holding the
//!   schedule, forward caches, backward temporaries and node states —
//!   sized from the training corpus before the first step
//!   ([`Trainable::reserve_scratch`]), so a warm step on one thread makes
//!   no heap allocation (`tests/alloc_regression.rs` holds it to that).
//!   The multi-task model's scratch is `()` for now: its passes allocate.
//! * **Reduction without a flat copy.**  Shards run in *waves*, one shard
//!   per replica (inline when there is one replica, on scoped threads
//!   otherwise); after each wave every replica's gradient buffers are
//!   added straight into the zeroed master's, in ascending shard order —
//!   per parameter `((0 + g₀) + g₁) + …`, the same additions as ever,
//!   with no exported gradient vector between them.
//! * **Nothing evaluated twice.**  The returned weights' validation
//!   q-errors are the ones their epoch already computed, and evaluation
//!   runs in chunks of [`EVAL_CHUNK`] graphs through the replica's
//!   reused scratch.
//!
//! With a tracer attached, each epoch event splits the epoch into shard
//! forward + backward, reduction, Adam and validation seconds, which sum
//! to the epoch; without one the loop reads no clock.
//!
//! The loop returns the artifact itself, [`Trained<M>`]: the weights, the
//! featurizer configuration and the run's q-errors, serialized the same
//! way for every model ([`TrainedModel`] is the cost model's).

use crate::batch::TrainScratch;
use crate::features::{featurize_execution, FeaturizerConfig, PlanGraph};
use crate::model::{ModelConfig, ZeroShotCostModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
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
    /// Fraction of the training *samples* held out for validation: the
    /// last `⌊len × fraction⌋` samples in the order given, clamped to all
    /// of them (0 = no validation split).  A corpus collected database by
    /// database keeps each database's samples together, so the tail
    /// approximates a held-out database without being one.
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

/// Graphs per chunk of batched evaluation.  Predictions do not depend on
/// it (batched prediction is bit-identical to per-example prediction);
/// the cost per graph does.  Measured on 400 generated training graphs
/// with the default model: 25.9 µs per graph in chunks of 256 through
/// fresh buffers, 18.5 µs in chunks of 32 through reused ones (20.9 µs at
/// 256 reused, 18.0–18.4 µs at 8–16).
pub const EVAL_CHUNK: usize = 32;

/// What the training loop needs from a model.
///
/// The required methods say how the model is built, where its parameters
/// live, how one mini-batch is pushed forward (and backward) and how
/// predictions are scored; everything the loop does with gradients and
/// weights is provided once, over [`Trainable::params`] /
/// [`Trainable::params_mut`].
pub trait Trainable: Clone + Send + Sized {
    /// Hyper-parameters a fresh model is built from.
    type Config: Clone + Debug + Serialize + Deserialize;
    /// One labelled training example.
    type Sample: Sync;
    /// What the model predicts for one sample.
    type Prediction: Send;
    /// Median q-error(s) of a set of predictions (one number per task).
    type QErrors: Copy + Serialize + Deserialize;
    /// Buffers one replica reuses across its forward + backward passes
    /// and batched evaluations — `()` for a model whose passes allocate.
    type Scratch: Default + Send;

    /// Create a freshly initialised model.
    fn new(config: Self::Config) -> Self;

    /// The hyper-parameters the model was built from.
    fn config(&self) -> &Self::Config;

    /// Every parameter buffer in the model's canonical order (weights
    /// before bias per layer).  This order is the order of the
    /// deterministic shard reduction and of
    /// [`Trainable::export_gradients`].
    fn params(&self) -> impl Iterator<Item = &ParamBuf>;

    /// Mutable counterpart of [`Trainable::params`], same order.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut ParamBuf>;

    /// Size `scratch` for forward + backward passes over micro-batches of
    /// at most `microbatch` of `samples`, so that none of them grows a
    /// buffer.  The default does nothing.
    fn reserve_scratch(
        &self,
        _scratch: &mut Self::Scratch,
        _samples: &[Self::Sample],
        _microbatch: usize,
    ) {
    }

    /// One batched forward + backward over `samples`, *accumulating*
    /// gradients (no optimizer step); appends the training-forward
    /// predictions to `predictions` in sample order.
    fn accumulate_batch(
        &mut self,
        samples: &[&Self::Sample],
        scratch: &mut Self::Scratch,
        predictions: &mut Vec<Self::Prediction>,
    );

    /// One batched forward over `samples`, appending the predictions to
    /// `predictions` in sample order.
    fn predict_samples(
        &self,
        samples: &[&Self::Sample],
        scratch: &mut Self::Scratch,
        predictions: &mut Vec<Self::Prediction>,
    );

    /// Median q-error(s) of `predictions` against the samples' labels.
    fn q_errors(samples: &[&Self::Sample], predictions: &[Self::Prediction]) -> Self::QErrors;

    /// The one number early stopping monitors.
    fn monitored(qerrors: &Self::QErrors) -> f64;

    /// Whether `sample` carries every label training needs.
    fn is_labelled(_sample: &Self::Sample) -> bool {
        true
    }

    /// Number of trainable parameters.
    fn num_parameters(&self) -> usize {
        self.params().map(ParamBuf::len).sum()
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Apply one optimizer step over all parameters, in canonical order.
    fn apply_step(&mut self, adam: &mut Adam) {
        adam.step(self.params_mut());
    }

    /// Export the accumulated gradients as one flat vector in canonical
    /// parameter order (cleared and refilled).
    fn export_gradients(&self, out: &mut Vec<f64>) {
        out.clear();
        for p in self.params() {
            out.extend_from_slice(&p.grad);
        }
    }

    /// Add `src`'s accumulated gradients onto this model's, buffer by
    /// buffer in canonical order — one shard's contribution to the
    /// master.  Together with a fixed caller-side shard order this makes
    /// multi-shard gradient accumulation deterministic.
    fn add_gradients_from(&mut self, src: &Self) {
        zip_params(self, src, |d, s| {
            for (g, v) in d.grad.iter_mut().zip(&s.grad) {
                *g += v;
            }
        });
    }

    /// Copy the parameter *values* (not gradients or optimizer moments)
    /// from `src`, buffer to buffer.  Used to refresh worker-shard model
    /// replicas after every optimizer step.
    fn copy_weights_from(&mut self, src: &Self) {
        zip_params(self, src, |d, s| d.data.copy_from_slice(&s.data));
    }

    /// Predict `samples` in chunks of [`EVAL_CHUNK`] through one reused
    /// `scratch`.
    fn predict_chunked(
        &self,
        samples: &[&Self::Sample],
        scratch: &mut Self::Scratch,
    ) -> Vec<Self::Prediction> {
        let mut predictions = Vec::with_capacity(samples.len());
        for chunk in samples.chunks(EVAL_CHUNK) {
            self.predict_samples(chunk, scratch, &mut predictions);
        }
        predictions
    }

    /// Median q-error(s) of the model over `samples`, through the batched
    /// forward pass (bit-identical to per-example prediction).
    fn evaluate(&self, samples: &[Self::Sample]) -> Self::QErrors {
        self.evaluate_with(samples, &mut Self::Scratch::default())
    }

    /// [`Trainable::evaluate`] through a reused `scratch`.
    fn evaluate_with(
        &self,
        samples: &[Self::Sample],
        scratch: &mut Self::Scratch,
    ) -> Self::QErrors {
        let refs: Vec<&Self::Sample> = samples.iter().collect();
        Self::q_errors(&refs, &self.predict_chunked(&refs, scratch))
    }
}

/// Apply `f` to every pair of same-position parameter buffers of `dst`
/// and `src`, which must have the same shape.
fn zip_params<M: Trainable>(dst: &mut M, src: &M, mut f: impl FnMut(&mut ParamBuf, &ParamBuf)) {
    let mut from = src.params();
    for d in dst.params_mut() {
        let s = from.next().expect("model shapes differ");
        assert_eq!(d.len(), s.len(), "model shapes differ");
        f(d, s);
    }
    assert!(from.next().is_none(), "model shapes differ");
}

/// A trained model together with its featurizer configuration and
/// training statistics: what the training loop returns and the registry
/// stores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trained<M: Trainable> {
    /// The trained model (the best monitored epoch under early stopping,
    /// the last epoch otherwise).
    pub model: M,
    /// Featurizer configuration used during training (and required at
    /// inference time).
    pub featurizer: FeaturizerConfig,
    /// Median training q-error(s) of the returned weights.
    pub final_train_qerror: M::QErrors,
    /// Median validation q-error(s) of the returned weights (`None` when no
    /// validation split was used).
    pub final_validation_qerror: Option<M::QErrors>,
    /// Per-epoch median q-error(s) of the epoch's own training forwards
    /// (one entry per epoch actually run).
    pub training_curve: Vec<M::QErrors>,
    /// Per-epoch monitored validation q-error (empty without a validation
    /// split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended training before
    /// [`TrainingConfig::epochs`] epochs.
    pub stopped_early: bool,
}

/// A trained zero-shot cost model.
pub type TrainedModel = Trained<ZeroShotCostModel>;

impl<M: Trainable + Serialize + Deserialize> Trained<M> {
    /// Serialize to JSON (for persistence).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained model serialization cannot fail")
    }

    /// Restore from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
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
}

impl Trainable for ZeroShotCostModel {
    type Config = ModelConfig;
    type Sample = PlanGraph;
    type Prediction = f64;
    type QErrors = f64;
    type Scratch = TrainScratch;

    fn new(config: ModelConfig) -> Self {
        ZeroShotCostModel::new(config)
    }

    fn config(&self) -> &ModelConfig {
        ZeroShotCostModel::config(self)
    }

    /// Encoders by node kind, then combine, then output.
    fn params(&self) -> impl Iterator<Item = &ParamBuf> {
        self.encoder.params().chain(self.output.params())
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut ParamBuf> {
        self.encoder.params_mut().chain(self.output.params_mut())
    }

    fn reserve_scratch(&self, scratch: &mut TrainScratch, graphs: &[PlanGraph], microbatch: usize) {
        self.reserve_training(scratch, graphs, microbatch);
    }

    fn accumulate_batch(
        &mut self,
        graphs: &[&PlanGraph],
        scratch: &mut TrainScratch,
        predictions: &mut Vec<f64>,
    ) {
        let target = |e: usize| graphs[e].runtime_secs.expect("labelled");
        self.accumulate_gradients_into(graphs, target, scratch, predictions);
    }

    fn predict_samples(
        &self,
        graphs: &[&PlanGraph],
        scratch: &mut TrainScratch,
        predictions: &mut Vec<f64>,
    ) {
        self.predict_batch_into(graphs, scratch, predictions);
    }

    /// Median q-error over the labelled graphs (unlabelled ones are
    /// skipped, so evaluation sets may mix both).
    fn q_errors(graphs: &[&PlanGraph], predictions: &[f64]) -> f64 {
        let mut qs = Vec::with_capacity(graphs.len());
        let labelled = graphs.iter().zip(predictions);
        qs.extend(labelled.filter_map(|(g, p)| g.runtime_secs.map(|t| q_error(*p, t))));
        median(&qs)
    }

    fn monitored(qerror: &f64) -> f64 {
        *qerror
    }

    fn is_labelled(graph: &PlanGraph) -> bool {
        graph.runtime_secs.is_some()
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
    /// `train.epoch_secs` event per epoch — the epoch's seconds, and in the
    /// detail its training median q-error and the seconds spent in shard
    /// forward + backward, reduction, Adam and validation, which sum to
    /// the epoch.  Tracing never changes the trained weights.
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
    pub fn train(&self, samples: &[M::Sample]) -> Trained<M> {
        let cfg = &self.training_config;
        // Split by index: samples from the same database are contiguous
        // in collection order, so a tail split approximates a
        // database-level holdout.  `validation_fraction` is public and
        // deserializable, hence the clamp.
        let val_len =
            (((samples.len() as f64) * cfg.validation_fraction) as usize).min(samples.len());
        let (train, val) = samples.split_at(samples.len() - val_len);
        let model = M::new(self.model_config.clone());
        let (event, tracer) = ("train.epoch_secs", self.tracer.as_ref());
        fit(model, train, val, cfg, self.featurizer, event, tracer)
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
        trained: &Trained<M>,
        samples: &[M::Sample],
        config: FinetuneConfig,
    ) -> Trained<M> {
        Self::finetune_from_traced(trained, samples, config, None)
    }

    /// [`ModelTrainer::finetune_from`] emitting one `finetune.epoch_secs`
    /// event per epoch on the given tracer (same detail as
    /// [`ModelTrainer::with_tracer`]).  Tracing never changes the
    /// fine-tuned weights.
    pub fn finetune_from_traced(
        trained: &Trained<M>,
        samples: &[M::Sample],
        config: FinetuneConfig,
        tracer: Option<&Tracer>,
    ) -> Trained<M> {
        assert!(!samples.is_empty(), "fine-tuning needs at least one sample");
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
        fit(
            trained.model.clone(),
            samples,
            &[],
            &cfg,
            trained.featurizer,
            "finetune.epoch_secs",
            tracer,
        )
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
/// per epoch on `tracer`, packaged with `featurizer` as the artifact.  The
/// caller has already split off `val`; `cfg.validation_fraction` is not
/// read here.
fn fit<M: Trainable>(
    mut model: M,
    train: &[M::Sample],
    val: &[M::Sample],
    cfg: &TrainingConfig,
    featurizer: FeaturizerConfig,
    event: &'static str,
    tracer: Option<&Tracer>,
) -> Trained<M> {
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
    // the reduction (zeroed shard gradients → ordered add into the zeroed
    // master) never depends on the thread count.
    let threads = cfg.effective_threads().min(batch_size.div_ceil(microbatch));
    let mut replicas: Vec<Replica<M>> = (0..threads.max(1))
        .map(|_| Replica::new(&model, train, microbatch))
        .collect();

    let mut indices: Vec<usize> = (0..train.len()).collect();
    let mut shuffled: Vec<&M::Sample> = Vec::with_capacity(train.len());
    let mut predictions = Vec::with_capacity(train.len());
    let mut training_curve = Vec::with_capacity(cfg.epochs);
    let mut validation_curve = Vec::new();
    let mut last_validation = None;
    let mut best: Option<Best<M>> = None;
    let mut epochs_without_improvement = 0usize;
    let mut stopped_early = false;

    for epoch in 0..cfg.epochs {
        let mut stages = EpochStages::new(tracer.is_some());
        indices.shuffle(&mut rng);
        predictions.clear();
        for step in indices.chunks(batch_size) {
            // Only the replicas that will run a shard need this step's
            // weights (the final partial mini-batch of an epoch may have a
            // single shard).
            let used = replicas.len().min(step.len().div_ceil(microbatch));
            for replica in &mut replicas[..used] {
                replica.model.copy_weights_from(&model);
            }
            model.zero_grad();
            for wave in step.chunks(microbatch * replicas.len()) {
                run_wave(&mut replicas, train, wave, microbatch);
                stages.lap(Stage::Shards);
                // Shard order: predictions line up with `indices`.
                for replica in &mut replicas[..wave.len().div_ceil(microbatch)] {
                    model.add_gradients_from(&replica.model);
                    predictions.append(&mut replica.predictions);
                }
                stages.lap(Stage::Reduction);
            }
            model.apply_step(&mut adam);
            stages.lap(Stage::Adam);
        }

        // Running training metric: the q-errors of the predictions made
        // by the epoch's own training forwards (no separate evaluation
        // pass).
        shuffled.clear();
        shuffled.extend(indices.iter().map(|&i| &train[i]));
        let train_q = M::q_errors(&shuffled, &predictions);
        training_curve.push(train_q);
        let val_q = (!val.is_empty()).then(|| model.evaluate_with(val, &mut replicas[0].scratch));
        let monitored = match &val_q {
            Some(q) => {
                validation_curve.push(M::monitored(q));
                M::monitored(q)
            }
            None => M::monitored(&train_q),
        };
        last_validation = val_q;

        let mut stop = false;
        if cfg.early_stopping_patience > 0 {
            if best.as_ref().is_none_or(|b| monitored < b.monitored) {
                best = Some(Best {
                    monitored,
                    model: model.clone(),
                    validation: val_q,
                });
                epochs_without_improvement = 0;
            } else {
                epochs_without_improvement += 1;
                stop = epochs_without_improvement >= cfg.early_stopping_patience;
            }
        }
        stages.lap(Stage::Validation);
        if let Some(tracer) = tracer {
            let [shard_s, reduce_s, adam_s, val_s] = stages.secs();
            tracer.event(
                event,
                shard_s + reduce_s + adam_s + val_s,
                format!(
                    "epoch {epoch}: median q-error {:.4}; {shard_s:.6}s in shard gradients, \
                     {reduce_s:.6}s reduction, {adam_s:.6}s Adam, {val_s:.6}s validation",
                    M::monitored(&train_q)
                ),
            );
        }
        if stop {
            stopped_early = true;
            break;
        }
    }

    // With early stopping enabled, return the best-epoch weights.  Either
    // way the returned weights' validation q-errors were computed by their
    // own epoch; only a run of zero epochs has none yet.
    let (model, validation) = match best {
        Some(best) => (best.model, best.validation),
        None => (model, last_validation),
    };
    let scratch = &mut replicas[0].scratch;
    let final_validation_qerror =
        validation.or_else(|| (!val.is_empty()).then(|| model.evaluate_with(val, scratch)));
    Trained {
        final_train_qerror: model.evaluate_with(train, scratch),
        final_validation_qerror,
        model,
        featurizer,
        training_curve,
        validation_curve,
        stopped_early,
    }
}

/// The best epoch so far under early stopping.
struct Best<M: Trainable> {
    monitored: f64,
    model: M,
    /// The epoch's validation q-errors (`None` without a split).
    validation: Option<M::QErrors>,
}

/// One worker replica: a copy of the model synced to the master before
/// every step, the buffers its passes reuse, and its current shard's
/// sample references and training-forward predictions.
struct Replica<'a, M: Trainable> {
    model: M,
    scratch: M::Scratch,
    shard: Vec<&'a M::Sample>,
    predictions: Vec<M::Prediction>,
}

impl<'a, M: Trainable> Replica<'a, M> {
    /// A replica of `model` whose buffers are sized for micro-batches of
    /// `samples`.
    fn new(model: &M, samples: &[M::Sample], microbatch: usize) -> Self {
        let mut scratch = M::Scratch::default();
        model.reserve_scratch(&mut scratch, samples, microbatch);
        Replica {
            model: model.clone(),
            scratch,
            shard: Vec::with_capacity(microbatch),
            predictions: Vec::with_capacity(microbatch),
        }
    }

    /// Zero the replica's gradients and accumulate those of the samples
    /// at `indices`.
    fn run(&mut self, samples: &'a [M::Sample], indices: &[usize]) {
        self.shard.clear();
        self.shard.extend(indices.iter().map(|&i| &samples[i]));
        self.model.zero_grad();
        let Replica {
            model,
            scratch,
            shard,
            predictions,
        } = self;
        model.accumulate_batch(shard, scratch, predictions);
    }
}

/// Run one wave of shards: `wave` cut into micro-batches of `microbatch`
/// indices, at most one per replica, shard `k` on replica `k` — inline
/// when there is one shard, on scoped threads otherwise.  Which thread ran
/// which shard never shows: each shard is computed independently and the
/// caller reduces them in shard order.
fn run_wave<'a, M: Trainable>(
    replicas: &mut [Replica<'a, M>],
    samples: &'a [M::Sample],
    wave: &[usize],
    microbatch: usize,
) {
    let mut jobs = replicas.iter_mut().zip(wave.chunks(microbatch));
    let Some((first, shard)) = jobs.next() else {
        return;
    };
    if wave.len() <= microbatch {
        first.run(samples, shard);
        return;
    }
    std::thread::scope(|scope| {
        for (replica, shard) in jobs {
            scope.spawn(move || replica.run(samples, shard));
        }
        first.run(samples, shard);
    });
}

/// The stages a traced epoch event splits its seconds into.
#[derive(Clone, Copy)]
enum Stage {
    /// Replica weight sync and shard forward + backward.
    Shards,
    /// Adding shard gradients into the master, in shard order.
    Reduction,
    /// The optimizer step.
    Adam,
    /// Training q-errors, validation and early-stopping bookkeeping.
    Validation,
}

/// Seconds per [`Stage`] of one epoch, charged lap by lap off one clock
/// so that they sum to the epoch.  Untraced, it holds nothing and reads
/// no clock.
struct EpochStages(Option<(Instant, [f64; 4])>);

impl EpochStages {
    fn new(traced: bool) -> Self {
        EpochStages(traced.then(|| (Instant::now(), [0.0; 4])))
    }

    /// Charge the time since the previous lap to `stage`.
    fn lap(&mut self, stage: Stage) {
        if let Some((last, secs)) = &mut self.0 {
            let now = Instant::now();
            secs[stage as usize] += now.duration_since(*last).as_secs_f64();
            *last = now;
        }
    }

    fn secs(&self) -> [f64; 4] {
        self.0.map_or([0.0; 4], |(_, secs)| secs)
    }
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
        // The detail splits the epoch into four stages that sum to it
        // (each printed to the microsecond).
        for e in &epochs {
            let (_, stages) = e.detail.split_once(';').expect("stage split");
            let secs: Vec<f64> = stages
                .split(',')
                .map(|s| s.split_whitespace().next().expect("seconds"))
                .map(|s| s.trim_end_matches('s').parse().expect("a number"))
                .collect();
            let total: f64 = secs.iter().sum();
            assert_eq!(secs.len(), 4, "{}", e.detail);
            assert!((total - e.value).abs() < 4e-6, "{}", e.detail);
            for stage in ["shard gradients", "reduction", "Adam", "validation"] {
                assert!(e.detail.contains(stage), "{}", e.detail);
            }
        }

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
