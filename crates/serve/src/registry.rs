//! Persistent, versioned model registry.
//!
//! A registered model becomes an on-disk *artifact directory*
//!
//! ```text
//! <root>/<model-name>/v0001/
//! ├── manifest.json   — provenance + integrity probes
//! └── model.json      — the full trained artifact (weights, featurizer, curves)
//! ```
//!
//! Every model goes through the same calls — [`ModelRegistry::register`],
//! [`ModelRegistry::load`], [`ModelRegistry::load_latest`] and
//! [`ModelRegistry::manifest`] — generic over a [`Trainable`] model whose
//! [`Trained`] artifact is [`Servable`]: the zero-shot cost model and the
//! multi-task model are two instantiations, and a new task head needs no
//! registry code.  The manifest records which served model
//! ([`Servable::NAME`]) the artifact holds; asking for it as another model
//! answers [`ServeError::NotFound`].
//!
//! Versions are monotonically increasing per model name; re-registering
//! under the same name creates the next version instead of overwriting.
//! Both files are written atomically, `model.json` first and
//! `manifest.json` last, and only a directory holding a manifest counts as
//! a version — so neither a concurrent reader nor a crash mid-registration
//! ever sees a version without its model.
//!
//! **Integrity probes.**  At registration time the registry records, for a
//! handful of probe plan graphs, the exact bit-pattern of every task head's
//! output ([`Servable::head_bits`]).  [`ModelRegistry::load`] re-runs those
//! predictions and refuses to return a model whose outputs changed —
//! catching artifact corruption, lossy float round-trips, or a drifted
//! inference implementation before bad predictions ever reach a client.
//!
//! **Version lifecycle.**  Every version moves through three states:
//!
//! 1. **registered** — the artifact exists on disk and passes its
//!    integrity probes, but nothing serves it;
//! 2. **promoted (active)** — [`ModelRegistry::promote`] appended it to
//!    the model's promotion history (`<root>/<name>/promotions.json`,
//!    written atomically); [`ModelRegistry::active_version`] resolves to
//!    the newest promoted version (falling back to the newest registered
//!    one when nothing was ever promoted).  The online adaptation loop
//!    promotes every fine-tuned version it hot-swaps in;
//! 3. **superseded / rolled back** — a later promotion supersedes the
//!    version, or [`ModelRegistry::rollback`] pops the history back to
//!    its predecessor.  Artifacts are never deleted, so any historical
//!    version can be inspected, re-promoted, or served again
//!    bit-identically.

use crate::error::ServeError;
use crate::server::Servable;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use zsdb_core::features::PlanGraph;
use zsdb_core::fingerprint::graph_fingerprint;
use zsdb_core::{CatalogStates, FeaturizerConfig, Trainable, Trained};

/// On-disk artifact format version understood by this build.
///
/// Version history:
/// * **1** — initial format.
/// * **2** — `TrainedModel` gained the `validation_curve` and
///   `stopped_early` training-statistics fields (batched trainer);
///   version-1 artifacts lack them and cannot be deserialized, so they
///   are rejected with a clean
///   [`ServeError::FormatVersionMismatch`](crate::ServeError) instead of
///   a parse error.
/// * **3** — the model weights are restructured around the shared
///   [`PlanEncoder`](zsdb_core::PlanEncoder) (the `zsdb_multitask`
///   subsystem), changing the serialized `ZeroShotCostModel` layout, and
///   multi-task artifacts (`multitask_manifest.json` /
///   `multitask_model.json` with per-head integrity probes) are
///   introduced.  Version-2 artifacts use the flat pre-encoder weight
///   layout and are rejected with a clean
///   [`ServeError::FormatVersionMismatch`](crate::ServeError) instead of
///   a parse error.
/// * **4** — the MLP kernels adopt the canonical 4-lane reduction order
///   (`zsdb_nn::kernel`): every dot product reduces lane-interleaved with
///   the bias added last, instead of sequentially from the bias.  Weights
///   serialize unchanged, but prediction *bits* shift by a few ulps, so
///   the bit-exact [`IntegrityProbe`] values recorded by version-3
///   artifacts would spuriously fail verification; they are rejected with
///   a clean [`ServeError::FormatVersionMismatch`](crate::ServeError)
///   (re-register the model to refresh its probes).
/// * **5** — one artifact and one manifest schema for every model.  The
///   manifest gains the served model's name (`model_name`) and its
///   `task_heads`, its `final_train_qerror` takes the model's q-error
///   type, and every probe records one list of bit patterns per head.
///   Multi-task artifacts move from `multitask_{manifest,model}.json` to
///   the common file pair, and their statistics keys become
///   `final_train_qerror` / `final_validation_qerror`.  A version-4
///   manifest has neither the model name nor the per-head probe shape,
///   so it is rejected with a clean
///   [`ServeError::FormatVersionMismatch`](crate::ServeError) before its
///   schema is parsed (re-register the model); a version-4 multi-task
///   artifact has no `manifest.json` and is not found.
pub const ARTIFACT_FORMAT_VERSION: u32 = 5;

/// Maximum number of integrity probes stored per artifact.
const MAX_PROBES: usize = 8;

const MANIFEST: &str = "manifest.json";
const MODEL: &str = "model.json";
const PROMOTIONS: &str = "promotions.json";

/// One prediction round-trip probe: a featurized plan graph plus the
/// bit-exact output of every task head at registration time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegrityProbe {
    /// Stable fingerprint of the probe graph (diagnostics).
    pub graph_fingerprint: u64,
    /// The probe graph itself.
    pub graph: PlanGraph,
    /// `f64::to_bits` of the model's outputs on `graph`, one list per
    /// head in [`ArtifactManifest::task_heads`] order.
    pub prediction_bits: Vec<Vec<u64>>,
}

/// Provenance and integrity metadata stored next to every model artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactManifest<M: Trainable> {
    /// Registry format version (see [`ARTIFACT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Name this artifact is registered under.
    pub name: String,
    /// Artifact version (1-based, monotonically increasing).
    pub version: u32,
    /// The served model the artifact holds ([`Servable::NAME`]).
    pub model_name: String,
    /// Architecture hyper-parameters of the stored model.
    pub model_config: M::Config,
    /// Featurizer configuration (cardinality mode + feature mode) the
    /// model was trained with — required to featurize requests the same
    /// way at serving time.
    pub featurizer: FeaturizerConfig,
    /// Number of trainable parameters (sanity metadata).
    pub num_parameters: usize,
    /// The task heads the model answers, in probe order
    /// ([`Servable::TASK_HEADS`]).
    pub task_heads: Vec<String>,
    /// Median training q-error(s) recorded at training time.
    pub final_train_qerror: M::QErrors,
    /// Prediction round-trip probes verified on every load.
    pub probes: Vec<IntegrityProbe>,
}

/// A directory-backed registry of versioned model artifacts.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
}

impl ModelRegistry {
    /// Open (creating if necessary) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ModelRegistry { root })
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Register a trained model under `name`, returning the new version.
    ///
    /// `probe_graphs` seed the prediction round-trip integrity check; up
    /// to eight are stored (held-out plans from any database work — the
    /// check only needs *deterministic* inputs, not labelled ones).  At
    /// least one probe graph is required so a load can never silently
    /// skip verification.
    pub fn register<M>(
        &self,
        name: &str,
        trained: &Trained<M>,
        probe_graphs: &[PlanGraph],
    ) -> Result<u32, ServeError>
    where
        M: Trainable + Serialize + Deserialize,
        Trained<M>: Servable,
    {
        assert!(
            !probe_graphs.is_empty(),
            "at least one integrity probe graph is required"
        );
        let probes = probe_graphs
            .iter()
            .take(MAX_PROBES)
            .map(|g| IntegrityProbe {
                graph_fingerprint: graph_fingerprint(g),
                graph: g.clone(),
                prediction_bits: probe_bits(trained, g),
            })
            .collect();
        let (version, dir) = self.claim_next_version(name)?;

        let manifest = ArtifactManifest::<M> {
            format_version: ARTIFACT_FORMAT_VERSION,
            name: name.to_string(),
            version,
            model_name: Trained::<M>::NAME.to_string(),
            model_config: trained.model.config().clone(),
            featurizer: trained.featurizer,
            num_parameters: trained.model.num_parameters(),
            task_heads: Trained::<M>::TASK_HEADS
                .iter()
                .map(|h| h.to_string())
                .collect(),
            final_train_qerror: trained.final_train_qerror,
            probes,
        };
        write_atomic(&dir, MODEL, &trained.to_json())?;
        write_atomic(&dir, MANIFEST, &serde_json::to_string(&manifest)?)?;
        Ok(version)
    }

    /// Claim the next version directory atomically: `create_dir` (unlike
    /// `create_dir_all`) fails on an existing directory, so two concurrent
    /// registrations of the same name can never compute the same version
    /// and silently overwrite each other — the loser just retries with the
    /// next number, as it does past a directory a crashed registration
    /// left without a manifest.
    fn claim_next_version(&self, name: &str) -> Result<(u32, PathBuf), ServeError> {
        fs::create_dir_all(self.root.join(name))?;
        let mut version = self.versions(name)?.last().copied().unwrap_or(0) + 1;
        loop {
            let dir = self.version_dir(name, version);
            match fs::create_dir(&dir) {
                Ok(()) => return Ok((version, dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => version += 1,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// All registered versions of `name` — the version directories holding
    /// a manifest — ascending.  A name with no artifacts yields an empty
    /// list.
    pub fn versions(&self, name: &str) -> Result<Vec<u32>, ServeError> {
        let dir = self.root.join(name);
        let mut versions = Vec::new();
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(versions),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            let file_name = entry.file_name();
            let version = file_name
                .to_string_lossy()
                .strip_prefix('v')
                .and_then(|s| s.parse::<u32>().ok());
            if let Some(v) = version.filter(|_| entry.path().join(MANIFEST).exists()) {
                versions.push(v);
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// All model names with at least one registered version.
    pub fn model_names(&self) -> Result<Vec<String>, ServeError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !self.versions(&name)?.is_empty() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// The newest version of `name`.
    pub fn latest(&self, name: &str) -> Result<u32, ServeError> {
        self.versions(name)?
            .last()
            .copied()
            .ok_or_else(|| ServeError::NotFound {
                name: name.to_string(),
                version: None,
            })
    }

    /// Read an artifact's manifest without loading the model weights.
    ///
    /// The format version is read before the schema, so an artifact of
    /// another format version is a clean
    /// [`ServeError::FormatVersionMismatch`]; one holding another served
    /// model than `M`'s is [`ServeError::NotFound`].
    pub fn manifest<M>(&self, name: &str, version: u32) -> Result<ArtifactManifest<M>, ServeError>
    where
        M: Trainable + Serialize + Deserialize,
        Trained<M>: Servable,
    {
        let raw = serde_json::parse_value(&self.read(name, version, MANIFEST)?)?;
        let field = |key: &str| {
            let entries = raw.as_object().unwrap_or_default();
            let value = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            value.ok_or_else(|| serde_json::Error::custom(format!("manifest has no `{key}`")))
        };
        let found = u32::from_value(field("format_version")?)?;
        if found != ARTIFACT_FORMAT_VERSION {
            return Err(ServeError::FormatVersionMismatch {
                found,
                supported: ARTIFACT_FORMAT_VERSION,
            });
        }
        if String::from_value(field("model_name")?)? != Trained::<M>::NAME {
            return Err(ServeError::NotFound {
                name: name.to_string(),
                version: Some(version),
            });
        }
        Ok(ArtifactManifest::from_value(&raw)?)
    }

    /// Load a specific version of a model and re-verify the recorded
    /// outputs of every head bit for bit.
    pub fn load<M>(&self, name: &str, version: u32) -> Result<Trained<M>, ServeError>
    where
        M: Trainable + Serialize + Deserialize,
        Trained<M>: Servable,
    {
        let manifest = self.manifest::<M>(name, version)?;
        let trained = Trained::<M>::from_json(&self.read(name, version, MODEL)?)?;
        for (i, probe) in manifest.probes.iter().enumerate() {
            let bits = probe_bits(&trained, &probe.graph);
            if let Some((head, stored, got)) = first_mismatch(&probe.prediction_bits, &bits) {
                let hex = |b: Option<u64>| b.map_or("none".into(), |b| format!("{b:#018x}"));
                return Err(ServeError::IntegrityViolation {
                    name: name.to_string(),
                    version,
                    details: format!(
                        "probe {i} (graph {:#018x}), head {}: stored prediction bits {}, \
                         recomputed {}",
                        probe.graph_fingerprint,
                        manifest.task_heads.get(head).map_or("?", String::as_str),
                        hex(stored),
                        hex(got)
                    ),
                });
            }
        }
        Ok(trained)
    }

    /// Load the newest version of `name` (with integrity check).
    pub fn load_latest<M>(&self, name: &str) -> Result<Trained<M>, ServeError>
    where
        M: Trainable + Serialize + Deserialize,
        Trained<M>: Servable,
    {
        let version = self.latest(name)?;
        self.load(name, version)
    }

    // ── Version lifecycle ────────────────────────────────────────────
    //
    // A version moves through three states:
    //
    // * **registered** — the artifact exists on disk and passes its
    //   integrity probes, but nothing serves it;
    // * **promoted (active)** — the version was appended to the model's
    //   promotion history (`promotions.json`) and is what
    //   `active_version` resolves to; the adaptation loop promotes every
    //   fine-tuned version it hot-swaps in;
    // * **rolled back / superseded** — a later promotion (supersede) or
    //   a `rollback` (pop) ended the version's active tenure.  The
    //   artifact itself is never deleted, so any historical version can
    //   be re-promoted or inspected.

    /// Promote a registered version to *active*: append it to the
    /// model's promotion history.  Promoting the already-active version
    /// is a no-op.  Fails with [`ServeError::NotFound`] if the version
    /// was never registered.
    pub fn promote(&self, name: &str, version: u32) -> Result<(), ServeError> {
        if !self.version_dir(name, version).join(MANIFEST).exists() {
            return Err(ServeError::NotFound {
                name: name.to_string(),
                version: Some(version),
            });
        }
        let mut history = self.promotion_history(name)?;
        if history.last() == Some(&version) {
            return Ok(());
        }
        history.push(version);
        self.write_promotions(name, &history)
    }

    /// The full promotion history of `name`, oldest first (empty when
    /// nothing was ever promoted).
    pub fn promotion_history(&self, name: &str) -> Result<Vec<u32>, ServeError> {
        let path = self.root.join(name).join(PROMOTIONS);
        match fs::read_to_string(&path) {
            Ok(raw) => Ok(serde_json::from_str(&raw)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// The currently promoted (active) version, or `None` when nothing
    /// was ever promoted.
    pub fn promoted(&self, name: &str) -> Result<Option<u32>, ServeError> {
        Ok(self.promotion_history(name)?.last().copied())
    }

    /// Roll the active version back to its predecessor in the promotion
    /// history, returning the version that is now active.  Fails with
    /// [`ServeError::RollbackUnavailable`] when the history holds fewer
    /// than two entries (there is nothing to fall back to).
    pub fn rollback(&self, name: &str) -> Result<u32, ServeError> {
        let mut history = self.promotion_history(name)?;
        if history.len() < 2 {
            return Err(ServeError::RollbackUnavailable {
                name: name.to_string(),
            });
        }
        history.pop();
        let active = *history.last().expect("checked non-empty");
        self.write_promotions(name, &history)?;
        Ok(active)
    }

    /// The version a server should serve: the promoted version when one
    /// exists, otherwise the newest registered version.
    pub fn active_version(&self, name: &str) -> Result<u32, ServeError> {
        match self.promoted(name)? {
            Some(v) => Ok(v),
            None => self.latest(name),
        }
    }

    fn write_promotions(&self, name: &str, history: &[u32]) -> Result<(), ServeError> {
        write_atomic(
            &self.root.join(name),
            PROMOTIONS,
            &serde_json::to_string(history)?,
        )
    }

    /// Read one file of a version; a missing file is
    /// [`ServeError::NotFound`].
    fn read(&self, name: &str, version: u32, file: &str) -> Result<String, ServeError> {
        let path = self.version_dir(name, version).join(file);
        fs::read_to_string(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => ServeError::NotFound {
                name: name.to_string(),
                version: Some(version),
            },
            _ => e.into(),
        })
    }

    fn version_dir(&self, name: &str, version: u32) -> PathBuf {
        self.root.join(name).join(format!("v{version:04}"))
    }
}

/// The bit patterns of every head of `trained`'s output on `graph`.  A
/// probe has no catalog, so it forwards without catalog states.
fn probe_bits<M: Trainable>(trained: &Trained<M>, graph: &PlanGraph) -> Vec<Vec<u64>>
where
    Trained<M>: Servable,
{
    let output = trained.forward(graph, &CatalogStates::default(), &mut Default::default());
    Trained::<M>::head_bits(&output)
}

/// The first head whose stored and recomputed bits differ, with the first
/// differing entry on each side (`None` past the end of a list).
fn first_mismatch(
    stored: &[Vec<u64>],
    got: &[Vec<u64>],
) -> Option<(usize, Option<u64>, Option<u64>)> {
    let head = (0..stored.len().max(got.len())).find(|&h| stored.get(h) != got.get(h))?;
    let (s, g) = (
        stored.get(head).map_or(&[][..], Vec::as_slice),
        got.get(head).map_or(&[][..], Vec::as_slice),
    );
    let at = (0..s.len().max(g.len()))
        .find(|&j| s.get(j) != g.get(j))
        .unwrap_or(0);
    Some((head, s.get(at).copied(), g.get(at).copied()))
}

/// Write `dir/file` atomically *and durably*: a uniquely named temp file
/// (two concurrent writers never share one), fsync'd before the rename,
/// then the directory fsync'd after it — without the directory sync a
/// crash shortly after the rename can still lose it (the rename itself
/// lives in the directory's metadata).  A crash mid-write leaves at worst
/// a stale `<file>.<pid>.<n>.tmp` behind, never a torn `file`.
fn write_atomic(dir: &Path, file: &str, payload: &str) -> Result<(), ServeError> {
    use std::io::Write as _;
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = dir.join(format!(
        "{file}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| -> Result<(), ServeError> {
        let mut handle = fs::File::create(&tmp)?;
        handle.write_all(payload.as_bytes())?;
        handle.sync_all()?;
        drop(handle);
        fs::rename(&tmp, dir.join(file))?;
        // Persist the rename itself. Directories cannot be fsync'd on
        // every platform (e.g. Windows); treat that as best-effort.
        if let Ok(dir_handle) = fs::File::open(dir) {
            let _ = dir_handle.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        // Never leave a half-written temp file to be confused for data;
        // ignore cleanup failure (the unique name keeps it inert either
        // way).
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use zsdb_catalog::presets;
    use zsdb_core::features::{featurize_execution, FeaturizerConfig};
    use zsdb_core::model::ModelConfig;
    use zsdb_core::train::{TrainedModel, Trainer, TrainingConfig};
    use zsdb_core::ZeroShotCostModel;
    use zsdb_engine::{QueryExecution, QueryRunner};
    use zsdb_multitask::{
        sample_from_execution, MultiTaskConfig, MultiTaskModel, MultiTaskTrainer,
        TrainedMultiTaskModel,
    };
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    fn temp_registry() -> ModelRegistry {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "zsdb_registry_test_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        ModelRegistry::open(dir).unwrap()
    }

    fn executions() -> (Database, Vec<QueryExecution>) {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 20, 1);
        let executions = QueryRunner::with_defaults(&db).run_workload(&queries, 0);
        (db, executions)
    }

    fn tiny_training() -> TrainingConfig {
        TrainingConfig {
            epochs: 3,
            validation_fraction: 0.0,
            ..TrainingConfig::tiny()
        }
    }

    fn tiny_trained_model_and_graphs() -> (TrainedModel, Vec<PlanGraph>) {
        let (db, executions) = executions();
        let graphs: Vec<PlanGraph> = executions
            .iter()
            .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
            .collect();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            tiny_training(),
            FeaturizerConfig::exact(),
        );
        (trainer.train(&graphs), graphs)
    }

    fn tiny_multitask_model_and_graphs() -> (TrainedMultiTaskModel, Vec<PlanGraph>) {
        let (db, executions) = executions();
        let samples: Vec<_> = executions
            .iter()
            .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::exact()))
            .collect();
        let trainer = MultiTaskTrainer::new(
            MultiTaskConfig::tiny(),
            tiny_training(),
            FeaturizerConfig::exact(),
        );
        let graphs = samples.iter().map(|s| s.graph.clone()).collect();
        (trainer.train(&samples), graphs)
    }

    /// What the registry promises for any model: a bit-for-bit round trip
    /// with the artifact's provenance in its manifest, and clean refusals
    /// of corrupted weights and of a future format.
    fn registry_contract<M>(trained: &Trained<M>, graphs: &[PlanGraph])
    where
        M: Trainable + Serialize + Deserialize,
        Trained<M>: Servable,
    {
        let registry = temp_registry();
        let v = registry.register("m", trained, &graphs[..3]).unwrap();
        assert_eq!(v, 1);

        let loaded = registry.load_latest::<M>("m").unwrap();
        assert_eq!(loaded.to_json(), trained.to_json());
        for g in graphs {
            assert_eq!(probe_bits(&loaded, g), probe_bits(trained, g));
        }

        let manifest = registry.manifest::<M>("m", v).unwrap();
        assert_eq!(manifest.format_version, ARTIFACT_FORMAT_VERSION);
        assert_eq!((manifest.name.as_str(), manifest.version), ("m", v));
        assert_eq!(manifest.model_name, Trained::<M>::NAME);
        assert_eq!(manifest.task_heads, Trained::<M>::TASK_HEADS);
        assert_eq!(manifest.featurizer, trained.featurizer);
        assert_eq!(manifest.num_parameters, trained.model.num_parameters());
        assert_eq!(
            serde_json::to_string(&manifest.model_config).unwrap(),
            serde_json::to_string(trained.model.config()).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&manifest.final_train_qerror).unwrap(),
            serde_json::to_string(&trained.final_train_qerror).unwrap()
        );
        assert_eq!(manifest.probes.len(), 3);
        for probe in &manifest.probes {
            assert_eq!(probe.prediction_bits.len(), manifest.task_heads.len());
            assert_eq!(probe.prediction_bits, probe_bits(trained, &probe.graph));
        }

        // Corrupt the stored weights by swapping a digit in every float
        // containing "0.0", keeping the JSON valid.  (A single targeted
        // flip could land on a weight that only multiplies a one-hot slot
        // the probe graphs never activate; flipping all of them guarantees
        // live parameters change.)
        let dir = registry.root().join("m").join("v0001");
        let raw = fs::read_to_string(dir.join(MODEL)).unwrap();
        let corrupted = raw.replace("0.0", "0.5");
        assert_ne!(raw, corrupted, "corruption should change the artifact");
        fs::write(dir.join(MODEL), corrupted).unwrap();
        match registry.load::<M>("m", v).map(|_| ()) {
            Err(ServeError::IntegrityViolation { details, .. }) => {
                assert!(details.contains("probe") && details.contains("head"));
            }
            other => panic!("expected integrity violation, got {other:?}"),
        }

        let raw = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let current = format!("\"format_version\":{ARTIFACT_FORMAT_VERSION}");
        assert!(raw.contains(&current), "manifest records current version");
        fs::write(
            dir.join(MANIFEST),
            raw.replacen(&current, "\"format_version\":99", 1),
        )
        .unwrap();
        assert!(matches!(
            registry.load::<M>("m", v).map(|_| ()),
            Err(ServeError::FormatVersionMismatch { found: 99, .. })
        ));
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn the_cost_model_keeps_the_registry_contract() {
        let (model, graphs) = tiny_trained_model_and_graphs();
        registry_contract(&model, &graphs);
    }

    #[test]
    fn the_multitask_model_keeps_the_registry_contract() {
        let (model, graphs) = tiny_multitask_model_and_graphs();
        registry_contract(&model, &graphs);
    }

    #[test]
    fn an_artifact_asked_for_as_the_other_model_is_not_found() {
        let registry = temp_registry();
        let (cost, graphs) = tiny_trained_model_and_graphs();
        let (multi, _) = tiny_multitask_model_and_graphs();
        registry.register("cost", &cost, &graphs[..2]).unwrap();
        registry.register("multi", &multi, &graphs[..2]).unwrap();
        let not_found = |result: Result<(), ServeError>| {
            matches!(
                result,
                Err(ServeError::NotFound {
                    version: Some(1),
                    ..
                })
            )
        };
        assert!(not_found(
            registry.manifest::<MultiTaskModel>("cost", 1).map(|_| ())
        ));
        assert!(not_found(
            registry.load::<MultiTaskModel>("cost", 1).map(|_| ())
        ));
        assert!(not_found(
            registry.load::<ZeroShotCostModel>("multi", 1).map(|_| ())
        ));
        assert!(not_found(
            registry
                .load_latest::<ZeroShotCostModel>("multi")
                .map(|_| ())
        ));
        // Each still loads as itself.
        registry.load::<ZeroShotCostModel>("cost", 1).unwrap();
        registry.load::<MultiTaskModel>("multi", 1).unwrap();
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn a_truncated_model_is_an_error_not_a_panic() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        let v = registry.register("cost", &model, &graphs[..1]).unwrap();
        let path = registry.root().join("cost").join("v0001").join(MODEL);
        let raw = fs::read_to_string(&path).unwrap();
        for keep in [0, 1, raw.len() / 2, raw.len() - 1] {
            fs::write(&path, &raw[..keep]).unwrap();
            assert!(matches!(
                registry.load::<ZeroShotCostModel>("cost", v).map(|_| ()),
                Err(ServeError::Json(_))
            ));
        }
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn half_written_versions_are_invisible_and_numbered_past() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        let v1 = registry.register("cost", &model, &graphs[..1]).unwrap();

        // A crash between the two files, and a crash mid-write.
        let dir = registry.root().join("cost");
        fs::create_dir(dir.join("v0002")).unwrap();
        fs::write(dir.join("v0002").join(MODEL), model.to_json()).unwrap();
        fs::create_dir(dir.join("v0003")).unwrap();
        fs::write(dir.join("v0003").join("manifest.json.1.0.tmp"), "{torn").unwrap();

        assert_eq!(registry.versions("cost").unwrap(), vec![v1]);
        assert_eq!(registry.latest("cost").unwrap(), v1);
        registry.load_latest::<ZeroShotCostModel>("cost").unwrap();
        for v in [2, 3] {
            assert!(matches!(
                registry.promote("cost", v),
                Err(ServeError::NotFound { .. })
            ));
            assert!(matches!(
                registry.load::<ZeroShotCostModel>("cost", v).map(|_| ()),
                Err(ServeError::NotFound { .. })
            ));
        }

        // The next registration numbers past the debris and leaves no
        // temp file of its own.
        assert_eq!(registry.register("cost", &model, &graphs[..1]).unwrap(), 4);
        assert_eq!(registry.versions("cost").unwrap(), vec![v1, 4]);
        let mut files: Vec<String> = fs::read_dir(dir.join("v0004"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, [MANIFEST, MODEL]);
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn versions_increase_monotonically() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        assert_eq!(registry.versions("cost").unwrap(), Vec::<u32>::new());
        for expected in 1..=3 {
            let v = registry.register("cost", &model, &graphs[..2]).unwrap();
            assert_eq!(v, expected);
        }
        assert_eq!(registry.versions("cost").unwrap(), vec![1, 2, 3]);
        assert_eq!(registry.latest("cost").unwrap(), 3);
        assert_eq!(registry.model_names().unwrap(), vec!["cost".to_string()]);
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn concurrent_registrations_never_overwrite_each_other() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        let model = std::sync::Arc::new(model);
        let probe = std::sync::Arc::new(vec![graphs[0].clone()]);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let registry = registry.clone();
            let model = std::sync::Arc::clone(&model);
            let probe = std::sync::Arc::clone(&probe);
            handles.push(std::thread::spawn(move || {
                registry.register("cost", &*model, &probe).unwrap()
            }));
        }
        let mut versions: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort_unstable();
        // Every registration claimed a distinct version and all artifacts
        // load cleanly.
        assert_eq!(versions, vec![1, 2, 3, 4]);
        for v in versions {
            registry.load::<ZeroShotCostModel>("cost", v).unwrap();
        }
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn promote_and_rollback_walk_the_lifecycle() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        let v1 = registry.register("cost", &model, &graphs[..2]).unwrap();
        let v2 = registry.register("cost", &model, &graphs[..2]).unwrap();
        let v3 = registry.register("cost", &model, &graphs[..2]).unwrap();

        // Nothing promoted yet: active falls back to latest.
        assert_eq!(registry.promoted("cost").unwrap(), None);
        assert_eq!(registry.active_version("cost").unwrap(), v3);

        registry.promote("cost", v1).unwrap();
        assert_eq!(registry.promoted("cost").unwrap(), Some(v1));
        assert_eq!(registry.active_version("cost").unwrap(), v1);

        // Promoting the active version again is a no-op.
        registry.promote("cost", v1).unwrap();
        assert_eq!(registry.promotion_history("cost").unwrap(), vec![v1]);

        registry.promote("cost", v2).unwrap();
        registry.promote("cost", v3).unwrap();
        assert_eq!(
            registry.promotion_history("cost").unwrap(),
            vec![v1, v2, v3]
        );

        // Rollback pops back through the history.
        assert_eq!(registry.rollback("cost").unwrap(), v2);
        assert_eq!(registry.active_version("cost").unwrap(), v2);
        assert_eq!(registry.rollback("cost").unwrap(), v1);
        assert!(matches!(
            registry.rollback("cost"),
            Err(ServeError::RollbackUnavailable { .. })
        ));

        // Promoting an unregistered version is refused.
        assert!(matches!(
            registry.promote("cost", 99),
            Err(ServeError::NotFound { .. })
        ));
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn partially_written_tmp_never_shadows_the_promotion_history() {
        let registry = temp_registry();
        let (model, graphs) = tiny_trained_model_and_graphs();
        let v1 = registry.register("cost", &model, &graphs[..2]).unwrap();
        let v2 = registry.register("cost", &model, &graphs[..2]).unwrap();
        registry.promote("cost", v1).unwrap();

        // Simulate a crash mid-write: torn temp files in every naming
        // scheme a crashed writer could have left behind.
        let dir = registry.root().join("cost");
        fs::write(dir.join("promotions.json.tmp"), b"[1, 2, 9").unwrap();
        fs::write(
            dir.join(format!("promotions.json.{}.7.tmp", std::process::id() + 1)),
            b"{torn",
        )
        .unwrap();

        // The valid history is untouched by the debris...
        assert_eq!(registry.promotion_history("cost").unwrap(), vec![v1]);
        assert_eq!(registry.promoted("cost").unwrap(), Some(v1));

        // ...and further promotions neither read nor trip over it.
        registry.promote("cost", v2).unwrap();
        assert_eq!(registry.promotion_history("cost").unwrap(), vec![v1, v2]);
        let raw = fs::read_to_string(dir.join("promotions.json")).unwrap();
        let parsed: Vec<u32> = serde_json::from_str(&raw).unwrap();
        assert_eq!(parsed, vec![v1, v2], "promotions.json is whole JSON");

        // A fresh write leaves no *new* temp debris behind (the planted
        // files are someone else's crash, not ours).
        let tmp_files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert_eq!(tmp_files.len(), 2, "only the planted debris: {tmp_files:?}");
        let _ = fs::remove_dir_all(registry.root());
    }

    #[test]
    fn missing_models_are_not_found() {
        let registry = temp_registry();
        assert!(matches!(
            registry.latest("nope"),
            Err(ServeError::NotFound { .. })
        ));
        assert!(matches!(
            registry.manifest::<ZeroShotCostModel>("nope", 1),
            Err(ServeError::NotFound { .. })
        ));
        let _ = fs::remove_dir_all(registry.root());
    }
}
