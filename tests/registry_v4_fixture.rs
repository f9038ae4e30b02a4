//! Backwards-compatibility fixture: committed **version-4** registry
//! artifacts, in the exact layouts that format wrote, with stub weights —
//! a cost artifact (`cost/v0001/{manifest,model}.json`) and a multi-task
//! artifact under its old file names
//! (`one-model/v0001/multitask_{manifest,model}.json`).
//!
//! Version 5 changed the manifest schema, so the registry reads the
//! format version before the schema: the cost artifact is a clean
//! [`ServeError::FormatVersionMismatch`] whichever model type asks for it,
//! never a parse error; the multi-task artifact has no `manifest.json` and
//! is not found.  Nothing panics.

use std::path::{Path, PathBuf};
use zero_shot_db::multitask::MultiTaskModel;
use zero_shot_db::serve::{ModelRegistry, ServeError, ARTIFACT_FORMAT_VERSION};
use zero_shot_db::zeroshot::ZeroShotCostModel;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry_v4")
}

fn fixture_registry() -> ModelRegistry {
    ModelRegistry::open(fixture_root()).expect("open fixture registry")
}

#[test]
fn v4_cost_artifact_is_a_clean_format_mismatch_for_both_model_types() {
    assert!(
        fixture_root().join("cost/v0001/model.json").exists(),
        "committed v4 fixture missing"
    );
    let registry = fixture_registry();
    assert_eq!(registry.versions("cost").unwrap(), vec![1]);
    for outcome in [
        registry
            .manifest::<ZeroShotCostModel>("cost", 1)
            .map(|_| ()),
        registry.load::<ZeroShotCostModel>("cost", 1).map(|_| ()),
        registry
            .load_latest::<ZeroShotCostModel>("cost")
            .map(|_| ()),
        registry.manifest::<MultiTaskModel>("cost", 1).map(|_| ()),
        registry.load::<MultiTaskModel>("cost", 1).map(|_| ()),
    ] {
        assert!(
            matches!(
                outcome,
                Err(ServeError::FormatVersionMismatch {
                    found: 4,
                    supported: ARTIFACT_FORMAT_VERSION,
                })
            ),
            "expected a clean format mismatch, got {outcome:?}"
        );
    }
}

#[test]
fn v4_multitask_artifact_under_its_old_file_names_is_not_found() {
    assert!(
        fixture_root()
            .join("one-model/v0001/multitask_manifest.json")
            .exists(),
        "committed v4 fixture missing"
    );
    let registry = fixture_registry();
    assert_eq!(registry.versions("one-model").unwrap(), Vec::<u32>::new());
    for outcome in [
        registry
            .manifest::<MultiTaskModel>("one-model", 1)
            .map(|_| ()),
        registry.load::<MultiTaskModel>("one-model", 1).map(|_| ()),
        registry
            .load_latest::<MultiTaskModel>("one-model")
            .map(|_| ()),
        registry
            .load::<ZeroShotCostModel>("one-model", 1)
            .map(|_| ()),
        registry.promote("one-model", 1),
    ] {
        assert!(
            matches!(outcome, Err(ServeError::NotFound { .. })),
            "expected NotFound, got {outcome:?}"
        );
    }
}
