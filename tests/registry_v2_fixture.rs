//! Backwards-compatibility fixture: a committed **version-2** registry
//! artifact (the pre-`PlanEncoder` weight layout from before the
//! multi-task subsystem) must be rejected by this build with a clean
//! [`ServeError::FormatVersionMismatch`] — never a parse panic or a
//! silently mis-loaded model.
//!
//! The fixture under `tests/fixtures/registry_v2/` is a real artifact
//! directory layout (`cost/v0001/{manifest,model}.json`) whose manifest
//! records `format_version: 2`.

use std::path::Path;
use zero_shot_db::multitask::MultiTaskModel;
use zero_shot_db::serve::{ModelRegistry, ServeError, ARTIFACT_FORMAT_VERSION};
use zero_shot_db::zeroshot::ZeroShotCostModel;

fn fixture_registry() -> ModelRegistry {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry_v2");
    assert!(
        root.join("cost/v0001/manifest.json").exists(),
        "committed v2 fixture missing"
    );
    ModelRegistry::open(root).expect("open fixture registry")
}

#[test]
fn v2_manifest_is_rejected_with_a_clean_format_mismatch() {
    let registry = fixture_registry();
    // The artifact is still *enumerable* — discovery does not require
    // loading.
    assert_eq!(registry.versions("cost").unwrap(), vec![1]);
    assert_eq!(registry.latest("cost").unwrap(), 1);

    match registry.manifest::<ZeroShotCostModel>("cost", 1) {
        Err(ServeError::FormatVersionMismatch { found, supported }) => {
            assert_eq!(found, 2);
            assert_eq!(supported, ARTIFACT_FORMAT_VERSION);
        }
        other => panic!("expected a clean format mismatch, got {other:?}"),
    }
}

#[test]
fn v2_model_load_fails_cleanly_not_with_a_parse_panic() {
    let registry = fixture_registry();
    // The version is read before anything else, whichever model the
    // caller asks for.
    match registry.load::<ZeroShotCostModel>("cost", 1) {
        Err(ServeError::FormatVersionMismatch { found: 2, .. }) => {}
        other => panic!("expected a clean format mismatch, got {other:?}"),
    }
    match registry.load::<MultiTaskModel>("cost", 1) {
        Err(ServeError::FormatVersionMismatch { found: 2, .. }) => {}
        other => panic!(
            "expected a clean format mismatch, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn error_message_names_both_versions() {
    let registry = fixture_registry();
    let err = registry
        .manifest::<ZeroShotCostModel>("cost", 1)
        .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains('2'),
        "message should name the found version"
    );
    assert!(
        message.contains(&ARTIFACT_FORMAT_VERSION.to_string()),
        "message should name the supported version"
    );
}
