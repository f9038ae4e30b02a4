//! Allocation-regression guard for the serving hot path.
//!
//! The raw-speed inference path promises that a **warm** request —
//! featurization into arena-backed scratch, a cache hit on the slab LRU,
//! and the served forward through caller-provided [`InferenceScratch`]
//! and the model version's catalog leaf states — performs **zero heap
//! allocations**.  This test enforces it with a
//! counting `#[global_allocator]`: warm the buffers to their high-water
//! mark, then replay the hot path and assert the allocation counter does
//! not move.
//!
//! The counter is **per thread**: libtest runs this file's tests on
//! parallel threads, and a process-wide counter would charge one test's
//! cold setup (database generation, model training) to another test's
//! measured window.
//!
//! Integration tests are separate crates, so installing a global
//! allocator (and the `unsafe` it requires) here does not relax the
//! `#![forbid(unsafe_code)]` contract of any library crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zero_shot_db::catalog::presets;
use zero_shot_db::serve::{FeatureCache, Servable};
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::features::featurize_plan_into;
use zero_shot_db::zeroshot::{plan_fingerprint, GraphArena, InferenceScratch};
use zsdb_bench::tiny_serving_fixture;

/// Pass-through allocator that counts every allocation of the calling
/// thread (fresh and growing reallocations both count — the hot path
/// must do neither).
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread that is tearing down may still free and
    // allocate after its thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_inference_hot_path_does_not_allocate() {
    // Cold setup: database, trained model, request plans — allocate freely.
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 8, 5);
    let featurizer = model.featurizer;

    let mut arena = GraphArena::new();
    let mut graph = arena.take_graph();
    let mut scratch = InferenceScratch::default();
    let cache = FeatureCache::new(16);
    // What a server builds per model version: the forward copies every
    // Table and Column state from it.
    let catalog = model
        .model
        .encoder()
        .catalog_states(db.catalog(), featurizer);
    assert!(!catalog.is_empty());

    // Warm-up: every buffer (arena node pools, flat state vector, MLP
    // ping-pong buffers, cache slab) grows to its high-water mark here.
    // Two rounds so re-featurizing an already-seen shape is exercised
    // warm too.
    for _ in 0..2 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            if cache.get(1, fingerprint).is_none() {
                cache.insert(1, fingerprint, std::sync::Arc::new(graph.clone()));
            }
            let prediction = model.forward(&graph, &catalog, &mut scratch);
            assert!(prediction.is_finite());
        }
    }

    // Measured section: the exact per-request hot path of a serving
    // worker — featurize into warm scratch, slab-cache hit, the served
    // forward — must not touch the allocator at all.
    let mut checksum = 0.0;
    let before = allocations();
    for _ in 0..50 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            let cached = cache
                .get(1, fingerprint)
                .expect("warmed shape must be cached");
            checksum += model.forward(&cached, &catalog, &mut scratch);
        }
    }
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm hot path allocated {} times over {} requests",
        after - before,
        50 * plans.len()
    );
}

/// ISSUE 9: with the flight recorder and SLO tracker enabled, the warm
/// cache-hit path stays zero-allocation.  Every request crosses
/// [`FlightRecorder::classify`] and [`SloTracker::record`] on the hot
/// path — both must be pure atomics.  Provenance assembly is cold-path
/// only (slow or explicitly traced requests) and is deliberately *not*
/// in the measured loop.
#[test]
fn warm_hot_path_stays_zero_alloc_with_flight_recorder_enabled() {
    use zero_shot_db::obs::{FlightRecorder, FlightRecorderConfig, SloConfig, SloTracker};

    let db = Database::generate(presets::imdb_like(0.02), 13);
    let (model, plans) = tiny_serving_fixture(&db, 8, 5);
    let featurizer = model.featurizer;

    let mut arena = GraphArena::new();
    let mut graph = arena.take_graph();
    let mut scratch = InferenceScratch::default();
    let cache = FeatureCache::new(16);
    let recorder = FlightRecorder::new(FlightRecorderConfig::default());
    let slo = SloTracker::new(SloConfig::default());

    // Warm-up, classifying every request just like a serving worker.
    for _ in 0..2 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            if cache.get(1, fingerprint).is_none() {
                cache.insert(1, fingerprint, std::sync::Arc::new(graph.clone()));
            }
            let prediction = model.model.predict_with(&graph, &mut scratch);
            assert!(prediction.is_finite());
            recorder.classify(1_000, true);
            slo.record(1_000, true);
        }
    }

    // Measured section: hot path *plus* per-request observability.
    let mut checksum = 0.0;
    let before = allocations();
    for round in 0..50u64 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            let cached = cache
                .get(1, fingerprint)
                .expect("warmed shape must be cached");
            checksum += model.model.predict_with(&cached, &mut scratch);
            // Vary the latency so the percentile trigger arms and both
            // classification branches execute inside the measured loop.
            // Any verdict is fine — classify must not allocate either way.
            let _ = recorder.classify(500 + round * 10, true);
            slo.record(500 + round * 10, true);
        }
    }
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "observed warm hot path allocated {} times over {} requests",
        after - before,
        50 * plans.len()
    );
}

/// A warm training step allocates nothing.  With one thread, no
/// validation split and patience 0, a third epoch of `Trainer::train` on
/// a fixed 128-graph corpus (8 steps of 16 graphs, 2 shards each) costs
/// at most [`PER_EPOCH`] more allocations than two epochs: the two
/// vectors of the epoch's training-curve median q-error, and nothing per
/// step.  The trainer's per-replica scratch is sized from the corpus
/// before the first step, so no shuffle makes a later step outgrow it.
#[test]
fn warm_training_steps_do_not_allocate() {
    use zero_shot_db::engine::QueryRunner;
    use zero_shot_db::query::WorkloadGenerator;
    use zero_shot_db::zeroshot::features::featurize_execution;
    use zero_shot_db::zeroshot::{
        FeaturizerConfig, ModelConfig, PlanGraph, Trainer, TrainingConfig,
    };

    /// Allocations one more epoch may add: the q-errors and the sorted
    /// copy `median` takes of them.
    const PER_EPOCH: u64 = 2;

    let db = Database::generate(presets::imdb_like(0.02), 29);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 128, 29);
    let graphs: Vec<PlanGraph> = QueryRunner::with_defaults(&db)
        .run_workload(&queries, 0)
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, FeaturizerConfig::exact()))
        .collect();
    let allocations_to_train = |epochs: usize| {
        let trainer = Trainer::new(
            ModelConfig::default(),
            TrainingConfig {
                epochs,
                threads: 1,
                validation_fraction: 0.0,
                early_stopping_patience: 0,
                ..TrainingConfig::default()
            },
            FeaturizerConfig::exact(),
        );
        let before = allocations();
        let trained = trainer.train(&graphs);
        let spent = allocations() - before;
        assert_eq!(trained.training_curve.len(), epochs);
        spent
    };
    let (two, three) = (allocations_to_train(2), allocations_to_train(3));
    assert!(
        three - two <= PER_EPOCH,
        "one more epoch of 8 steps allocated {} times (2 epochs: {two}, 3 epochs: {three})",
        three - two
    );
}

#[test]
fn counting_allocator_is_installed() {
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(1024);
    drop(v);
    assert!(allocations() > before, "global allocator hook not active");
}
