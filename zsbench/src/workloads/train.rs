//! `train_zero_shot`: the paper's training cost and its actual claim.
//!
//! A timed repetition trains the default model for one epoch on the head
//! of a corpus built in set-up; after the timed repetitions one model is
//! trained in full and evaluated once on an unseen database, zero-shot and
//! after a few-shot fine-tune.  The batched forward + backward kernels and
//! the shard engine do all the timed work; the executor only appears in
//! `setup_s`.

use super::{peak_rss_mb, repeat_for, timed_setups, Outcome, Settings};
use crate::inputs::{
    build_corpus, fewshot_executions, heldout_executions, q_error, trainer, unseen_database, Fnv,
};
use crate::spans::SpanLog;
use crate::stats::{iqr_share, max, median, min, percentile};
use std::time::Instant;
use zsdb_core::features::featurize_execution;
use zsdb_core::{
    few_shot_finetune_with, FeaturizerConfig, FinetuneConfig, PlanGraph, TrainedModel,
};
use zsdb_engine::QueryExecution;
use zsdb_storage::Database;

/// Held-out median q-error above which the trained model counts as
/// broken and every operation of the run as failed.
const MAX_HELDOUT_MEDIAN_QERROR: f64 = 5.0;

/// Graphs on which `predict_batch` must equal `predict` bit for bit, and
/// the chunk size of batched evaluation.
const BATCH_GRAPHS: usize = 256;

/// Bit-exact fingerprint of a model's weights (its JSON prints every
/// float with round-trip precision).
fn weights_checksum(model: &TrainedModel) -> u64 {
    let mut hash = Fnv::new();
    for chunk in model.model.to_json().as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash.write(u64::from_le_bytes(word));
    }
    hash.finish()
}

/// q-errors of `model` over executions of `db`, through the batched
/// forward pass.
fn q_errors(model: &TrainedModel, db: &Database, executions: &[QueryExecution]) -> Vec<f64> {
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| featurize_execution(db.catalog(), e, model.featurizer))
        .collect();
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    refs.chunks(BATCH_GRAPHS)
        .flat_map(|chunk| model.predict_batch(chunk))
        .zip(executions)
        .map(|(predicted, e)| q_error(predicted, e.runtime_secs))
        .collect()
}

/// Run the workload.
pub fn run(settings: &Settings) -> Outcome {
    let sizes = &settings.sizes;
    let featurizer = FeaturizerConfig::exact();
    let (graphs, setup_s) = timed_setups(settings, |clock| {
        let corpus = build_corpus(
            sizes,
            sizes.corpus_dbs,
            sizes.train_queries,
            featurizer,
            settings.seed,
            &mut SpanLog::new(false),
        );
        clock.lap_split(&corpus.query_ns);
        corpus.graphs
    });
    let train =
        |graphs: &[PlanGraph], epochs, threads| trainer(epochs, threads, featurizer).train(graphs);

    // A timed repetition is one epoch over the head of the corpus: short
    // enough to fit inside one speed phase of the build box.  The fastest
    // repetition is reported (see README, "Noise").
    let rep_graphs = &graphs[..sizes.train_rep_graphs.min(graphs.len())];
    let ops_per_rep = rep_graphs.len() as u64;
    let mut checksums: Vec<u64> = Vec::new();
    let rep_secs = repeat_for(settings.seconds, settings.min_task_repetitions(), |_| {
        let model = train(rep_graphs, 1, settings.workers);
        checksums.push(weights_checksum(&model));
    });
    let mut outcome = Outcome {
        attempted: ops_per_rep * rep_secs.len() as u64,
        ..Outcome::default()
    };
    let throughputs: Vec<f64> = rep_secs.iter().map(|s| ops_per_rep as f64 / s).collect();

    // Correctness gates, after the timed windows.
    let weight_mismatches = checksums.iter().filter(|&&c| c != checksums[0]).count() as u64;
    if weight_mismatches > 0 {
        outcome.violate(
            "trained weights differ between repetitions",
            weight_mismatches * ops_per_rep,
        );
    }
    // The model whose accuracy is the claim is trained once, in full.
    let full_started = Instant::now();
    let model = train(&graphs, sizes.train_epochs, settings.workers);
    let full_train_s = full_started.elapsed().as_secs_f64();
    let sample: Vec<&PlanGraph> = graphs.iter().take(BATCH_GRAPHS).collect();
    let batch_mismatches = model
        .predict_batch(&sample)
        .iter()
        .zip(&sample)
        .filter(|(batched, graph)| batched.to_bits() != model.predict(graph).to_bits())
        .count();
    if batch_mismatches > 0 {
        outcome.violate("predict_batch differs from predict", outcome.attempted);
    }

    // The claim: accuracy on a database the model has never seen, and
    // what a few executions of that database add.
    let eval_started = Instant::now();
    let db = unseen_database(sizes, settings.seed);
    let heldout = heldout_executions(sizes, &db, settings.seed);
    let zero_shot = q_errors(&model, &db, &heldout);
    let eval_s = eval_started.elapsed().as_secs_f64();
    let finetune_started = Instant::now();
    let fewshot = fewshot_executions(sizes, &db, settings.seed);
    let tuned = few_shot_finetune_with(
        &model,
        &db,
        &fewshot,
        FinetuneConfig {
            threads: settings.workers,
            ..FinetuneConfig::default()
        },
    );
    let finetune_s = finetune_started.elapsed().as_secs_f64();
    let few_shot = q_errors(&tuned, &db, &heldout);
    let heldout_median = median(&zero_shot);
    // (A smoke-sized model has seen two epochs of 80 graphs; the threshold
    // is for the measured configuration.)
    let too_wrong = heldout_median.is_nan() || heldout_median >= MAX_HELDOUT_MEDIAN_QERROR;
    if !settings.smoke && too_wrong {
        outcome.violate("held-out median q-error is not below 5", outcome.attempted);
    }
    outcome.notes.push(format!(
        "{} repetitions of {} graphs x 1 epoch on {} threads (fastest {:.4} s), weights {:016x}; evaluated model: {} graphs x {} epochs in {:.3} s; {} held-out predictions: zero-shot median {:.4} p95 {:.3}, after {} few-shot executions median {:.4}",
        rep_secs.len(),
        rep_graphs.len(),
        settings.workers,
        min(&rep_secs),
        checksums[0],
        graphs.len(),
        sizes.train_epochs,
        full_train_s,
        zero_shot.len(),
        heldout_median,
        percentile(&zero_shot, 95.0),
        fewshot.len(),
        median(&few_shot),
    ));

    if !settings.traced {
        // What a caller waits for here is one training run.
        outcome.set_end_to_end(
            setup_s,
            max(&throughputs),
            min(&rep_secs) * 1e3,
            heldout_median,
            median(&few_shot),
        );
        return outcome;
    }

    outcome.set("core.train_s", full_train_s);
    outcome.set("core.train_graph_epochs_per_s", max(&throughputs));
    // One extra single-threaded repetition, only where there is more than
    // one trainer thread to compare with.
    let speedup = if settings.workers > 1 {
        let started = Instant::now();
        let single = train(rep_graphs, 1, 1);
        let single_s = started.elapsed().as_secs_f64();
        if weights_checksum(&single) != checksums[0] {
            outcome.violate(
                "1-thread weights differ from N-thread weights",
                outcome.attempted,
            );
        }
        single_s / min(&rep_secs)
    } else {
        0.0
    };
    outcome.set("core.train_speedup_vs_1thread", speedup);
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    let forward_started = Instant::now();
    for chunk in refs.chunks(BATCH_GRAPHS) {
        std::hint::black_box(model.predict_batch(std::hint::black_box(chunk)));
    }
    outcome.set(
        "core.forward_batch_us_per_graph",
        forward_started.elapsed().as_secs_f64() * 1e6 / refs.len() as f64,
    );
    outcome.set("core.rep_weight_mismatches", weight_mismatches as f64);
    outcome.set("core.eval_s", eval_s);
    outcome.set("core.finetune_s", finetune_s);
    outcome.set("core.heldout_p95_qerror", percentile(&zero_shot, 95.0));
    outcome.set("loadgen.rep_iqr_pct", iqr_share(&throughputs) * 100.0);
    outcome.set("loadgen.peak_rss_mb", peak_rss_mb());
    outcome
}
