//! MSCN-style multi-set convolutional network (Kipf et al., CIDR 2019)
//! adapted to runtime prediction.
//!
//! The defining property the paper highlights: the featurization is
//! **database-specific** — tables, join edges and columns are one-hot
//! encoded by their position in the target database's catalog and literal
//! values are normalised by that database's column domains.  The model can
//! therefore only be trained per database and cannot transfer.

use serde::{Deserialize, Serialize};
use zsdb_catalog::{ColumnRef, SchemaCatalog};
use zsdb_engine::QueryExecution;
use zsdb_nn::{
    active_kernel, Activation, Adam, Batch, BatchBackwardScratch, BatchForwardScratch,
    ForwardScratch, Mlp, MlpBatchCache,
};
use zsdb_query::{CmpOp, Query};

/// Hyper-parameters of the MSCN baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MscnConfig {
    /// Hidden dimension of the per-set MLPs.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initialisation / shuffling seed.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig {
            hidden_dim: 32,
            epochs: 60,
            learning_rate: 1.5e-3,
            seed: 11,
        }
    }
}

/// The MSCN baseline model, bound to one database schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MscnModel {
    config: MscnConfig,
    num_tables: usize,
    num_joins: usize,
    columns: Vec<ColumnRef>,
    table_mlp: Mlp,
    join_mlp: Mlp,
    predicate_mlp: Mlp,
    output_mlp: Mlp,
}

impl MscnModel {
    /// Create an untrained MSCN model for one database schema.
    pub fn new(catalog: &SchemaCatalog, config: MscnConfig) -> Self {
        let num_tables = catalog.num_tables();
        let num_joins = catalog.foreign_keys().len().max(1);
        let columns: Vec<ColumnRef> = catalog
            .iter_tables()
            .flat_map(|(tid, t)| {
                (0..t.num_columns())
                    .map(move |i| ColumnRef::new(tid, zsdb_catalog::ColumnId(i as u32)))
            })
            .collect();
        let h = config.hidden_dim;
        // Predicate feature: column one-hot + operator one-hot + normalised literal.
        let pred_dim = columns.len() + CmpOp::ALL.len() + 1;
        MscnModel {
            table_mlp: Mlp::new(
                &[num_tables + 1, h, h],
                Activation::LeakyRelu,
                config.seed ^ 1,
            ),
            join_mlp: Mlp::new(&[num_joins, h, h], Activation::LeakyRelu, config.seed ^ 2),
            predicate_mlp: Mlp::new(&[pred_dim, h, h], Activation::LeakyRelu, config.seed ^ 3),
            output_mlp: Mlp::new(&[3 * h, h, 1], Activation::LeakyRelu, config.seed ^ 4),
            config,
            num_tables,
            num_joins,
            columns,
        }
    }

    /// The table set, one column per scanned table.
    fn table_set(&self, catalog: &SchemaCatalog, query: &Query) -> Batch {
        let mut set = Batch::zeros(self.num_tables + 1, query.tables.len());
        for (e, t) in query.tables.iter().enumerate() {
            set.set(t.index(), e, 1.0);
            // MSCN also feeds a size hint per table sample bitmap; we use
            // the (log) table size as the simplest analogue.
            let size = (catalog.table(*t).num_tuples as f64 + 1.0).ln() / 20.0;
            set.set(self.num_tables, e, size);
        }
        set
    }

    /// The join set, one column per join (one zero column for none).
    fn join_set(&self, catalog: &SchemaCatalog, query: &Query) -> Batch {
        let mut set = Batch::zeros(self.num_joins, query.joins.len().max(1));
        for (e, j) in query.joins.iter().enumerate() {
            if let Some(pos) = catalog
                .foreign_keys()
                .iter()
                .position(|fk| fk.connects(j.left.table, j.right.table))
            {
                set.set(pos, e, 1.0);
            }
        }
        set
    }

    /// The predicate set, one column per predicate (one zero column for
    /// none).
    fn predicate_set(&self, catalog: &SchemaCatalog, query: &Query) -> Batch {
        let dim = self.columns.len() + CmpOp::ALL.len() + 1;
        let mut set = Batch::zeros(dim, query.predicates.len().max(1));
        for (e, p) in query.predicates.iter().enumerate() {
            if let Some(pos) = self.columns.iter().position(|c| *c == p.column) {
                set.set(pos, e, 1.0);
            }
            set.set(self.columns.len() + p.op.index(), e, 1.0);
            // Literal normalised into [0, 1] by the column's domain —
            // exactly the database-specific encoding the paper calls out.
            let stats = &catalog.column(p.column).stats;
            let lo = stats.min.unwrap_or(0.0);
            let hi = stats.max.unwrap_or(1.0).max(lo + 1e-9);
            let lit = p.value.as_f64().unwrap_or(lo);
            set.set(dim - 1, e, ((lit - lo) / (hi - lo)).clamp(0.0, 1.0));
        }
        set
    }

    /// The three sets of `query`, in the order of [`MscnModel::set_mlps`].
    fn sets(&self, catalog: &SchemaCatalog, query: &Query) -> [Batch; 3] {
        [
            self.table_set(catalog, query),
            self.join_set(catalog, query),
            self.predicate_set(catalog, query),
        ]
    }

    /// The per-set MLPs: tables, joins, predicates.
    fn set_mlps(&mut self) -> [&mut Mlp; 3] {
        [
            &mut self.table_mlp,
            &mut self.join_mlp,
            &mut self.predicate_mlp,
        ]
    }

    /// Forward pass: mean-pool each set through its MLP, concatenate and
    /// decode to a log-runtime.
    fn forward(&self, catalog: &SchemaCatalog, query: &Query) -> f64 {
        let kind = active_kernel();
        let mut scratch = BatchForwardScratch::default();
        let mut features = Vec::with_capacity(3 * self.config.hidden_dim);
        let mlps = [&self.table_mlp, &self.join_mlp, &self.predicate_mlp];
        for (mlp, set) in mlps.into_iter().zip(self.sets(catalog, query)) {
            mean_pool_into(
                mlp.forward_batch_into(kind, &set, &mut scratch),
                &mut features,
            );
        }
        self.output_mlp
            .forward_into(kind, &features, &mut ForwardScratch::default())[0]
    }

    /// Predict the runtime (seconds) of a query.
    pub fn predict(&self, catalog: &SchemaCatalog, query: &Query) -> f64 {
        self.forward(catalog, query).exp()
    }

    /// Train on executions of the target database (in place).
    pub fn train(&mut self, catalog: &SchemaCatalog, executions: &[QueryExecution]) {
        if executions.is_empty() {
            return;
        }
        let mut adam = Adam::new(self.config.learning_rate);
        for _epoch in 0..self.config.epochs {
            for e in executions {
                self.train_step(catalog, e);
            }
            let mut params = Vec::new();
            params.extend(self.table_mlp.params_mut());
            params.extend(self.join_mlp.params_mut());
            params.extend(self.predicate_mlp.params_mut());
            params.extend(self.output_mlp.params_mut());
            adam.step(params);
        }
    }

    /// One backpropagation step for a single example (gradient
    /// accumulation only).
    fn train_step(&mut self, catalog: &SchemaCatalog, execution: &QueryExecution) {
        let kind = active_kernel();
        let h = self.config.hidden_dim;
        let sets = self.sets(catalog, &execution.query);
        let sizes = sets.each_ref().map(Batch::n);

        // Forward with caches, each set one batch.
        let mut caches: [MlpBatchCache; 3] = Default::default();
        let mut features = Vec::with_capacity(3 * h);
        for ((mlp, set), cache) in self.set_mlps().into_iter().zip(sets).zip(&mut caches) {
            *cache.input_mut() = set;
            mean_pool_into(mlp.forward_batch_cached_into(kind, cache), &mut features);
        }
        let mut out_cache = MlpBatchCache::default();
        *out_cache.input_mut() = Batch::from_examples(3 * h, std::iter::once(features.as_slice()));
        let out = self
            .output_mlp
            .forward_batch_cached_into(kind, &mut out_cache);

        let target = execution.runtime_secs.max(1e-9).ln();
        let mut d_out = Batch::zeros(1, 1);
        d_out.set(0, 0, 2.0 * (out.get(0, 0) - target));
        let mut scratch = BatchBackwardScratch::default();
        let d_features = self
            .output_mlp
            .backward_batch_into(kind, &out_cache, &d_out, &mut scratch)
            .example(0);

        // Split the gradient back onto the three pooled vectors and push it
        // through every set element (mean pooling → divide by set size).
        for (s, (mlp, cache)) in self.set_mlps().into_iter().zip(&caches).enumerate() {
            let n = sizes[s];
            let mut d_set = Batch::zeros(h, n);
            for (f, g) in d_features[s * h..(s + 1) * h].iter().enumerate() {
                d_set.feature_row_mut(f).fill(g / n as f64);
            }
            mlp.backward_batch_params_into(kind, cache, &d_set, &mut scratch);
        }
    }
}

/// Append the mean of `set`'s columns, one value per feature and the
/// columns added in example order, to `features`.
fn mean_pool_into(set: &Batch, features: &mut Vec<f64>) {
    let n = set.n() as f64;
    features
        .extend((0..set.dim()).map(|f| set.feature_row(f).iter().fold(0.0, |acc, v| acc + v / n)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::presets;
    use zsdb_core::dataset::collect_for_database;
    use zsdb_nn::{median, q_error};
    use zsdb_query::WorkloadSpec;
    use zsdb_storage::Database;

    #[test]
    fn mscn_learns_on_its_training_database() {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let executions = collect_for_database(&db, &WorkloadSpec::paper_training(), 150, 1);
        let (train, test) = executions.split_at(120);
        let mut model = MscnModel::new(db.catalog(), MscnConfig::default());

        let before: Vec<f64> = test
            .iter()
            .map(|e| q_error(model.predict(db.catalog(), &e.query), e.runtime_secs))
            .collect();
        model.train(db.catalog(), train);
        let after: Vec<f64> = test
            .iter()
            .map(|e| q_error(model.predict(db.catalog(), &e.query), e.runtime_secs))
            .collect();
        assert!(
            median(&after) < median(&before),
            "training should improve MSCN: {} -> {}",
            median(&before),
            median(&after)
        );
    }

    #[test]
    fn predictions_are_positive() {
        let db = Database::generate(presets::imdb_like(0.02), 3);
        let model = MscnModel::new(db.catalog(), MscnConfig::default());
        let executions = collect_for_database(&db, &WorkloadSpec::paper_training(), 5, 9);
        for e in &executions {
            assert!(model.predict(db.catalog(), &e.query) > 0.0);
        }
    }

    #[test]
    fn featurization_is_database_specific() {
        // The feature dimensionality depends on the catalog — the defining
        // non-transferable property.
        let imdb = presets::imdb_like(0.02);
        let ssb = presets::ssb_like(0.02);
        let a = MscnModel::new(&imdb, MscnConfig::default());
        let b = MscnModel::new(&ssb, MscnConfig::default());
        assert_ne!(a.columns.len(), b.columns.len());
        assert_ne!(a.num_tables, b.num_tables);
    }
}
