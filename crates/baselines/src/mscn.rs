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
use zsdb_nn::{Activation, Adam, Mlp};
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

    fn table_vectors(&self, catalog: &SchemaCatalog, query: &Query) -> Vec<Vec<f64>> {
        query
            .tables
            .iter()
            .map(|t| {
                let mut v = vec![0.0; self.num_tables + 1];
                v[t.index()] = 1.0;
                // MSCN also feeds a size hint per table sample bitmap; we use
                // the (log) table size as the simplest analogue.
                v[self.num_tables] = (catalog.table(*t).num_tuples as f64 + 1.0).ln() / 20.0;
                v
            })
            .collect()
    }

    fn join_vectors(&self, catalog: &SchemaCatalog, query: &Query) -> Vec<Vec<f64>> {
        if query.joins.is_empty() {
            return vec![vec![0.0; self.num_joins]];
        }
        query
            .joins
            .iter()
            .map(|j| {
                let mut v = vec![0.0; self.num_joins];
                if let Some(pos) = catalog
                    .foreign_keys()
                    .iter()
                    .position(|fk| fk.connects(j.left.table, j.right.table))
                {
                    v[pos] = 1.0;
                }
                v
            })
            .collect()
    }

    fn predicate_vectors(&self, catalog: &SchemaCatalog, query: &Query) -> Vec<Vec<f64>> {
        let dim = self.columns.len() + CmpOp::ALL.len() + 1;
        if query.predicates.is_empty() {
            return vec![vec![0.0; dim]];
        }
        query
            .predicates
            .iter()
            .map(|p| {
                let mut v = vec![0.0; dim];
                if let Some(pos) = self.columns.iter().position(|c| *c == p.column) {
                    v[pos] = 1.0;
                }
                v[self.columns.len() + p.op.index()] = 1.0;
                // Literal normalised into [0, 1] by the column's domain —
                // exactly the database-specific encoding the paper calls out.
                let stats = &catalog.column(p.column).stats;
                let lo = stats.min.unwrap_or(0.0);
                let hi = stats.max.unwrap_or(1.0).max(lo + 1e-9);
                let lit = p.value.as_f64().unwrap_or(lo);
                v[dim - 1] = ((lit - lo) / (hi - lo)).clamp(0.0, 1.0);
                v
            })
            .collect()
    }

    /// Forward pass: mean-pool each set through its MLP, concatenate and
    /// decode to a log-runtime.
    fn forward(&self, catalog: &SchemaCatalog, query: &Query) -> f64 {
        let pooled = |mlp: &Mlp, items: &[Vec<f64>]| -> Vec<f64> {
            let mut acc = vec![0.0; self.config.hidden_dim];
            for item in items {
                let out = mlp.forward(item);
                for (a, o) in acc.iter_mut().zip(&out) {
                    *a += o / items.len() as f64;
                }
            }
            acc
        };
        let mut features = pooled(&self.table_mlp, &self.table_vectors(catalog, query));
        features.extend(pooled(&self.join_mlp, &self.join_vectors(catalog, query)));
        features.extend(pooled(
            &self.predicate_mlp,
            &self.predicate_vectors(catalog, query),
        ));
        self.output_mlp.forward(&features)[0]
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
        let query = &execution.query;
        let table_items = self.table_vectors(catalog, query);
        let join_items = self.join_vectors(catalog, query);
        let pred_items = self.predicate_vectors(catalog, query);
        let h = self.config.hidden_dim;

        // Forward with caches.
        let pool = |mlp: &Mlp, items: &[Vec<f64>]| {
            let mut caches = Vec::with_capacity(items.len());
            let mut acc = vec![0.0; h];
            for item in items {
                let (out, cache) = mlp.forward_cached(item);
                for (a, o) in acc.iter_mut().zip(&out) {
                    *a += o / items.len() as f64;
                }
                caches.push(cache);
            }
            (acc, caches)
        };
        let (t_pool, t_caches) = pool(&self.table_mlp, &table_items);
        let (j_pool, j_caches) = pool(&self.join_mlp, &join_items);
        let (p_pool, p_caches) = pool(&self.predicate_mlp, &pred_items);
        let mut features = t_pool;
        features.extend(j_pool);
        features.extend(p_pool);
        let (out, out_cache) = self.output_mlp.forward_cached(&features);

        let target = execution.runtime_secs.max(1e-9).ln();
        let d_out = vec![2.0 * (out[0] - target)];
        let d_features = self.output_mlp.backward(&out_cache, &d_out);

        // Split the gradient back onto the three pooled vectors and push it
        // through every set element (mean pooling → divide by set size).
        let backprop_set =
            |mlp: &mut Mlp, caches: &[zsdb_nn::MlpCache], offset: usize, n: usize| {
                let grad = &d_features[offset..offset + h];
                for cache in caches {
                    let scaled: Vec<f64> = grad.iter().map(|g| g / n as f64).collect();
                    mlp.backward(cache, &scaled);
                }
            };
        backprop_set(&mut self.table_mlp, &t_caches, 0, table_items.len());
        backprop_set(&mut self.join_mlp, &j_caches, h, join_items.len());
        backprop_set(&mut self.predicate_mlp, &p_caches, 2 * h, pred_items.len());
    }
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
