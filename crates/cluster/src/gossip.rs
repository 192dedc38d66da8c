//! State-based comfort-model gossip.
//!
//! Every node owns exactly one *contribution*: the fold of its own
//! model shards, stamped with a monotone epoch (the shard-epoch sum).
//! Gossip exchanges contributions; a receiver keeps, per origin node,
//! the entry with the highest epoch it has seen. The merged cluster
//! view is the fold of all retained contributions **in sorted node-name
//! order**.
//!
//! That pair of rules makes convergence order-independent:
//!
//! * *Keeping the max-epoch entry per origin* is a join in the lattice
//!   of per-node versions — commutative, associative, idempotent — so
//!   any gossip schedule that eventually delivers every node's latest
//!   contribution leaves every receiver with the same map.
//! * *Folding in canonical order over exact sketch merges* means equal
//!   maps produce byte-identical [`ComfortModel::encode`] output: the
//!   quantile sketches merge exactly (no approximation, see
//!   `uucs-modelsvc`), cohorts live in a `BTreeMap`, and the fold
//!   visits contributions in `BTreeMap` key order.
//!
//! The property test in this module drives random schedules, shard
//! counts, and delivery orders to hold both claims to "byte-identical".

use std::collections::BTreeMap;
use uucs_modelsvc::ComfortModel;

/// One node's view of the cluster's comfort-model contributions.
#[derive(Debug, Clone)]
pub struct GossipState {
    node: String,
    /// origin node → (epoch, `ComfortModel::encode` text). Own entry
    /// included once recorded.
    contributions: BTreeMap<String, (u64, String)>,
}

impl GossipState {
    /// An empty view for `node`.
    pub fn new(node: impl Into<String>) -> Self {
        GossipState {
            node: node.into(),
            contributions: BTreeMap::new(),
        }
    }

    /// The owning node's name.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Records this node's own contribution. The model's epoch stamps
    /// the entry; peers discard older epochs, so a node's contribution
    /// only ever moves forward.
    pub fn record_own(&mut self, model: &ComfortModel) {
        let entry = (model.epoch(), model.encode());
        self.absorb_entry(&self.node.clone(), entry.0, entry.1);
    }

    /// Absorbs a peer's contribution (or a relayed third party's).
    /// Returns `true` when the entry was news — a higher epoch than
    /// anything previously seen from that origin.
    pub fn absorb(&mut self, origin: &str, epoch: u64, model: &str) -> bool {
        self.absorb_entry(origin, epoch, model.to_string())
    }

    fn absorb_entry(&mut self, origin: &str, epoch: u64, model: String) -> bool {
        match self.contributions.get(origin) {
            Some((have, _)) if *have >= epoch => false,
            _ => {
                self.contributions.insert(origin.to_string(), (epoch, model));
                true
            }
        }
    }

    /// Every retained contribution, in canonical (sorted-node) order —
    /// what a leader relays to its followers.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64, &str)> {
        self.contributions
            .iter()
            .map(|(node, (epoch, model))| (node.as_str(), *epoch, model.as_str()))
    }

    /// The sum of retained epochs — a cheap convergence fingerprint
    /// (equal views have equal sums; the property test checks the
    /// stronger byte-identical claim).
    pub fn epoch_sum(&self) -> u64 {
        self.contributions.values().map(|(e, _)| e).sum()
    }

    /// The merged cluster-wide model: decode every contribution and
    /// fold in canonical order ([`ComfortModel::fold`]). Two nodes with
    /// equal contribution maps get byte-identical `encode()` output from
    /// this.
    pub fn merged(&self) -> ComfortModel {
        ComfortModel::fold(self.contributions.values().map(|(_, text)| {
            ComfortModel::decode(text).expect("gossip entries hold valid model encodings")
        }))
        .expect("cohort sketches of one key share a config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_harness::prelude::*;
    use uucs_modelsvc::Observation;
    use uucs_testcase::Resource;

    fn model_with(samples: &[(f64, bool)], task: &str) -> ComfortModel {
        let mut m = ComfortModel::new();
        let obs: Vec<Observation> = samples
            .iter()
            .map(|&(level, observed)| Observation {
                resource: Resource::Cpu,
                task: task.to_string(),
                skill: String::new(),
                level,
                censored: !observed,
            })
            .collect();
        let delta = m.next_delta(obs);
        m.apply(&delta).unwrap();
        m
    }

    #[test]
    fn absorb_keeps_highest_epoch_per_origin() {
        let mut g = GossipState::new("a");
        assert!(g.absorb("b", 2, "MODEL 2 0\n"));
        assert!(!g.absorb("b", 1, "MODEL 1 0\n"), "older epoch is stale");
        assert!(!g.absorb("b", 2, "MODEL 2 0\n"), "equal epoch is not news");
        assert!(g.absorb("b", 3, "MODEL 3 0\n"));
        assert_eq!(g.epoch_sum(), 3);
    }

    #[test]
    fn merged_folds_in_canonical_order() {
        let ma = model_with(&[(0.4, true), (0.9, false)], "edit");
        let mb = model_with(&[(0.6, true)], "browse");
        let mut g1 = GossipState::new("a");
        g1.absorb("a", ma.epoch(), &ma.encode());
        g1.absorb("b", mb.epoch(), &mb.encode());
        let mut g2 = GossipState::new("b");
        g2.absorb("b", mb.epoch(), &mb.encode());
        g2.absorb("a", ma.epoch(), &ma.encode());
        assert_eq!(g1.merged().encode(), g2.merged().encode());
        assert_eq!(g1.merged().epoch(), ma.epoch() + mb.epoch());
    }

    proptest! {
        #![proptest_config(Config::with_cases(24))]

        /// The headline convergence property: for random node counts,
        /// per-node observation sets, and random delivery schedules
        /// (which entries reach which node, in which order, with
        /// arbitrary re-deliveries), once every node has seen every
        /// origin's latest contribution, all nodes' merged models are
        /// byte-identical and the epoch sum is the sum of the origins'.
        #[test]
        fn random_gossip_schedules_converge(
            nodes in 2usize..5,
            seeds in prop::collection::vec(0u64..1000, 2..5),
            schedule_from in prop::collection::vec(0usize..5, 0..40),
            schedule_to in prop::collection::vec(0usize..5, 0..40),
        ) {
            let nodes = nodes.max(seeds.len());
            // Each node's own contribution: a small deterministic
            // observation set derived from its seed.
            let models: Vec<ComfortModel> = seeds
                .iter()
                .map(|&s| {
                    let samples: Vec<(f64, bool)> = (0..(s % 4 + 1))
                        .map(|i| (((s + i) % 10) as f64 / 10.0, (s + i) % 3 != 0))
                        .collect();
                    model_with(&samples, if s % 2 == 0 { "edit" } else { "browse" })
                })
                .collect();
            let mut states: Vec<GossipState> = (0..nodes)
                .map(|i| {
                    let mut g = GossipState::new(format!("n{i}"));
                    if i < models.len() {
                        g.record_own(&models[i]);
                    }
                    g
                })
                .collect();
            // Random pairwise exchanges: `from` pushes everything it
            // has to `to` (out-of-order, repeated deliveries included).
            for (&from, &to) in schedule_from.iter().zip(&schedule_to) {
                let (from, to) = (from % nodes, to % nodes);
                if from == to {
                    continue;
                }
                let entries: Vec<(String, u64, String)> = states[from]
                    .entries()
                    .map(|(n, e, m)| (n.to_string(), e, m.to_string()))
                    .collect();
                for (n, e, m) in entries {
                    states[to].absorb(&n, e, &m);
                }
            }
            // Close the schedule: deliver every origin's latest entry
            // to every node (the eventual-delivery assumption).
            for (i, model) in models.iter().enumerate() {
                let origin = format!("n{i}");
                for st in states.iter_mut() {
                    st.absorb(&origin, model.epoch(), &model.encode());
                }
            }
            let want_epoch: u64 = models.iter().map(|m| m.epoch()).sum();
            let reference = states[0].merged().encode();
            for st in &states {
                let merged = st.merged();
                prop_assert_eq!(merged.epoch(), want_epoch);
                prop_assert_eq!(merged.encode(), reference.clone());
            }
        }
    }
}
