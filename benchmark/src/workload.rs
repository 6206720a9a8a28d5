//! The four workloads and their seeded inputs.
//!
//! A workload's difficulty mix is fixed: the bottom-stage `mu` values are
//! an even grid over the workload's range, one per pool entry. The seed
//! decides the order they are sent in and the duration-sampling seed each
//! query carries, so two seeds give different inputs of the same
//! distribution and `quality_mean` does not wander with the seed. One
//! batch is one pass over the pool, so every batch replays the same
//! inputs and batches differ in timing only.

use cedar_core::policy::WaitPolicyKind;
use cedar_distrib::spec::DistSpec;
use cedar_server::proto::Request;
use cedar_sim::{simulate_query, SimConfig};
use cedar_workloads::production;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::time::Duration;

/// Which front end a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `cedar_server::Server`, engine in-process.
    Server,
    /// Seven `cedar_mesh` nodes; the client talks to the root.
    Mesh,
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub front: Front,
    /// Leaves per aggregator and aggregators per query.
    pub k1: usize,
    pub k2: usize,
    /// Wall clock per model time unit.
    pub unit: Duration,
    /// Range of the per-query bottom-stage `mu` grid.
    pub mu: (f64, f64),
    /// Deadline in model units (the server default, or sent per query).
    pub deadline: f64,
    /// Whether the deadline cuts answers short. Loose workloads must
    /// keep `quality_mean >= 0.95`; the binding one must match the
    /// simulator.
    pub binding: bool,
    /// Refit after every query and cycle the deadline so that every
    /// query misses the prepared-context cache.
    pub churn: bool,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Queries per batch, all clients together; also the pool size.
    pub batch: usize,
    /// Queries sent before timing starts (part of set-up).
    pub warmup: usize,
}

/// Distinct loose deadlines `rpc_churn` cycles through.
const CHURN_DEADLINES: usize = 64;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "rpc_small",
        front: Front::Server,
        k1: 4,
        k2: 4,
        unit: Duration::from_nanos(100),
        mu: (6.0, 7.0),
        deadline: 1e7,
        binding: false,
        churn: false,
        clients: 1,
        batch: 1000,
        warmup: 4000,
    },
    // 40 trees a batch, so the simulator comparison and every batch's
    // quality rest on 100 000 leaves.
    Spec {
        name: "rpc_wide",
        front: Front::Server,
        k1: 50,
        k2: 50,
        unit: Duration::from_micros(100),
        mu: (5.5, 7.5),
        deadline: 1000.0,
        binding: true,
        churn: false,
        clients: 1,
        batch: 40,
        warmup: 20,
    },
    // 32 leaf samples a query: the warm-up fills the bottom stage's
    // 50 000-sample refit history, so per-refit cost is stationary.
    Spec {
        name: "rpc_churn",
        front: Front::Server,
        k1: 8,
        k2: 4,
        unit: Duration::from_nanos(100),
        mu: (6.0, 7.0),
        deadline: 1e7,
        binding: false,
        churn: true,
        clients: 2,
        batch: 400,
        warmup: 2000,
    },
    Spec {
        name: "mesh_small",
        front: Front::Mesh,
        k1: 8,
        k2: 2,
        unit: Duration::from_micros(1),
        mu: (2.0, 3.0),
        deadline: 20_000.0,
        binding: false,
        churn: false,
        clients: 1,
        batch: 500,
        warmup: 2000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64: the whole input generator, so the inputs depend on
/// nothing but the seed and this file.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Spec {
    /// A query tree of this workload's shape: bottom `LN(mu, 0.84)`,
    /// top `LN(4.0, 1.2)` (the Facebook map and reduce shapes).
    pub fn tree(&self, mu: f64) -> TreeDef {
        TreeDef {
            stages: vec![
                StageDef {
                    dist: DistSpec::LogNormal { mu, sigma: 0.84 },
                    fanout: self.k1,
                },
                StageDef {
                    dist: DistSpec::LogNormal {
                        mu: 4.0,
                        sigma: 1.2,
                    },
                    fanout: self.k2,
                },
            ],
        }
    }

    /// The middle of the `mu` range: the tree the per-layer timings use.
    pub fn typical_tree(&self) -> TreeDef {
        self.tree((self.mu.0 + self.mu.1) / 2.0)
    }

    /// The request pool for `seed`: `batch` queries, sent in this order
    /// in every batch.
    pub fn requests(&self, seed: u64) -> Vec<Request> {
        let tag = self
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
        let mut rng = SplitMix64::new(seed ^ tag);
        let n = self.batch;
        let (lo, hi) = self.mu;
        let mut mus: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / n as f64)
            .collect();
        for i in (1..n).rev() {
            mus.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        mus.iter()
            .enumerate()
            .map(|(i, &mu)| {
                let deadline = if self.churn {
                    Some(self.deadline + 1000.0 * (i % CHURN_DEADLINES) as f64)
                } else if self.front == Front::Mesh {
                    // The mesh root has no configured default.
                    Some(self.deadline)
                } else {
                    None
                };
                Request::query(self.tree(mu), deadline, Some(rng.next_u64()))
            })
            .collect()
    }

    /// Mean quality `cedar_sim` predicts for the pool under the priors
    /// and deadline the server runs with — what a binding workload's
    /// measured `quality_mean` is checked against.
    pub fn sim_quality(&self, pool: &[Request]) -> f64 {
        let priors = production::facebook_mr(self.k1, self.k2).priors;
        let total: f64 = pool
            .iter()
            .map(|req| {
                let tree = req
                    .tree
                    .as_ref()
                    .and_then(|t| t.build().ok())
                    .expect("generated trees build");
                let cfg = SimConfig::new(tree, self.deadline)
                    .with_priors(priors.clone())
                    .with_seed(req.seed.unwrap_or(0))
                    .with_scan_steps(300);
                simulate_query(&cfg, WaitPolicyKind::Cedar).quality
            })
            .sum();
        total / pool.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_server::wire2::encode_frame_into;

    fn frames(spec: &Spec, seed: u64) -> Vec<u8> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for req in spec.requests(seed) {
            encode_frame_into(&req, &mut buf).unwrap();
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn same_seed_gives_byte_identical_request_frames() {
        for spec in &SPECS {
            assert_eq!(frames(spec, 7), frames(spec, 7), "{}", spec.name);
            assert_ne!(frames(spec, 7), frames(spec, 8), "{}", spec.name);
        }
    }

    #[test]
    fn pools_cover_the_mu_grid_whatever_the_seed() {
        for spec in &SPECS {
            let mut mus: Vec<f64> = spec
                .requests(3)
                .iter()
                .map(|r| match r.tree.as_ref().unwrap().stages[0].dist {
                    DistSpec::LogNormal { mu, .. } => mu,
                    _ => unreachable!(),
                })
                .collect();
            mus.sort_by(f64::total_cmp);
            assert_eq!(mus.len(), spec.batch);
            assert!(mus[0] > spec.mu.0 && mus[spec.batch - 1] < spec.mu.1);
            assert!(mus.windows(2).all(|w| w[0] < w[1]), "{}", spec.name);
            assert_eq!(spec.batch % spec.clients, 0, "{}", spec.name);
        }
    }

    #[test]
    fn churn_cycles_its_deadlines_and_others_do_not_override() {
        let churn = spec("rpc_churn").unwrap().requests(1);
        let distinct: std::collections::BTreeSet<u64> =
            churn.iter().map(|r| r.deadline.unwrap() as u64).collect();
        assert_eq!(distinct.len(), CHURN_DEADLINES);
        assert!(spec("rpc_small").unwrap().requests(1)[0].deadline.is_none());
        assert_eq!(
            spec("mesh_small").unwrap().requests(1)[0].deadline,
            Some(20_000.0)
        );
    }
}
