//! Topology configuration: which processes exist, what role each
//! plays, and how they wire into a partition-aggregate tree.
//!
//! A topology is a JSON document declaring one **root**, its
//! **aggregator** children, and each aggregator's **worker** children;
//! workers host `processes` leaf tasks each. The shape mirrors the
//! paper's three-level deployment (root / mid-level aggregators /
//! workers), so a query tree with stages `(k1, k2)` maps onto it as:
//! `k2` = aggregators per replica, `k1` = leaves under each aggregator.
//!
//! ```json
//! {
//!   "unit_us": 200,
//!   "heartbeat_ms": 500,
//!   "miss_limit": 3,
//!   "nodes": [
//!     { "name": "root", "role": "root", "addr": "127.0.0.1:7100",
//!       "children": ["agg0", "agg1"] },
//!     { "name": "agg0", "role": "agg", "addr": "127.0.0.1:7101",
//!       "children": ["w0", "w1"] },
//!     { "name": "w0", "role": "worker", "addr": "127.0.0.1:7103",
//!       "processes": 2 }
//!   ]
//! }
//! ```
//!
//! Optional `replicas` groups the root's aggregator children into
//! replica sets; the root routes each query to one set by consistent
//! hash of its key ([`crate::ring`]). Without it, every query runs on
//! all aggregators (a single replica).
//!
//! Every mesh link speaks the binary framing ([`crate::wire`]). The
//! deployment-wide and per-node `wire` fields remain so existing configs
//! still load: each may be absent or `"binary"`, and `"json"` is
//! refused, since JSON links were removed.

use cedar_runtime::TimeScale;
use cedar_server::frontend::DEFAULT_IDLE_TIMEOUT;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Duration;

/// Default model-unit length when `unit_us` is omitted.
const DEFAULT_UNIT_US: u64 = 200;
/// Default heartbeat interval when `heartbeat_ms` is omitted.
const DEFAULT_HEARTBEAT_MS: u64 = 500;
/// Default consecutive-miss limit when `miss_limit` is omitted.
const DEFAULT_MISS_LIMIT: u32 = 3;

/// What a process does in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Role {
    /// Accepts client queries, shards them across replicas, gathers
    /// aggregated partials until the deadline.
    Root,
    /// Mid-level aggregator: runs the wait policy over its workers'
    /// partial results and ships one aggregate upstream.
    Agg,
    /// Hosts leaf processes: simulates their stage-0 work and pushes
    /// one partial result per leaf.
    Worker,
}

impl Role {
    /// The role's wire/CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Root => "root",
            Role::Agg => "agg",
            Role::Worker => "worker",
        }
    }
}

/// One process in the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDef {
    /// Unique node name (also its identity in handshakes and metrics).
    pub name: String,
    /// The node's role.
    pub role: Role,
    /// `host:port` the node listens on; hostnames resolve at connect
    /// time, so docker-compose service names work.
    pub addr: String,
    /// Child node names (roots list aggs, aggs list workers). Omitted
    /// means none.
    pub children: Option<Vec<String>>,
    /// Leaf processes hosted (workers only).
    pub processes: Option<usize>,
    /// Absent or `"binary"`, the one mesh framing; kept so configs and
    /// the repo benchmark's struct literals that carry it still load.
    pub wire: Option<String>,
}

impl NodeDef {
    /// The node's children, empty when omitted.
    #[must_use]
    pub fn children(&self) -> &[String] {
        self.children.as_deref().unwrap_or(&[])
    }

    /// Leaf processes hosted, 0 when omitted.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.processes.unwrap_or(0)
    }
}

/// The whole deployment: nodes plus mesh-wide timing knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Wall microseconds per model unit (default 200).
    pub unit_us: Option<u64>,
    /// Heartbeat interval in milliseconds (default 500).
    pub heartbeat_ms: Option<u64>,
    /// Consecutive missed heartbeats before a peer is declared down
    /// (default 3).
    pub miss_limit: Option<u32>,
    /// Absent or `"binary"`, the one mesh framing; kept so configs and
    /// the repo benchmark's struct literals that carry it still load.
    pub wire: Option<String>,
    /// Optional replica sets: each inner list names aggregators; the
    /// sets must partition the root's children. Omitted means one
    /// replica containing every aggregator.
    pub replicas: Option<Vec<Vec<String>>>,
    /// Every process in the deployment.
    pub nodes: Vec<NodeDef>,
}

impl Topology {
    /// Parses and validates a topology from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let topo: Topology =
            serde_json::from_str(json).map_err(|e| format!("parsing topology: {e}"))?;
        topo.validate()?;
        Ok(topo)
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        // cedar-lint: allow(L4): Topology is plain data; serde_json cannot fail on it
        serde_json::to_string_pretty(self).expect("topology is plain data")
    }

    /// Checks structural invariants; every accessor below assumes they
    /// hold, so loading paths must call this (or use [`from_json`],
    /// which does).
    ///
    /// [`from_json`]: Topology::from_json
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("topology has no nodes".into());
        }
        check_wire(self.wire.as_deref())?;
        for n in &self.nodes {
            check_wire(n.wire.as_deref()).map_err(|e| format!("node {:?}: {e}", n.name))?;
        }
        // A child reaps a link that sends nothing for its per-frame idle
        // deadline, so heartbeats must come sooner — and a zero interval
        // is no interval (the OS refuses a zero socket timeout).
        if let Some(ms) = self.heartbeat_ms {
            if ms == 0 {
                return Err("heartbeat_ms must be positive".into());
            }
            if Duration::from_millis(ms) >= DEFAULT_IDLE_TIMEOUT {
                return Err(format!(
                    "heartbeat_ms {ms} must be below the {} ms a node waits for the next \
                     frame on a link before closing it",
                    DEFAULT_IDLE_TIMEOUT.as_millis()
                ));
            }
        }
        let mut names = HashSet::new();
        for n in &self.nodes {
            if n.name.is_empty() {
                return Err("a node has an empty name".into());
            }
            if !names.insert(n.name.as_str()) {
                return Err(format!("duplicate node name {:?}", n.name));
            }
            let (host, port) = n.addr.rsplit_once(':').unwrap_or(("", ""));
            if host.is_empty() || port.parse::<u16>().is_err() {
                return Err(format!(
                    "node {:?} addr {:?} is not host:port",
                    n.name, n.addr
                ));
            }
        }
        let roots: Vec<&NodeDef> = self.nodes.iter().filter(|n| n.role == Role::Root).collect();
        let [root] = roots.as_slice() else {
            return Err(format!("expected exactly one root, found {}", roots.len()));
        };
        // Every node is some child at most once, and the references
        // resolve with the role each level demands.
        let mut seen_child = HashSet::new();
        for n in &self.nodes {
            let want = match n.role {
                Role::Root => Role::Agg,
                Role::Agg => Role::Worker,
                Role::Worker => {
                    if !n.children().is_empty() {
                        return Err(format!("worker {:?} must not have children", n.name));
                    }
                    if n.processes() == 0 {
                        return Err(format!("worker {:?} needs processes >= 1", n.name));
                    }
                    continue;
                }
            };
            if n.children().is_empty() {
                return Err(format!(
                    "{} {:?} needs at least one child",
                    n.role.as_str(),
                    n.name
                ));
            }
            for c in n.children() {
                let Some(child) = self.node(c) else {
                    return Err(format!("{:?} references unknown child {c:?}", n.name));
                };
                if child.role != want {
                    return Err(format!(
                        "{:?} expects {} children, but {c:?} is a {}",
                        n.name,
                        want.as_str(),
                        child.role.as_str()
                    ));
                }
                if !seen_child.insert(c.as_str()) {
                    return Err(format!("{c:?} has more than one parent"));
                }
            }
        }
        if seen_child.contains(root.name.as_str()) {
            return Err("the root cannot be anyone's child".into());
        }
        // No orphans: every non-root node must be someone's child.
        for n in &self.nodes {
            if n.role != Role::Root && !seen_child.contains(n.name.as_str()) {
                return Err(format!("{:?} is not reachable from the root", n.name));
            }
        }
        // Uniform fan-in: every aggregator hosts the same leaf count so
        // one query tree shape fits the whole mesh.
        let leaf_counts: Vec<usize> = self.aggs().iter().map(|a| self.leaves_under(a)).collect();
        if let Some((&first, rest)) = leaf_counts.split_first() {
            if rest.iter().any(|&c| c != first) {
                return Err(format!(
                    "aggregators host unequal leaf counts {leaf_counts:?}"
                ));
            }
        }
        // Replica sets must partition the root's children, with equal
        // sizes so one query tree fan-out fits every replica.
        if let Some(groups) = &self.replicas {
            if groups.is_empty() || groups.iter().any(Vec::is_empty) {
                return Err("replica sets must be non-empty".into());
            }
            let mut covered = HashSet::new();
            for g in groups {
                for name in g {
                    if !root.children().contains(name) {
                        return Err(format!("replica member {name:?} is not a root child"));
                    }
                    if !covered.insert(name.as_str()) {
                        return Err(format!("{name:?} appears in more than one replica"));
                    }
                }
            }
            if covered.len() != root.children().len() {
                return Err("replica sets must cover every aggregator".into());
            }
            if groups.iter().any(|g| g.len() != groups[0].len()) {
                return Err("replica sets must be equally sized".into());
            }
        }
        Ok(())
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn node(&self, name: &str) -> Option<&NodeDef> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The unique root node.
    ///
    /// # Panics
    /// Panics when called on an unvalidated topology with no root.
    #[must_use]
    pub fn root(&self) -> &NodeDef {
        self.nodes
            .iter()
            .find(|n| n.role == Role::Root)
            // cedar-lint: allow(L4): validate() guarantees exactly one root on every loaded topology
            .expect("validated topology has a root")
    }

    /// The aggregators, in the root's child order.
    #[must_use]
    pub fn aggs(&self) -> Vec<&NodeDef> {
        self.root()
            .children()
            .iter()
            .filter_map(|c| self.node(c))
            .collect()
    }

    /// The parent of `name`, if any.
    #[must_use]
    pub fn parent_of(&self, name: &str) -> Option<&NodeDef> {
        self.nodes
            .iter()
            .find(|n| n.children().iter().any(|c| c == name))
    }

    /// Total leaf processes under one aggregator (its query-tree
    /// stage-0 fan-in, `k1`).
    #[must_use]
    pub fn leaves_under(&self, agg: &NodeDef) -> usize {
        agg.children()
            .iter()
            .filter_map(|c| self.node(c))
            .map(NodeDef::processes)
            .sum()
    }

    /// Leaf offset of `worker` within its parent aggregator: the sum of
    /// `processes` over earlier siblings. Deterministic from the config
    /// alone, so every process derives the same global leaf numbering.
    #[must_use]
    pub fn worker_offset(&self, worker: &str) -> Option<usize> {
        let parent = self.parent_of(worker)?;
        let mut offset = 0;
        for c in parent.children() {
            if c == worker {
                return Some(offset);
            }
            offset += self.node(c).map_or(0, NodeDef::processes);
        }
        None
    }

    /// The replica sets: explicit `replicas`, or one set of every
    /// aggregator.
    #[must_use]
    pub fn replica_groups(&self) -> Vec<Vec<String>> {
        match &self.replicas {
            Some(groups) => groups.clone(),
            None => vec![self.root().children().to_vec()],
        }
    }

    /// Model-to-wall mapping for this deployment.
    #[must_use]
    pub fn scale(&self) -> TimeScale {
        TimeScale::new(Duration::from_micros(
            self.unit_us.unwrap_or(DEFAULT_UNIT_US),
        ))
    }

    /// Heartbeat interval.
    #[must_use]
    pub fn heartbeat(&self) -> Duration {
        Duration::from_millis(self.heartbeat_ms.unwrap_or(DEFAULT_HEARTBEAT_MS))
    }

    /// Consecutive missed heartbeats before a peer is declared down.
    #[must_use]
    pub fn miss_limit(&self) -> u32 {
        self.miss_limit.unwrap_or(DEFAULT_MISS_LIMIT).max(1)
    }

    /// FNV-1a over the canonical JSON encoding: the topology handshake
    /// token. Two processes agree on it iff they loaded byte-identical
    /// configurations (field order is fixed by the struct definitions).
    #[must_use]
    pub fn hash(&self) -> u64 {
        crate::ring::fnv1a(self.to_json().as_bytes())
    }

    /// Generates a regular local topology: `aggs` aggregators in
    /// `replicas` equal replica sets, `workers_per_agg` workers each,
    /// `processes` leaves per worker, listening on consecutive ports of
    /// `host` starting at `base_port` (root first, then aggs, then
    /// workers).
    pub fn regular(
        aggs: usize,
        workers_per_agg: usize,
        processes: usize,
        host: &str,
        base_port: u16,
        replicas: usize,
    ) -> Result<Self, String> {
        if aggs == 0 || workers_per_agg == 0 || processes == 0 {
            return Err("regular topology needs aggs, workers, processes >= 1".into());
        }
        if replicas == 0 || !aggs.is_multiple_of(replicas) {
            return Err(format!(
                "{aggs} aggs cannot split into {replicas} equal replicas"
            ));
        }
        let mut nodes = Vec::new();
        let mut port = base_port;
        let bump = |port: &mut u16| {
            let p = *port;
            *port = port.checked_add(1).unwrap_or(base_port);
            p
        };
        let agg_names: Vec<String> = (0..aggs).map(|i| format!("agg{i}")).collect();
        nodes.push(NodeDef {
            name: "root".into(),
            role: Role::Root,
            addr: format!("{host}:{}", bump(&mut port)),
            children: Some(agg_names.clone()),
            processes: None,
            wire: None,
        });
        for (a, agg_name) in agg_names.iter().enumerate() {
            let worker_names: Vec<String> = (0..workers_per_agg)
                .map(|w| format!("w{}", a * workers_per_agg + w))
                .collect();
            nodes.push(NodeDef {
                name: agg_name.clone(),
                role: Role::Agg,
                addr: format!("{host}:{}", bump(&mut port)),
                children: Some(worker_names.clone()),
                processes: None,
                wire: None,
            });
            for w in worker_names {
                nodes.push(NodeDef {
                    name: w,
                    role: Role::Worker,
                    addr: format!("{host}:{}", bump(&mut port)),
                    children: None,
                    processes: Some(processes),
                    wire: None,
                });
            }
        }
        let per = aggs / replicas;
        let groups: Vec<Vec<String>> = agg_names.chunks(per).map(<[String]>::to_vec).collect();
        let topo = Self {
            unit_us: None,
            heartbeat_ms: None,
            miss_limit: None,
            wire: None,
            replicas: (replicas > 1).then_some(groups),
            nodes,
        };
        topo.validate()?;
        Ok(topo)
    }
}

/// A `wire` field may only be absent or name the one mesh framing.
fn check_wire(wire: Option<&str>) -> Result<(), String> {
    match wire {
        None | Some("binary") => Ok(()),
        Some("json") => Err(
            "wire \"json\" is refused: JSON mesh links were removed; every link speaks binary"
                .into(),
        ),
        Some(other) => Err(format!(
            "unknown wire format {other:?} (the only one is \"binary\")"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_generates_a_valid_three_level_mesh() {
        let topo = Topology::regular(2, 2, 2, "127.0.0.1", 7100, 1).unwrap();
        assert_eq!(topo.nodes.len(), 7);
        assert_eq!(topo.aggs().len(), 2);
        assert_eq!(topo.leaves_under(topo.aggs()[0]), 4);
        assert_eq!(topo.worker_offset("w1"), Some(2));
        assert_eq!(topo.worker_offset("w2"), Some(0));
        assert_eq!(
            topo.replica_groups(),
            vec![vec!["agg0".to_owned(), "agg1".to_owned()]]
        );
        assert_eq!(topo.parent_of("w3").unwrap().name, "agg1");
    }

    #[test]
    fn json_round_trips_and_hash_is_stable() {
        let topo = Topology::regular(2, 2, 2, "127.0.0.1", 7100, 2).unwrap();
        let json = topo.to_json();
        let back = Topology::from_json(&json).unwrap();
        assert_eq!(topo, back);
        assert_eq!(topo.hash(), back.hash());
        // Any structural change moves the handshake token.
        let mut other = topo.clone();
        other.nodes[1].addr = "127.0.0.1:9999".into();
        assert_ne!(topo.hash(), other.hash());
    }

    #[test]
    fn replica_groups_split_evenly() {
        let topo = Topology::regular(4, 1, 3, "127.0.0.1", 7200, 2).unwrap();
        let groups = topo.replica_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec!["agg0".to_owned(), "agg1".to_owned()]);
        assert!(Topology::regular(3, 1, 1, "h", 1, 2).is_err());
    }

    #[test]
    fn validation_rejects_malformed_shapes() {
        let mut topo = Topology::regular(2, 2, 2, "127.0.0.1", 7100, 1).unwrap();
        // Duplicate name.
        topo.nodes[2].name = "agg0".into();
        assert!(topo.validate().is_err());

        // Two roots.
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.nodes.push(NodeDef {
            name: "root2".into(),
            role: Role::Root,
            addr: "h:9".into(),
            children: Some(vec!["agg0".into()]),
            processes: None,
            wire: None,
        });
        assert!(topo.validate().is_err());

        // Unknown child.
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.nodes[0].children = Some(vec!["ghost".into()]);
        assert!(topo.validate().is_err());

        // Worker with zero processes.
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.nodes[2].processes = Some(0);
        assert!(topo.validate().is_err());

        // Unequal leaf counts across aggregators.
        let mut topo = Topology::regular(2, 1, 2, "h", 1, 1).unwrap();
        topo.nodes[4].processes = Some(5);
        assert!(topo.validate().is_err());

        // Bad address.
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.nodes[0].addr = "no-port".into();
        assert!(topo.validate().is_err());

        // Replica that is not a partition.
        let mut topo = Topology::regular(2, 1, 1, "h", 1, 1).unwrap();
        topo.replicas = Some(vec![vec!["agg0".into()]]);
        assert!(topo.validate().is_err());
    }

    #[test]
    fn zero_heartbeat_is_refused() {
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.heartbeat_ms = Some(0);
        let err = topo.validate().unwrap_err();
        assert!(err.contains("heartbeat_ms"), "{err}");
    }

    #[test]
    fn heartbeat_at_the_idle_deadline_is_refused() {
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.heartbeat_ms = Some(60_000);
        let err = topo.validate().unwrap_err();
        assert!(err.contains("heartbeat_ms 60000"), "{err}");
        topo.heartbeat_ms = Some(500);
        assert_eq!(topo.validate(), Ok(()));
    }

    #[test]
    fn json_wire_is_refused_with_a_typed_message() {
        let mut topo = Topology::regular(1, 1, 1, "h", 1, 1).unwrap();
        topo.wire = Some("json".into());
        let err = topo.validate().unwrap_err();
        assert!(err.contains("JSON mesh links were removed"), "{err}");
        let json = topo.to_json();
        assert!(Topology::from_json(&json).is_err());

        topo.wire = Some("binary".into());
        assert_eq!(topo.validate(), Ok(()));
        topo.nodes[1].wire = Some("json".into());
        let err = topo.validate().unwrap_err();
        assert!(err.contains("node \"agg0\""), "{err}");
        topo.nodes[1].wire = Some("carrier-pigeon".into());
        assert!(topo.validate().is_err());
    }
}
