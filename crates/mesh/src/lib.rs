//! cedar-mesh: multi-process aggregation topologies.
//!
//! This crate turns the in-process runtime into a 3-level mesh of
//! cooperating processes — one **root**, a layer of **aggregators**,
//! and a layer of **workers** — speaking the existing length-prefixed
//! binary protocol extended with inter-node frames ([`wire`]).
//!
//! * [`topology`] — the declarative config: node names, roles,
//!   addresses, parent/child edges, replica sets, and the time scale
//!   every process shares.
//! * [`wire`] — the inter-node frame vocabulary (`hello`, `heartbeat`,
//!   `exec`, `retry`, `partial`) plus the pure seed-derivation helpers
//!   that make every process sample identical durations for the same
//!   `(query seed, origin)` without coordination.
//! * [`ring`] — consistent hashing; the root shards each query onto
//!   one replica set of aggregators by the hash of its seed.
//! * [`peer`] — parent-side links: handshake, heartbeats, failure
//!   detection, reconnection, and per-query routing of partials.
//! * [`node`] — the process itself: one listener serving both client
//!   requests and mesh frames, with role-specific execution.
//! * [`metrics`] — per-node and per-peer Prometheus families that
//!   reconcile with the `FailureReport`s clients receive.
//!
//! The design goal, inherited from the paper: a *real* dead or
//! straggling peer must degrade answer quality through exactly the
//! same accounting as an injected fault, so the chaos tests can assert
//! one set of curves for both.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod node;
pub mod peer;
pub mod ring;
pub mod topology;
pub mod wire;

pub use metrics::{federate, MeshMetrics, PeerMetrics};
pub use node::{start, start_with, NodeHandle, NodeOptions};
pub use peer::{LinkConfig, PeerLink, Router};
pub use ring::HashRing;
pub use topology::{NodeDef, Role, Topology};
pub use wire::{agg_seed, leaf_seed, trace_id, ExecTrace, MeshMsg, StageTiming};
