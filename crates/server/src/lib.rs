//! `cedar-server` — a concurrent, network-facing aggregation query
//! service over the `cedar-runtime` engine.
//!
//! The paper's deployment (§5.1) is a long-running service: many
//! deadline-bound aggregation queries in flight at once, continuously
//! learning priors from the ones that complete. This crate is that
//! serving layer:
//!
//! - [`proto`]: the wire protocol — length-prefixed (u32 big-endian)
//!   frames carrying the hand-rolled binary layout of [`wire2`]
//!   (version 2); any other framing gets one typed refusal;
//! - [`wire2`]: the zero-copy binary codec behind protocol version 2;
//! - [`admission`]: a bounded in-flight gate — beyond the cap, requests
//!   queue for a bounded time and are then shed, so deadline semantics
//!   stay honest under overload;
//! - [`spill`]: an optional second-level FIFO behind the admission
//!   queue — encoded request frames overflow to a bounded segment file
//!   under burst and replay in order as slots free;
//! - [`frontend`]: the one listener/connection layer (one OS thread per
//!   connection) the server and every mesh node serve through;
//! - [`server`]: the TCP service — its ops drive queries on a shared
//!   multi-threaded tokio runtime through the concurrent
//!   [`AggregationService`];
//! - [`client`]: a small blocking client used by `cedar-cli loadgen`
//!   and the tests.
//!
//! # Quick start
//!
//! ```no_run
//! use cedar_server::{Server, ServerConfig};
//! use cedar_server::client::Client;
//! use cedar_workloads::treedef::TreeDef;
//!
//! let cfg = ServerConfig::facebook_mr("127.0.0.1:0", 1600.0);
//! let handle = Server::start(cfg).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let resp = client.query(&TreeDef::example(), None, Some(42)).unwrap();
//! println!("quality {:?}", resp.result.unwrap().quality);
//! handle.shutdown().unwrap();
//! ```
//!
//! [`AggregationService`]: cedar_runtime::AggregationService

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod clock;
pub mod frontend;
pub mod proto;
pub mod server;
pub mod spill;
pub mod wire2;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionPermit, Shed};
pub use client::{Client, WireFormat};
pub use proto::{HealthState, HealthStatus};
pub use server::{Server, ServerConfig, ServerHandle};
pub use spill::{SpillConfig, SpillQueue, SpillStats};
