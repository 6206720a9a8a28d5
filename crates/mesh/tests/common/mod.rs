//! Test helpers: a seeded `MeshMsg` generator for the wire property
//! suite (`wire2_props`).
//!
//! The vendored proptest subset has no combinators, so messages are
//! derived from a single seeded generator: every field is a pure
//! function of the case's seed, which the harness prints on failure.

use cedar_mesh::wire::{ExecTrace, MeshMsg, StageTiming};
use cedar_runtime::{FailureReport, FaultPlan, FaultSpec, RecoveryPolicy};
use cedar_telemetry::{HopRecord, TraceSegment, TraceSummary};
use cedar_workloads::treedef::{StageDef, TreeDef};

/// SplitMix64-driven field generator; deterministic per seed.
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.u64() as usize) % (hi - lo)
    }

    /// Uniform in [lo, hi); always finite, JSON-exact after ryu.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    pub fn name(&mut self) -> String {
        let n = self.usize(1, 12);
        (0..n)
            .map(|_| char::from(b'a' + (self.u64() % 26) as u8))
            .collect()
    }

    pub fn timing(&mut self) -> StageTiming {
        StageTiming {
            level: self.usize(0, 3),
            origin: self.usize(0, 10_000),
            duration: self.f64(0.0, 1e6),
        }
    }

    pub fn timings(&mut self) -> Vec<StageTiming> {
        let n = self.usize(0, 16);
        (0..n).map(|_| self.timing()).collect()
    }

    pub fn report(&mut self) -> FailureReport {
        FailureReport {
            crashed: self.usize(0, 50),
            hung: self.usize(0, 50),
            straggled: self.usize(0, 50),
            dropped: self.usize(0, 50),
            duplicated: self.usize(0, 50),
            retries_launched: self.usize(0, 50),
            retries_delivered: self.usize(0, 50),
            duplicates_suppressed: self.usize(0, 50),
            censored_observations: self.usize(0, 50),
        }
    }

    pub fn tree(&mut self) -> TreeDef {
        let stages = self.usize(1, 4);
        TreeDef {
            stages: (0..stages)
                .map(|_| StageDef {
                    dist: cedar_distrib::spec::DistSpec::LogNormal {
                        mu: self.f64(-2.0, 4.0),
                        sigma: self.f64(0.1, 2.0),
                    },
                    fanout: self.usize(1, 100),
                })
                .collect(),
        }
    }

    pub fn plan(&mut self) -> Option<FaultPlan> {
        if self.bool() {
            return None;
        }
        Some(
            FaultPlan::new(self.u64(), FaultSpec::mixed(self.f64(0.0, 0.5))).with_recovery(
                RecoveryPolicy {
                    watchdog_quantile: self.f64(0.5, 0.999),
                    speculative_retry: self.bool(),
                },
            ),
        )
    }

    pub fn summary(&mut self) -> TraceSummary {
        TraceSummary {
            arrivals: self.usize(0, 500),
            rearms: self.usize(0, 50),
            failures: self.report(),
        }
    }

    pub fn hop(&mut self) -> HopRecord {
        if self.bool() {
            return HopRecord::censored(self.name(), self.u64() >> 1, self.u64() as i64 >> 40);
        }
        HopRecord {
            child: self.name(),
            censored: false,
            clock_offset_us: self.u64() as i64 >> 40,
            exec_sent_unix_us: self.u64() >> 1,
            exec_recv_unix_us: self.u64() >> 1,
            exec_decode_us: self.usize(0, 10_000) as u64,
            exec_queue_us: self.usize(0, 10_000) as u64,
            partial_sent_unix_us: self.u64() >> 1,
            partial_recv_unix_us: self.u64() >> 1,
        }
    }

    /// A trace segment `depth` levels deep (no `report`: decision
    /// traces carry NaN-prone floats the JSON capsule law excludes).
    pub fn segment(&mut self, depth: usize) -> TraceSegment {
        let hops = self.usize(0, 4);
        let kids = if depth == 0 { 0 } else { self.usize(0, 3) };
        TraceSegment {
            node: self.name(),
            role: self.name(),
            level: self.usize(0, 3),
            origin: self.usize(0, 10_000),
            trace_id: self.u64(),
            exec_recv_unix_us: self.u64() >> 1,
            exec_decode_us: self.usize(0, 10_000) as u64,
            exec_queue_us: self.usize(0, 10_000) as u64,
            partial_sent_unix_us: self.u64() >> 1,
            hops: (0..hops).map(|_| self.hop()).collect(),
            children: (0..kids).map(|_| self.segment(depth - 1)).collect(),
            report: None,
            summary: self.summary(),
        }
    }

    /// One message of the chosen variant (0..=6), every field random.
    pub fn msg(&mut self, variant: usize) -> MeshMsg {
        match variant {
            0 => MeshMsg::Hello {
                from: self.name(),
                role: self.name(),
                topology_hash: self.u64(),
            },
            1 => MeshMsg::HelloAck {
                from: self.name(),
                ok: self.bool(),
                error: self.bool().then(|| self.name()),
            },
            2 => MeshMsg::Heartbeat {
                from: self.name(),
                seq: self.u64(),
            },
            3 => MeshMsg::HeartbeatAck {
                from: self.name(),
                seq: self.u64(),
                at_unix_us: self.bool().then(|| self.u64() >> 1),
            },
            4 => MeshMsg::Exec {
                query_id: self.u64(),
                from: self.name(),
                target: self.name(),
                agg_index: self.usize(0, 64),
                tree: self.tree(),
                deadline: self.f64(1.0, 1e5),
                seed: self.u64(),
                fault_plan: self.plan(),
                trace: self.bool().then(|| ExecTrace {
                    trace_id: self.u64(),
                    explain: self.bool(),
                    sent_unix_us: self.u64() >> 1,
                }),
            },
            5 => MeshMsg::Retry {
                query_id: self.u64(),
                from: self.name(),
                origins: {
                    let n = self.usize(0, 32);
                    (0..n).map(|_| self.usize(0, 10_000)).collect()
                },
            },
            _ => MeshMsg::Partial {
                query_id: self.u64(),
                from: self.name(),
                origin: self.usize(0, 10_000),
                payload: self.usize(0, 1000),
                value: self.f64(-1e4, 1e9),
                duration: self.f64(0.0, 1e6),
                retry: self.bool(),
                timings: self.timings(),
                censored: self.timings(),
                failures: self.report(),
                segment: self.bool().then(|| Box::new(self.segment(2))),
            },
        }
    }
}

/// Number of `MeshMsg` variants `Gen::msg` can produce.
pub const VARIANTS: usize = 7;
