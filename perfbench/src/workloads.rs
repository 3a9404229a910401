//! The three named workloads: trace, churn schedule and engine config,
//! all generated from the seed before the measured loop starts.

use hetis_cluster::{Cluster, DeviceId, GpuType};
use hetis_elastic::ChurnProcess;
use hetis_engine::{
    AdmissionPolicy, ClosedLoopConfig, ClusterEvent, EngineConfig, InstanceRole, InstanceTopo,
    StageTopo, Topology,
};
use hetis_parallel::StageConfig;
use hetis_telemetry::TelemetryConfig;
use hetis_workload::{
    multi_tenant_trace, multi_turn_trace, DatasetKind, Poisson, Request, SessionWorkload, SloClass,
    TenantId, TenantSpec, Trace, TraceBuilder,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `StaticPolicy` over two TP-2 A100 instances, a long stream of
    /// short chat turns: host time is engine bookkeeping.
    StaticStream,
    /// `HetisPolicy` on the paper cluster: bursty interactive chat next
    /// to long-prompt batch summarization, chunked + fused + SLO slack.
    HetisSloMix,
    /// `ElasticPolicy<HetisPolicy>`: multi-turn sessions with prefix
    /// reuse, a P100 preemption storm, telemetry and the closed loop.
    ElasticSessions,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::StaticStream, Kind::HetisSloMix, Kind::ElasticSessions];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StaticStream => "static_stream",
            Kind::HetisSloMix => "hetis_slo_mix",
            Kind::ElasticSessions => "elastic_sessions",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Requests per simulated second offered to `static_stream`, ~85% of
/// what its two instances sustain for this length mix.
const STREAM_RATE: f64 = 100.0;
/// Simulated seconds of `static_stream` arrivals (~10⁵ requests).
const STREAM_HORIZON: f64 = 1000.0;

/// Simulated seconds of `hetis_slo_mix` arrivals.
const MIX_HORIZON: f64 = 600.0;

/// Sessions and start rate of `elastic_sessions` (below saturation).
const SESSIONS: usize = 600;
const SESSION_RATE: f64 = 0.6;

/// Everything a run needs besides the policy.
pub struct Workload {
    pub trace: Trace,
    pub churn: Vec<ClusterEvent>,
    pub cfg: EngineConfig,
}

/// Builds `kind`'s inputs from `seed`.
pub fn build(kind: Kind, seed: u64, cluster: &Cluster) -> Workload {
    match kind {
        Kind::StaticStream => static_stream(seed),
        Kind::HetisSloMix => hetis_slo_mix(seed),
        Kind::ElasticSessions => elastic_sessions(seed, cluster),
    }
}

/// Poisson arrivals from `TraceBuilder`, lengths folded into the short
/// chat-turn mix of the `million_requests` example (48–144 prompt
/// tokens, 6–18 output tokens), tagged interactive.
fn static_stream(seed: u64) -> Workload {
    let raw = TraceBuilder::new(DatasetKind::ShareGpt, seed)
        .build(&Poisson::new(STREAM_RATE), STREAM_HORIZON);
    let requests: Vec<Request> = raw
        .requests()
        .iter()
        .map(|r| Request {
            input_len: 48 + (r.input_len % 13) * 8,
            output_len: 6 + (r.output_len % 7) * 2,
            class: SloClass::Interactive,
            ..*r
        })
        .collect();
    Workload {
        trace: Trace::from_requests(requests, DatasetKind::ShareGpt),
        churn: Vec::new(),
        cfg: EngineConfig {
            drain_timeout: 300.0,
            ..EngineConfig::default()
        },
    }
}

/// The `static_stream` layout: two device-disjoint TP-2 A100 instances.
pub fn static_topology() -> Topology {
    let stage = |a: u32, b: u32| {
        StageTopo::plain(StageConfig {
            devices: vec![DeviceId(a), DeviceId(b)],
            layers: 40,
        })
    };
    Topology {
        instances: vec![
            InstanceTopo {
                stages: vec![stage(0, 1)],
                role: InstanceRole::Both,
            },
            InstanceTopo {
                stages: vec![stage(2, 3)],
                role: InstanceRole::Both,
            },
        ],
    }
}

fn hetis_slo_mix(seed: u64) -> Workload {
    // Batch at 1.5 req/s: at 2 req/s a few seeds in fifty tip the cluster
    // into a backlog that never drains, leaving requests unfinished.
    let specs = [
        TenantSpec::steady(
            TenantId(0),
            DatasetKind::ShareGpt,
            SloClass::Interactive,
            6.0,
        )
        .with_burst(MIX_HORIZON / 3.0, 10.0, 3.0),
        TenantSpec::steady(TenantId(1), DatasetKind::LongBench, SloClass::Batch, 1.5),
    ];
    Workload {
        trace: multi_tenant_trace(&specs, seed, MIX_HORIZON),
        churn: Vec::new(),
        cfg: EngineConfig {
            drain_timeout: 180.0,
            prefill_chunk_tokens: Some(512),
            admission: AdmissionPolicy::SloSlack,
            fused_microbatches: true,
            ..EngineConfig::default()
        },
    }
}

fn elastic_sessions(seed: u64, cluster: &Cluster) -> Workload {
    let spec = SessionWorkload {
        sessions: SESSIONS,
        turns: 5,
        session_rate: SESSION_RATE,
        mean_think: 35.0,
        dataset: DatasetKind::ShareGpt,
        class: SloClass::Interactive,
    };
    let trace = multi_turn_trace(&spec, seed);
    // Every P100 gets a 10 s preemption notice inside a 5 s window a
    // third of the way in and rejoins 20 s after revocation.
    let churn = ChurnProcess::preemption_storm(
        cluster,
        GpuType::P100,
        seed ^ 0xE1A5_71C0,
        trace.horizon() / 3.0,
        5.0,
        10.0,
        Some(20.0),
    );
    Workload {
        trace,
        churn,
        cfg: EngineConfig {
            drain_timeout: 180.0,
            prefill_chunk_tokens: Some(512),
            admission: AdmissionPolicy::SloSlack,
            prefix_reuse: true,
            telemetry: Some(TelemetryConfig {
                window_secs: 15.0,
                sample_period: 0.25,
                ..TelemetryConfig::default()
            }),
            closed_loop: Some(ClosedLoopConfig::default()),
            ..EngineConfig::default()
        },
    }
}
