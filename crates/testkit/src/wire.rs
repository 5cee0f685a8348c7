//! Wire-protocol fuzzer: a real TCP front-end under seeded hostile
//! clients.
//!
//! Where the [`chaos`](crate::chaos) oracle attacks the pipeline from
//! *inside* the process (partitions, crashes, disk faults), this harness
//! attacks it from *outside*: it boots a real
//! [`Server`](prognosticator::Server) on a loopback socket and drives it
//! with a population of clients drawn from the `hostile_clients`
//! [`ChaosPlan`] — honest traffic interleaved with malformed frames,
//! truncated writes, connection storms, stalled readers and mid-request
//! disconnects, every one a pure function of `(plan, seed)`.
//!
//! Three oracles must survive every campaign:
//!
//! 1. **The server never dies.** No engine panic, no stuck worker: after
//!    the campaign the server drains and shuts down within its budget.
//! 2. **No session leaks, and accounting balances.** Every connection is
//!    reclaimed (`active_connections == 0`) and every request the engine
//!    accepted reached exactly one terminal disposition
//!    (`requests == responses + dropped_responses`); the honest client
//!    specifically got exactly one response per request it sent.
//! 3. **Hostility never taints determinism.** Replaying the committed
//!    stream the campaign produced at every configured worker count
//!    reproduces the live replica digest byte for byte.
//!
//! On a violation the harness writes a `wire-fuzz-*.reproducer.json`
//! artifact carrying the `(plan, seed)` pair and the committed stream,
//! exactly like the chaos oracle's reproducers.

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator::{
    ClientConfig, Pipeline, PipelineConfig, Server, ServerConfig, ServerReport, WireClient,
    WireOutcome,
};
use prognosticator_bench::json::Json;
use prognosticator_core::baselines;
use crate::chaos_plan::{ChaosEvent, ChaosPlan, WireFaultKind};
use prognosticator_workloads::DeterministicRng;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One wire-fuzz campaign cell: a `(plan, seed)` pair plus scale knobs.
#[derive(Debug, Clone)]
pub struct WireFuzzConfig {
    /// Chaos plan name (normally `hostile_clients`).
    pub plan: String,
    /// Seed for the plan, the request stream, and hostile byte choices.
    pub seed: u64,
    /// Campaign rounds.
    pub rounds: usize,
    /// Honest requests sent per round.
    pub round_size: usize,
    /// Worker counts for the determinism replay legs.
    pub worker_counts: Vec<usize>,
    /// Where `wire-fuzz-*.reproducer.json` files land on violation.
    pub artifact_dir: PathBuf,
}

impl WireFuzzConfig {
    /// The acceptance-bar cell: SmallBank honest traffic, 10 rounds of 4
    /// requests, replay at {1, 2, 4} workers, artifacts under
    /// `target/testkit`.
    pub fn standard(seed: u64) -> Self {
        let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        WireFuzzConfig {
            plan: "hostile_clients".to_string(),
            seed,
            rounds: 10,
            round_size: 4,
            worker_counts: vec![1, 2, 4],
            artifact_dir: target.join("testkit"),
        }
    }
}

/// What one surviving wire-fuzz campaign established.
#[derive(Debug, Clone)]
pub struct WireFuzzReport {
    /// The plan that ran.
    pub plan: String,
    /// Its seed.
    pub seed: u64,
    /// Wire faults actually staged.
    pub faults_injected: usize,
    /// Honest requests sent (every one got exactly one response).
    pub honest_sent: usize,
    /// Honest responses with a `Committed` outcome.
    pub honest_committed: usize,
    /// Honest responses with an `Aborted` outcome.
    pub honest_aborted: usize,
    /// Honest responses with a `Rejected` outcome (wire backpressure or
    /// terminal admission rejection — both deterministic).
    pub honest_rejected: usize,
    /// The server's final accounting.
    pub server: ServerReport,
}

/// A wire-fuzz violation, with its reproducer artifact.
#[derive(Debug)]
pub struct WireFuzzViolation {
    /// Which oracle failed and how.
    pub description: String,
    /// Where the reproducer JSON was written (empty if writing failed).
    pub reproducer: PathBuf,
}

impl std::fmt::Display for WireFuzzViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire-fuzz violation: {} (reproducer: {})",
            self.description,
            self.reproducer.display()
        )
    }
}

fn violation(
    config: &WireFuzzConfig,
    description: String,
    stream: &[Vec<prognosticator_core::TxRequest>],
    workload: &TestWorkload,
) -> Box<WireFuzzViolation> {
    crate::report_oracle_failure("wire-fuzz", &description, "wire-fuzz-violation");
    let batches: Vec<Json> = stream
        .iter()
        .map(|batch| {
            Json::Arr(
                batch
                    .iter()
                    .map(|tx| {
                        Json::obj(vec![
                            ("prog_id", Json::Int(tx.program.0 as i64)),
                            (
                                "inputs",
                                Json::Arr(
                                    tx.inputs.iter().map(|v| Json::Str(format!("{v:?}"))).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    let json = Json::obj(vec![
        ("oracle", Json::Str("wire-fuzz".to_string())),
        ("workload", Json::Str(workload.kind().name().to_string())),
        ("plan", Json::Str(config.plan.clone())),
        ("seed", Json::Int(config.seed as i64)),
        ("rounds", Json::Int(config.rounds as i64)),
        ("round_size", Json::Int(config.round_size as i64)),
        (
            "worker_counts",
            Json::Arr(config.worker_counts.iter().map(|&w| Json::Int(w as i64)).collect()),
        ),
        ("violation", Json::Str(description.clone())),
        ("committed_stream", Json::Arr(batches)),
    ]);
    let path = config
        .artifact_dir
        .join(format!("wire-fuzz-{}-{}.reproducer.json", config.plan, config.seed));
    let written = std::fs::create_dir_all(&config.artifact_dir)
        .and_then(|()| std::fs::write(&path, json.render()))
        .is_ok();
    Box::new(WireFuzzViolation {
        description,
        reproducer: if written { path } else { PathBuf::new() },
    })
}

/// Stages one hostile behaviour against the server. Connections whose
/// misbehaviour resolves asynchronously (stalled readers waiting out the
/// frame deadline) are parked in `stalled` so the campaign keeps moving
/// while the server evicts them in the background.
fn apply_wire_fault(
    addr: SocketAddr,
    kind: WireFaultKind,
    rng: &mut DeterministicRng,
    workload: &TestWorkload,
    stalled: &mut Vec<TcpStream>,
) {
    use prognosticator::server::wire;
    match kind {
        WireFaultKind::MalformedFrame => {
            let Ok(mut s) = TcpStream::connect(addr) else { return };
            let req = &workload.gen_batch(rng, 1)[0];
            let valid = wire::encode_request(0, req);
            let bytes = match rng.below(3) {
                0 => {
                    // Oversized length prefix.
                    let mut f = u32::MAX.to_le_bytes().to_vec();
                    f.extend_from_slice(&[0; 4]);
                    f
                }
                1 => {
                    // CRC corruption somewhere in the payload.
                    let mut f = valid.clone();
                    let i = 8 + rng.below((f.len() - 8) as i64) as usize;
                    f[i] ^= 0xA5;
                    f
                }
                // Zero-length frame.
                _ => vec![0u8; 8],
            };
            let _ = s.write_all(&bytes);
            drain_until_close(&s);
        }
        WireFaultKind::TruncatedWrite => {
            let Ok(mut s) = TcpStream::connect(addr) else { return };
            let req = &workload.gen_batch(rng, 1)[0];
            let valid = wire::encode_request(0, req);
            let cut = 1 + rng.below((valid.len() - 1) as i64) as usize;
            let _ = s.write_all(&valid[..cut]);
            let _ = s.shutdown(Shutdown::Write);
            drain_until_close(&s);
        }
        WireFaultKind::ConnectionStorm => {
            // A burst of connects slammed shut, some through the
            // acceptor's cap. Refusals and accepts are both fine; what
            // matters is that every one is reclaimed.
            let burst: Vec<TcpStream> =
                (0..8).filter_map(|_| TcpStream::connect(addr).ok()).collect();
            for s in burst {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        WireFaultKind::StalledReader => {
            let Ok(mut s) = TcpStream::connect(addr) else { return };
            // Trickle part of a frame header and go silent; the frame
            // deadline must evict this connection while the campaign
            // continues.
            let _ = s.write_all(&7u32.to_le_bytes());
            stalled.push(s);
        }
        WireFaultKind::MidRequestDisconnect => {
            let Ok(mut s) = TcpStream::connect(addr) else { return };
            let req = &workload.gen_batch(rng, 1)[0];
            let _ = s.write_all(&wire::encode_request(0, req));
            // Vanish before the response: the engine still owes the
            // request a terminal outcome, accounted as a dropped
            // response.
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Reads a hostile connection until the server closes it (bounded by a
/// read timeout so a buggy server cannot hang the fuzzer).
fn drain_until_close(stream: &TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut s = stream;
    let mut buf = [0u8; 1024];
    while let Ok(n) = s.read(&mut buf) {
        if n == 0 {
            break;
        }
    }
}

/// Runs one wire-fuzz campaign end to end.
///
/// # Errors
/// Returns the first [`WireFuzzViolation`] (with its reproducer
/// artifact) when any oracle fails.
///
/// # Panics
/// Panics if the plan name is unknown or the server fails to bind.
pub fn run_wire_fuzz(config: &WireFuzzConfig) -> Result<WireFuzzReport, Box<WireFuzzViolation>> {
    let horizon = config.rounds as u64;
    let plan = ChaosPlan::by_name(&config.plan, config.seed, horizon)
        .unwrap_or_else(|| panic!("unknown chaos plan: {}", config.plan));
    let workload = TestWorkload::new(WorkloadKind::SmallBank);

    let populate = Arc::new(|store: &prognosticator_storage::EpochStore| {
        TestWorkload::new(WorkloadKind::SmallBank).populate_store(store);
    });
    let pipeline = Pipeline::new(
        Arc::clone(workload.catalog()),
        PipelineConfig {
            batch_window: Duration::from_millis(2),
            batch_cap: config.round_size.max(4),
            scheduler: baselines::mq_mf(2),
            seed: config.seed,
            // Never compact: the determinism leg replays the full
            // committed stream.
            snapshot_interval: None,
            ..PipelineConfig::default()
        },
        1,
        populate,
    )
    .expect("wire-fuzz pipeline boots");
    let server = Server::start(
        pipeline,
        ServerConfig {
            workers: 4,
            max_connections: 16,
            pipeline_depth: 8,
            // Short frame deadline so stalled readers are evicted within
            // the campaign, not after it.
            frame_timeout: Duration::from_millis(100),
            client: ClientConfig {
                seed: config.seed,
                deadline: Duration::from_secs(2),
                ..ClientConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("wire-fuzz server binds");
    let addr = server.addr();

    let mut rng = DeterministicRng::new(config.seed ^ 0x31BE);
    let mut stalled: Vec<TcpStream> = Vec::new();
    let mut faults_injected = 0usize;
    let mut honest_sent = 0usize;
    let (mut committed, mut aborted, mut rejected) = (0usize, 0usize, 0usize);
    let mut honest = WireClient::connect(addr).expect("honest client connects");

    for round in 0..horizon {
        for event in plan.events_at(round) {
            match event {
                ChaosEvent::WireFault { kind, .. } => {
                    faults_injected += 1;
                    apply_wire_fault(addr, kind, &mut rng, &workload, &mut stalled);
                }
                // Overload here means an extra honest burst this round,
                // pressing the wire pipeline-depth limit.
                ChaosEvent::OverloadBurst { .. } => {
                    for req in workload.gen_batch(&mut rng, config.round_size) {
                        if honest.send(&req).is_ok() {
                            honest_sent += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        // The honest round: pipelined sends, then drain every response —
        // one per request, exactly once, no matter what the hostiles did.
        for req in workload.gen_batch(&mut rng, config.round_size) {
            if honest.send(&req).is_ok() {
                honest_sent += 1;
            }
        }
        let outstanding = honest_sent - (committed + aborted + rejected);
        for _ in 0..outstanding {
            match honest.recv(Duration::from_secs(10)) {
                Ok(Some(prognosticator::server::wire::ClientEvent::Response(resp))) => {
                    match resp.outcome {
                        WireOutcome::Committed => committed += 1,
                        WireOutcome::Aborted { .. } => aborted += 1,
                        WireOutcome::Rejected { .. } => rejected += 1,
                    }
                }
                other => {
                    drop(honest);
                    let (pipeline, _) = server.shutdown();
                    let stream =
                        pipeline.as_ref().map(|p| p.live_committed(0)).unwrap_or_default();
                    return Err(violation(
                        config,
                        format!(
                            "honest client lost a response at round {round}: \
                             expected a Response event, got {other:?}"
                        ),
                        &stream,
                        &workload,
                    ));
                }
            }
        }
    }

    // Let the frame deadline finish evicting any still-parked stalled
    // readers, then release their sockets.
    if !stalled.is_empty() {
        std::thread::sleep(Duration::from_millis(300));
        stalled.clear();
    }
    drop(honest);

    let (pipeline, server_report) = server.shutdown();

    // Oracle 1: the server survived.
    let Some(mut pipeline) = pipeline else {
        return Err(violation(
            config,
            "engine thread panicked during the campaign".to_string(),
            &[],
            &workload,
        ));
    };

    let stream = pipeline.live_committed(0);

    // Oracle 2a: no leaked sessions.
    if server_report.active_connections != 0 {
        return Err(violation(
            config,
            format!("{} connections leaked past shutdown", server_report.active_connections),
            &stream,
            &workload,
        ));
    }
    // Oracle 2b: terminal-outcome accounting balances.
    if server_report.requests != server_report.responses + server_report.dropped_responses {
        return Err(violation(
            config,
            format!(
                "accounting imbalance: {} requests != {} responses + {} dropped",
                server_report.requests, server_report.responses, server_report.dropped_responses
            ),
            &stream,
            &workload,
        ));
    }
    // Oracle 2c: the honest client got one response per request (checked
    // incrementally above; this is the final tally).
    if committed + aborted + rejected != honest_sent {
        return Err(violation(
            config,
            format!(
                "honest client sent {honest_sent} requests but saw {} responses",
                committed + aborted + rejected
            ),
            &stream,
            &workload,
        ));
    }

    // Oracle 3: determinism. Replaying the committed stream at every
    // worker count reproduces the live digest.
    if let Err(e) = pipeline.sync() {
        let description = format!("post-campaign sync failed on a quiet cluster: {e}");
        return Err(violation(config, description, &stream, &workload));
    }
    let live = pipeline.digests()[0];
    for &workers in &config.worker_counts {
        let replayed = crate::chaos::replay_digest(&workload, &stream, workers, 1);
        if replayed != live {
            return Err(violation(
                config,
                format!(
                    "replay at {workers} workers diverged: live digest {live:#x}, \
                     replayed {replayed:#x}"
                ),
                &stream,
                &workload,
            ));
        }
    }
    pipeline.shutdown();

    Ok(WireFuzzReport {
        plan: config.plan.clone(),
        seed: config.seed,
        faults_injected,
        honest_sent,
        honest_committed: committed,
        honest_aborted: aborted,
        honest_rejected: rejected,
        server: server_report,
    })
}
