//! The served workload: open-loop traffic over loopback TCP to an
//! in-process `Server`, leg A at 1 600 and leg B at 2 400 requests per
//! second. Independent users make an open loop.

use crate::inputs::Inputs;
use crate::loadgen::{self, Answer, Leg};
use crate::metrics::{percentile, sorted};
use crate::proc::{self, TempDir};
use crate::{replicated, Opts, Report};
use prognosticator::core::TxRequest;
use prognosticator::server::wire::WireOutcome;
use prognosticator::{Server, ServerConfig, ServerReport, WireClient};
use std::time::{Duration, Instant};

pub const RATE_A: u64 = 1600;
pub const RATE_B: u64 = 2400;
/// The fixed rates tried in ascending order by the traced run.
pub const LADDER: &[u64] = &[1600, 3200, 4800, 6400];
/// The latency limit a rate must meet to count as sustained.
pub const LIMIT_P95_MS: f64 = 50.0;
pub const LIMIT_FAILED_SHARE: f64 = 0.001;
const WARMUP_CALLS: usize = 16;
const CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// The generator uses at most `nproc` connections, from this one process.
pub fn connections() -> usize {
    proc::nproc().clamp(1, 2)
}

/// A booted server and what its clients have seen commit so far.
pub struct Stack {
    server: Server,
    _wal: TempDir,
    next_id: u64,
    pub client_committed: usize,
    pub client_answered: usize,
}

impl Stack {
    /// 3 Raft nodes with WAL, 1 replica, 10 ms window, cap = the
    /// workload's batch; 2 handler workers; `pipeline_depth` 256 because
    /// two connections stand in for a population of users. All else
    /// default.
    pub fn boot(inputs: &Inputs) -> Stack {
        let wal = TempDir::new("served-wal");
        let pipeline = replicated::boot(inputs, 3, 1, Some(&wal.0));
        let config = ServerConfig {
            workers: 2,
            pipeline_depth: 256,
            ..ServerConfig::default()
        };
        let server = Server::start(pipeline, config).expect("server binds a loopback port");
        Stack {
            server,
            _wal: wal,
            next_id: 0,
            client_committed: 0,
            client_answered: 0,
        }
    }

    /// Closed loop with one request in flight: the floor of wire + poll +
    /// window + consensus + execute. Returns each round trip in ms.
    pub fn calls(&mut self, requests: Vec<TxRequest>) -> Vec<f64> {
        let mut client = WireClient::connect(self.server.addr()).expect("loopback connect");
        let mut rtt = Vec::with_capacity(requests.len());
        for req in &requests {
            let t = Instant::now();
            let resp = client
                .call(req, CALL_TIMEOUT)
                .expect("idle server answers a single request");
            rtt.push(t.elapsed().as_secs_f64() * 1e3);
            self.client_answered += 1;
            if resp.outcome == WireOutcome::Committed {
                self.client_committed += 1;
            }
        }
        rtt
    }

    pub fn leg(&mut self, requests: &[TxRequest], rate: u64) -> Leg {
        let leg = loadgen::open_loop(
            self.server.addr(),
            requests,
            self.next_id,
            rate,
            connections(),
        )
        .expect("open-loop leg runs to the end");
        self.next_id += requests.len() as u64;
        self.client_committed += leg.count(Answer::Committed);
        self.client_answered += leg.requests.len() - leg.lost();
        leg
    }

    /// Drains the server and checks its books against the clients'.
    pub fn shutdown(self, report: &mut Report) -> ServerReport {
        let (client_committed, client_answered) = (self.client_committed, self.client_answered);
        let (pipeline, books) = self.server.shutdown();
        report.check(
            !books.engine_panicked && books.active_connections == 0,
            || format!("server did not drain cleanly: {books:?}"),
        );
        report.check(
            books.requests == books.responses + books.dropped_responses,
            || format!("server books do not balance: {books:?}"),
        );
        // Depth and drain refusals are written by the connection handler
        // and counted under `wire_rejects`, not `responses`.
        let answered = client_answered as u64;
        report.check(
            books.responses <= answered && answered <= books.responses + books.wire_rejects,
            || {
                format!(
                    "server delivered {} responses, clients saw {answered}: {books:?}",
                    books.responses
                )
            },
        );
        if let Some(mut pipeline) = pipeline {
            let (committed, _) = replicated::journal_counts(&pipeline);
            report.check(committed == client_committed, || {
                format!("server side committed {committed}, client side {client_committed}")
            });
            pipeline.shutdown();
        }
        books
    }
}

/// Whether a leg met the limit: p95 within 50 ms with every refused or
/// lost request counted as missing it, at most 0.1 % refused or lost,
/// and no backlog beyond what the limit itself allows in flight.
pub fn meets_limit(leg: &Leg) -> Result<(), String> {
    let n = leg.requests.len();
    let failed = leg.failed();
    let mut lat = leg.latency_ms();
    lat.resize(n, f64::INFINITY);
    let p95 = percentile(&sorted(lat), 0.95);
    let allowed_backlog = (leg.rate as f64 * LIMIT_P95_MS / 1e3) as usize;
    if p95 > LIMIT_P95_MS {
        Err(format!("p95 {p95:.1} ms over the {LIMIT_P95_MS} ms limit"))
    } else if failed as f64 > n as f64 * LIMIT_FAILED_SHARE {
        Err(format!("{failed} of {n} refused or lost"))
    } else if leg.backlog_at_end > allowed_backlog {
        Err(format!(
            "{} unanswered at the end of the send phase (allowed {allowed_backlog})",
            leg.backlog_at_end
        ))
    } else {
        Ok(())
    }
}

/// Exactly-once at the wire: every request sent was answered once.
pub fn check_leg(leg: &Leg, report: &mut Report) {
    let rate = leg.rate;
    report.check(leg.lost() == 0, || {
        format!("{rate} rps: {} requests never answered", leg.lost())
    });
    report.check(leg.stray_responses == 0, || {
        format!(
            "{rate} rps: {} duplicate or unknown responses",
            leg.stray_responses
        )
    });
    report.check(leg.conn_errors.is_empty(), || {
        format!("{rate} rps: {:?}", leg.conn_errors)
    });
}

pub fn requests(inputs: &mut Inputs, count: usize) -> Vec<TxRequest> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        out.extend(inputs.gen_batch(inputs.spec.batch));
    }
    out.truncate(count);
    out
}

fn setup_once(opts: &Opts) -> (f64, Inputs, Stack) {
    let started = Instant::now();
    let mut inputs = Inputs::build(opts.spec, opts.seed);
    let mut stack = Stack::boot(&inputs);
    let warm = requests(&mut inputs, WARMUP_CALLS);
    stack.calls(warm);
    (started.elapsed().as_secs_f64(), inputs, stack)
}

/// The untraced run: every end-to-end metric of the served workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let mut setups = Vec::new();
    let mut kept: Option<(Inputs, Stack)> = None;
    for _ in 0..opts.setups() {
        if let Some((_, stack)) = kept.take() {
            stack.shutdown(report);
        }
        let (secs, inputs, stack) = setup_once(opts);
        setups.push(secs);
        kept = Some((inputs, stack));
    }
    let (mut inputs, mut stack) = kept.expect("at least one set-up");
    let leg_secs = if opts.quick { 0.5 } else { opts.seconds / 2.0 };
    report.note(format!(
        "open loop over loopback TCP, {} connections, request k due at start + k/rate, latency from the \
         due time; {leg_secs:.1} s per rate; limit p95 <= {LIMIT_P95_MS} ms, <= 0.1 % refused or lost",
        connections()
    ));

    let mut legs = Vec::new();
    for rate in [RATE_A, RATE_B] {
        let batch = requests(&mut inputs, (rate as f64 * leg_secs) as usize);
        legs.push(stack.leg(&batch, rate));
    }
    let books = stack.shutdown(report);

    for leg in &legs {
        check_leg(leg, report);
        report.attempted += leg.requests.len() as u64;
        report.failed += leg.failed() as u64;
        let late = sorted(leg.late_ms());
        report.note(format!(
            "{} rps: achieved {:.1} rps, generator lateness p99 {:.3} ms, backlog at end of send {}, limit {}",
            leg.rate,
            leg.achieved_rps(),
            percentile(&late, 0.99),
            leg.backlog_at_end,
            meets_limit(leg).map_or_else(|why| format!("MISSED ({why})"), |()| "met".into()),
        ));
    }
    report.note(format!("server books: {books:?}"));
    let tps = |leg: &Leg| leg.count(Answer::Committed) as f64 / leg.send_secs;
    report.put("setup_s", crate::metrics::median(&setups));
    report.put("tps", tps(&legs[0]));
    report.put("tps_b", tps(&legs[1]));
    let quarters = |leg: &Leg| crate::metrics::quarters(&leg.latency_ms(), replicated::QUARTERS);
    let lat_a = report.latency("due time -> response, leg A", &quarters(&legs[0]));
    let lat_b = report.latency("due time -> response, leg B", &quarters(&legs[1]));
    report.put_leg_latencies(lat_a, lat_b);
    report.put("rss_mb", proc::vm_hwm_mb());
}
