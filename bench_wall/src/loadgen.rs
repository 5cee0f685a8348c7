//! The benchmark's own open-loop generator: one sender thread and one
//! reader thread over at most `nproc` connections. Request `k` is due at
//! `start + k / rate` whatever the server is doing, latency runs from the
//! due time, and how late the generator itself ran is reported, so a
//! number that measures the generator and not the program is visible.

use prognosticator::core::TxRequest;
use prognosticator::server::wire::{self, WireOutcome, WirePayload};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long the reader keeps waiting for answers after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
/// Reader back-off when no connection had bytes: bounds both the
/// timestamp error of a response and the generator's idle CPU.
const READER_IDLE: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Committed,
    Aborted,
    Rejected,
}

/// One request's times, in nanoseconds since the leg's start.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub answer: Option<(u64, Answer)>,
}

pub struct Leg {
    pub rate: u64,
    pub start: Instant,
    /// Wall time of the send phase.
    pub send_secs: f64,
    pub requests: Vec<Timed>,
    /// Requests sent but unanswered when the last request went out.
    pub backlog_at_end: usize,
    /// Responses for an id that already had one, or for an unknown id.
    pub stray_responses: usize,
    /// Error frames or early closes seen by the reader.
    pub conn_errors: Vec<String>,
}

impl Leg {
    pub fn count(&self, what: Answer) -> usize {
        self.requests
            .iter()
            .filter(|r| r.answer.is_some_and(|(_, a)| a == what))
            .count()
    }

    pub fn lost(&self) -> usize {
        self.requests.iter().filter(|r| r.answer.is_none()).count()
    }

    /// Refused or never answered: the requests that failed.
    pub fn failed(&self) -> usize {
        self.count(Answer::Rejected) + self.lost()
    }

    /// Due time to response, for every request that executed.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|r| match r.answer {
                Some((at, Answer::Committed | Answer::Aborted)) => {
                    Some(at.saturating_sub(r.due_ns) as f64 / 1e6)
                }
                _ => None,
            })
            .collect()
    }

    /// Send time minus due time: the generator's own lateness.
    pub fn late_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
            .collect()
    }

    pub fn achieved_rps(&self) -> f64 {
        self.requests.len() as f64 / self.send_secs
    }
}

fn write_fully(mut stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            // The sockets are non-blocking for the reader's sake; a full
            // send buffer means the server is not reading.
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(READER_IDLE),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sends `requests` at `rate` per second over `conns` connections and
/// collects every answer. Correlation ids start at `first_id`.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[TxRequest],
    first_id: u64,
    rate: u64,
    conns: usize,
) -> io::Result<Leg> {
    let n = requests.len();
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(k, req)| wire::encode_request(first_id + k as u64, req))
        .collect();
    let streams: Vec<TcpStream> = (0..conns.max(1))
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    let period_ns = 1_000_000_000u64 / rate;
    let received = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let start = Instant::now();

    let (sent, backlog_at_end, send_secs, read) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<(Vec<u64>, usize, f64)> {
            let mut sent = Vec::with_capacity(n);
            let result = (|| {
                for (k, frame) in frames.iter().enumerate() {
                    let due = start + Duration::from_nanos(k as u64 * period_ns);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    sent.push(start.elapsed().as_nanos() as u64);
                    write_fully(&streams[k % streams.len()], frame)?;
                }
                Ok(())
            })();
            let send_secs = start.elapsed().as_secs_f64();
            let backlog = sent.len().saturating_sub(received.load(Ordering::Acquire));
            sender_done.store(true, Ordering::Release);
            result.map(|()| (sent, backlog, send_secs))
        });

        let reader = scope.spawn(|| {
            let mut answers: Vec<Option<(u64, Answer)>> = vec![None; n];
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
            let mut open = vec![true; streams.len()];
            let (mut answered, mut stray) = (0usize, 0usize);
            let mut errors = Vec::new();
            let mut tmp = [0u8; 16 * 1024];
            let mut drain_until = None;
            while answered < n && open.iter().any(|&o| o) {
                if sender_done.load(Ordering::Acquire) {
                    let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                    if Instant::now() >= until {
                        break;
                    }
                }
                let mut idle = true;
                for (c, mut stream) in streams.iter().enumerate() {
                    if !open[c] {
                        continue;
                    }
                    match stream.read(&mut tmp) {
                        Ok(0) => {
                            open[c] = false;
                            errors.push(format!("connection {c} closed by the server"));
                        }
                        Ok(len) => {
                            idle = false;
                            let at = start.elapsed().as_nanos() as u64;
                            bufs[c].extend_from_slice(&tmp[..len]);
                            loop {
                                let payload = match wire::try_extract_frame(
                                    &mut bufs[c],
                                    wire::DEFAULT_MAX_FRAME,
                                ) {
                                    Ok(Some(p)) => p,
                                    Ok(None) => break,
                                    Err(e) => {
                                        open[c] = false;
                                        errors.push(format!("connection {c}: {e}"));
                                        break;
                                    }
                                };
                                match wire::decode_payload(&payload) {
                                    Ok(WirePayload::Response(resp)) => {
                                        let answer = match resp.outcome {
                                            WireOutcome::Committed => Answer::Committed,
                                            WireOutcome::Aborted { .. } => Answer::Aborted,
                                            WireOutcome::Rejected { .. } => Answer::Rejected,
                                        };
                                        let slot = resp
                                            .req_id
                                            .checked_sub(first_id)
                                            .and_then(|i| answers.get_mut(i as usize));
                                        match slot {
                                            Some(slot @ None) => {
                                                *slot = Some((at, answer));
                                                answered += 1;
                                                received.store(answered, Ordering::Release);
                                            }
                                            _ => stray += 1,
                                        }
                                    }
                                    Ok(WirePayload::Error { reason }) => {
                                        errors.push(format!(
                                            "connection {c}: server error: {reason}"
                                        ));
                                    }
                                    Ok(WirePayload::Request { .. }) => {
                                        errors
                                            .push(format!("connection {c}: server sent a request"));
                                    }
                                    Err(e) => errors.push(format!("connection {c}: {e}")),
                                }
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock | ErrorKind::Interrupted
                            ) => {}
                        Err(e) => {
                            open[c] = false;
                            errors.push(format!("connection {c}: {e}"));
                        }
                    }
                }
                if idle {
                    std::thread::sleep(READER_IDLE);
                }
            }
            (answers, stray, errors)
        });

        let sent = sender.join().expect("sender thread does not panic");
        let read = reader.join().expect("reader thread does not panic");
        sent.map(|(sent, backlog, secs)| (sent, backlog, secs, read))
    })?;

    let (answers, stray_responses, conn_errors) = read;
    let requests = (0..n)
        .map(|k| Timed {
            due_ns: k as u64 * period_ns,
            // A request the sender never reached counts as sent at its due time and lost.
            sent_ns: sent.get(k).copied().unwrap_or(k as u64 * period_ns),
            answer: answers[k],
        })
        .collect();
    Ok(Leg {
        rate,
        start,
        send_secs,
        requests,
        backlog_at_end,
        stray_responses,
        conn_errors,
    })
}
