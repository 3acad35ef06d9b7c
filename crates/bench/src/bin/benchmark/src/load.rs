//! The load generator: one thread and one keep-alive connection per lane,
//! at most two lanes, paced closed or open loop.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::prom::cpu_ticks;
use crate::workload::{Checker, Hits, Template};

/// How a lane sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// The next request leaves when the previous answer is in.
    Closed,
    /// Requests fall due every `1 / rate` seconds from `offset` on, whether
    /// or not the server keeps up.
    Open { rate: f64, offset: f64 },
}

/// One connection's request stream: templates `next, next + step, …`,
/// wrapping around.
pub struct Lane<'a> {
    pub templates: &'a [Template],
    pub next: usize,
    pub step: usize,
    pub pace: Pace,
    pub checker: Checker<'a>,
}

/// What one lane saw in one phase.
#[derive(Debug, Default)]
pub struct LaneResult {
    pub attempted: u64,
    /// Transport failures, non-2xx answers and violated checks.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per good response: nanoseconds from when the request was due (open
    /// loop) or sent (closed loop) to its last byte.
    pub latency_ns: Vec<u64>,
    /// Open loop: how late each request left, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Offset from the phase start at which each good response completed.
    pub done_at_ns: Vec<u64>,
    pub hits: Hits,
}

/// Errors kept per lane; the count is always complete.
const MAX_ERRORS: usize = 5;

/// An open-loop lane still sending this long after its phase ended gives
/// up, so an overloaded server cannot stretch a run without bound.
const MAX_OVERRUN: Duration = Duration::from_secs(10);

impl LaneResult {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }
}

/// One phase: what each lane saw, and the server CPU time it took.
pub struct Phase {
    pub secs: f64,
    pub lanes: Vec<LaneResult>,
    /// Server CPU ticks (user + system) used between the phase's start
    /// and the moment its last response was in.
    pub cpu_ticks: u64,
}

/// Run every lane for `secs` seconds on its own thread and connection,
/// charging the CPU time process `pid` used meanwhile to the phase.
pub fn run_phase(
    addr: SocketAddr,
    lanes: &mut [Lane<'_>],
    secs: f64,
    pid: u32,
) -> Result<Phase, String> {
    let ticks0 = cpu_ticks(pid)?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let lanes = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| s.spawn(move || drive(addr, lane, start, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Ok(Phase {
        secs,
        lanes,
        cpu_ticks: cpu_ticks(pid)? - ticks0,
    })
}

fn drive(addr: SocketAddr, lane: &mut Lane<'_>, start: Instant, end: Instant) -> LaneResult {
    let mut out = LaneResult::default();
    let mut conn = None;
    for k in 0u64.. {
        let due = match lane.pace {
            Pace::Closed => Instant::now(),
            Pace::Open { rate, offset } => {
                start + Duration::from_secs_f64(offset + k as f64 / rate)
            }
        };
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now > end + MAX_OVERRUN {
            out.fail(format!(
                "fell {MAX_OVERRUN:?} behind the open-loop schedule"
            ));
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if matches!(lane.pace, Pace::Open { .. }) {
            out.late_ns.push(nanos(sent - due));
        }
        let idx = lane.next;
        lane.next = (lane.next + lane.step) % lane.templates.len();
        let tpl = &lane.templates[idx];
        out.attempted += 1;
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        match c.send(&tpl.raw) {
            Err(e) => {
                out.fail(e);
                conn = None;
            }
            Ok((status, body)) if !(200..300).contains(&status) => {
                out.fail(format!(
                    "HTTP {status} for request {idx}: {}",
                    String::from_utf8_lossy(body)
                ));
            }
            Ok((_, body)) => {
                let done = Instant::now();
                match lane.checker.check(idx, tpl, body) {
                    Ok(hits) => {
                        out.hits += hits;
                        out.latency_ns.push(nanos(done - due));
                        out.done_at_ns.push(nanos(done - start));
                    }
                    Err(e) => out.fail(e),
                }
            }
        }
    }
    out
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Completions per second in each of `windows` equal slices of a `secs`
/// phase, counting responses that completed inside the phase.
pub fn window_rates(done_at_ns: &[u64], secs: f64, windows: usize) -> Vec<f64> {
    let width = secs / windows as f64;
    let mut counts = vec![0u64; windows];
    for &t in done_at_ns {
        let w = (t as f64 / 1e9 / width) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{make_inputs, spec, Kind};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-connection stub server that answers the i-th request after
    /// `delay(i)`.
    fn stub(delay: fn(usize) -> Duration, body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 65536];
            for i in 0.. {
                // each request is a head plus a Content-Length body
                let end = loop {
                    if let Some(h) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..h]).to_lowercase();
                        let len: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("content-length:"))
                            .map_or(0, |v| v.trim().parse().unwrap());
                        if buf.len() >= h + 4 + len {
                            break h + 4 + len;
                        }
                    }
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                };
                buf.drain(..end);
                std::thread::sleep(delay(i));
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                if s.write_all(resp.as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_queued_behind_it() {
        use qatk_corpus::generator::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::small(5));
        let inputs = make_inputs(spec("learn_durable").unwrap(), &corpus, 1);
        // request 0 stalls 300 ms; requests fall due every 50 ms
        let addr = stub(
            |i| Duration::from_millis(if i == 0 { 300 } else { 0 }),
            "{\"epoch\":1,\"enqueued\":1}",
        );
        let mut lanes = [Lane {
            templates: &inputs.learns,
            next: 0,
            step: 1,
            pace: Pace::Open {
                rate: 20.0,
                offset: 0.0,
            },
            checker: Checker::new(&corpus, Kind::Learn, false),
        }];
        // every stub answer carries epoch 1, so later acks fail the
        // rise-by-one check; only the latencies of the first matter here
        let r = run_phase(addr, &mut lanes, 0.5, std::process::id())
            .unwrap()
            .lanes
            .pop()
            .unwrap();
        assert_eq!(r.attempted, 10);
        assert!(r.latency_ns[0] >= 300_000_000);
        // the 2nd request was due at 50 ms but left after the stall: its
        // lateness and its latency both count the wait
        assert!(r.late_ns[1] >= 240_000_000, "late {:?}", r.late_ns);
        assert_eq!(r.failed, 9, "nine acks repeated epoch 1");
    }

    #[test]
    fn closed_loop_latency_is_service_time() {
        use qatk_corpus::generator::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::small(5));
        let inputs = make_inputs(spec("learn_durable").unwrap(), &corpus, 1);
        let addr = stub(
            |_| Duration::from_millis(20),
            "{\"epoch\":1,\"enqueued\":1}",
        );
        let mut lanes = [Lane {
            templates: &inputs.learns,
            next: 0,
            step: 1,
            pace: Pace::Closed,
            checker: Checker::new(&corpus, Kind::Learn, false),
        }];
        let r = run_phase(addr, &mut lanes, 0.2, std::process::id())
            .unwrap()
            .lanes
            .pop()
            .unwrap();
        assert!(r.attempted >= 5 && r.attempted <= 11, "{}", r.attempted);
        assert!(r.late_ns.is_empty());
        assert!(r.latency_ns[0] >= 20_000_000 && r.latency_ns[0] < 60_000_000);
        assert_eq!(
            window_rates(&[1, 2, 500_000_000, 900_000_000], 1.0, 2),
            [4.0, 4.0]
        );
    }
}
