//! The two socket phases, over real loopback TCP through `net::Client`
//! and `net::NetServer`.
//!
//! `socket-bulk` streams large `EstimateMany` frames with a bounded
//! window: per-byte work (encode, decode, copies) beside the kernel.
//! `socket-point` uses the same layers the other way — 8-pair requests —
//! first pipelined and direct (framing, syscalls, lease, thread
//! hand-off), then one at a time from two connections through the
//! server's admission `Batcher`, the only place admission wait shows.
//! The traced run adds closed-loop single round trips and an open-loop
//! sweep timed from each request's *intended* send time.

use crate::inputs::POINT_PAIRS;
use crate::pipeline::Env;
use crate::report::Report;
use crate::stats::tail;
use crate::trace::Tracer;
use net::Client;
use serve::Batcher;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `EstimateMany` frames kept in flight on the bulk connection: deep
/// enough that the server never idles, shallow enough that neither
/// direction overruns the socket buffers.
const BULK_WINDOW: usize = 4;

/// Point requests kept in flight in the direct phase.
const POINT_WINDOW: usize = 32;

/// Connections (= load-generating threads) in the admitted phase.
const ADMIT_CONNECTIONS: usize = 2;

fn connect(addr: SocketAddr, report: &mut Report) -> Option<Client> {
    let client = Client::connect(addr);
    report.check(client.is_ok(), 1, || {
        format!("connect {addr}: {:?}", client.as_ref().err())
    });
    client.ok()
}

/// Receives the oldest outstanding `EstimateMany` reply inside a span.
fn recv_reply(
    client: &mut Client,
    tr: &mut Tracer,
    span: &'static str,
    answers: &mut Vec<u64>,
    errors: &mut Vec<String>,
) {
    match tr.span(span, "", 0, |_| client.recv_estimate_many()).0 {
        Ok((ests, _)) => answers.extend_from_slice(&ests),
        Err(e) => errors.push(e.to_string()),
    }
}

/// One bulk round: a fresh connection, then every served oracle's pair
/// list as `frame`-pair requests. Returns the round's wall-clock seconds.
pub fn bulk_round(env: &Env, report: &mut Report, tr: &mut Tracer, r: u32) -> f64 {
    let t = Instant::now();
    let Some(mut client) = connect(env.bulk.local_addr(), report) else {
        return t.elapsed().as_secs_f64();
    };
    let frame = env.inputs.scale.frame;
    let (mut total_pairs, mut total_ns) = (0u64, 0u64);
    for served in &env.fleet.served {
        let name = served.member.name;
        let pairs = served.member.pairs(&env.inputs);
        let mut answers: Vec<u64> = Vec::with_capacity(pairs.len());
        let mut errors = Vec::new();
        let ((), ns) = tr.span("net.bulk_sweep", name, u64::from(r), |tr| {
            for (i, shard) in pairs.chunks(frame).enumerate() {
                let queued = tr
                    .span("net.client_queue", "", i as u64, |_| {
                        client.queue_estimate_many(name, shard, false)
                    })
                    .0;
                if let Err(e) = queued {
                    errors.push(e.to_string());
                    return;
                }
                if client.pending() > BULK_WINDOW {
                    recv_reply(
                        &mut client,
                        tr,
                        "net.client_recv",
                        &mut answers,
                        &mut errors,
                    );
                }
            }
            while client.pending() > 0 && errors.is_empty() {
                recv_reply(
                    &mut client,
                    tr,
                    "net.client_recv",
                    &mut answers,
                    &mut errors,
                );
            }
        });
        let ops = pairs.len() as u64;
        report.check(errors.is_empty() && answers == served.expected, ops, || {
            format!("{name}: bulk socket answers differ or failed: {errors:?}")
        });
        report.push(
            format!("net.bulk_qps.{name}"),
            ops as f64 / (ns as f64 / 1e9),
        );
        total_pairs += ops;
        total_ns += ns;
        if !errors.is_empty() {
            break;
        }
    }
    report.push(
        "socket_qps",
        total_pairs as f64 / (total_ns.max(1) as f64 / 1e9),
    );
    t.elapsed().as_secs_f64()
}

/// The 8-pair chunk request `j` of a stream asks, rotating through the
/// served set: `(member index, pair range)`.
fn point_chunk(j: usize, members: usize, first_chunk: usize) -> (usize, std::ops::Range<usize>) {
    let start = (first_chunk + j / members) * POINT_PAIRS;
    (j % members, start..start + POINT_PAIRS)
}

/// One point round: the direct phase on one connection, then the
/// admitted phase on two. Returns the round's wall-clock seconds.
pub fn point_round(env: &Env, report: &mut Report, tr: &mut Tracer, r: u32) -> f64 {
    let t = Instant::now();
    tr.span("net.point_direct", "", u64::from(r), |tr| {
        direct_phase(env, report, tr)
    });
    tr.span("net.point_admitted", "", u64::from(r), |tr| {
        admitted_phase(env, report, tr)
    });
    t.elapsed().as_secs_f64()
}

/// Phase A: one connection, a window of requests in flight, `batched =
/// false` — per-request framing, syscalls, lease and thread hand-off;
/// the kernel does next to nothing.
fn direct_phase(env: &Env, report: &mut Report, tr: &mut Tracer) {
    let Some(mut client) = connect(env.point.local_addr(), report) else {
        return;
    };
    let served = &env.fleet.served;
    let requests = served.len() * env.inputs.scale.point_requests;
    let mut answers: Vec<Vec<u64>> = vec![Vec::new(); served.len()];
    let mut errors = Vec::new();
    let mut received = 0usize;
    let start = Instant::now();
    for j in 0..requests {
        let (member, range) = point_chunk(j, served.len(), 0);
        let s = &served[member];
        let chunk = &s.member.pairs(&env.inputs)[range];
        let queued = tr
            .span("net.point_queue", "", j as u64, |_| {
                client.queue_estimate_many(s.member.name, chunk, false)
            })
            .0;
        if let Err(e) = queued {
            errors.push(e.to_string());
            break;
        }
        if client.pending() >= POINT_WINDOW {
            let into = &mut answers[received % served.len()];
            recv_reply(&mut client, tr, "net.point_recv", into, &mut errors);
            received += 1;
        }
    }
    while client.pending() > 0 && errors.is_empty() {
        let into = &mut answers[received % served.len()];
        recv_reply(&mut client, tr, "net.point_recv", into, &mut errors);
        received += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_member = env.inputs.scale.point_requests * POINT_PAIRS;
    let same = served
        .iter()
        .zip(&answers)
        .all(|(s, got)| got[..] == s.expected[..per_member]);
    report.check(errors.is_empty() && same, requests as u64, || {
        format!("direct point answers differ or failed: {errors:?}")
    });
    report.push("point_rps", requests as f64 / elapsed);
}

/// Phase B: two connections, one request outstanding each, `batched =
/// true`, so every request crosses the server's admission window.
fn admitted_phase(env: &Env, report: &mut Report, tr: &mut Tracer) {
    let served = &env.fleet.served;
    let per_conn = served.len() * env.inputs.scale.admit_requests;
    let addr = env.admit.local_addr();
    let barrier = Barrier::new(ADMIT_CONNECTIONS);
    let started = Instant::now();
    let workers: Vec<(Tracer, Vec<f64>, Vec<String>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ADMIT_CONNECTIONS)
            .map(|c| {
                let mut tr = tr.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rtts_us = Vec::with_capacity(per_conn);
                    let mut errors = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => Some(client),
                        Err(e) => {
                            errors.push(e.to_string());
                            None
                        }
                    };
                    barrier.wait();
                    let begun = started.elapsed().as_secs_f64();
                    if let Some(client) = client.as_mut() {
                        // Each connection asks its own stretch of chunks.
                        let first_chunk = c * env.inputs.scale.admit_requests;
                        for j in 0..per_conn {
                            let (member, range) = point_chunk(j, served.len(), first_chunk);
                            let s = &served[member];
                            let chunk = &s.member.pairs(&env.inputs)[range.clone()];
                            let (reply, ns) = tr.span("net.admit_request", "", j as u64, |_| {
                                client.estimate_many(s.member.name, chunk, true)
                            });
                            match reply {
                                Ok((ests, _)) if ests[..] == s.expected[range] => {}
                                Ok(_) => errors.push(format!("{}: wrong answer", s.member.name)),
                                Err(e) => {
                                    errors.push(e.to_string());
                                    break;
                                }
                            }
                            rtts_us.push(ns as f64 / 1e3);
                        }
                    }
                    (tr, rtts_us, errors, begun)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("admitted-phase worker"))
            .collect()
    });
    let finished = started.elapsed().as_secs_f64();
    let begun = workers.iter().map(|w| w.3).fold(f64::MAX, f64::min);
    let total = ADMIT_CONNECTIONS * per_conn;
    let mut errors = Vec::new();
    for (worker, rtts_us, worker_errors, _) in workers {
        tr.absorb(worker);
        report.extend("_admit_rtt_us", rtts_us);
        errors.extend(worker_errors);
    }
    report.check(errors.is_empty(), total as u64, || {
        format!("admitted point requests failed: {errors:?}")
    });
    report.push("admit_rps", total as f64 / (finished - begun));
}

/// Closed-loop single `Client::estimate` round trips (traced run).
pub fn single_rtts(env: &Env, report: &mut Report, tr: &mut Tracer) {
    let Some(mut client) = connect(env.point.local_addr(), report) else {
        return;
    };
    let served = &env.fleet.served;
    let count = env.inputs.scale.single_rtts;
    let mut rtts_us = Vec::with_capacity(count);
    let mut wrong = 0u64;
    for j in 0..count {
        let s = &served[j % served.len()];
        let i = j / served.len();
        let (u, v) = s.member.pairs(&env.inputs)[i];
        let (est, ns) = tr.span("net.single_estimate", s.member.name, j as u64, |_| {
            client.estimate(s.member.name, u, v)
        });
        wrong += u64::from(est.ok() != Some(s.expected[i]));
        rtts_us.push(ns as f64 / 1e3);
    }
    report.check(wrong == 0, count as u64, || {
        format!("{wrong} single estimates differ or failed")
    });
    push_percentiles(
        report,
        ["net.single_rtt_p50_us", "net.single_rtt_p99_us"],
        &rtts_us,
    );
}

/// Pushes the median and the p99 of `values_us` under the two names (the
/// p99 stepped down to the highest percentile the sample count supports).
pub fn push_percentiles<S: Into<String>>(report: &mut Report, names: [S; 2], values_us: &[f64]) {
    if let (Some((_, p50)), Some((_, p99))) = (tail(values_us, 0.5), tail(values_us, 0.99)) {
        let [p50_name, p99_name] = names;
        report.push(p50_name, p50);
        report.push(p99_name, p99);
    }
}

/// An open-loop arrival schedule, fixed in advance: request `i` is due
/// `i / rate` seconds after the start, whatever happened to the ones
/// before it.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Requests in the schedule.
    pub count: usize,
}

/// What one open-loop run observed.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopOutcome {
    /// Per request: reply time minus *intended* send time, µs — so a
    /// stall is charged to every request it delayed.
    pub latencies_us: Vec<f64>,
    /// Per request: actual send time minus intended send time, µs.
    pub lateness_us: Vec<f64>,
}

impl OpenLoop {
    /// When request `i` is due, as an offset from the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_nanos((i as u128 * 1_000_000_000 / u128::from(self.rate)) as u64)
    }

    /// Drives the schedule on one connection-like object: `send(i)` is
    /// called no earlier than `due(i)`, `recv()` collects the oldest
    /// outstanding reply, `now()` reads the clock, `wait(d)` idles until
    /// the next arrival. Sends never wait for replies beyond the one
    /// blocking `recv` in progress; how late that made them is reported.
    pub fn drive(
        &self,
        mut now: impl FnMut() -> Duration,
        mut wait: impl FnMut(Duration),
        mut send: impl FnMut(usize) -> bool,
        mut recv: impl FnMut() -> bool,
    ) -> OpenLoopOutcome {
        let mut outcome = OpenLoopOutcome::default();
        let (mut sent, mut received) = (0usize, 0usize);
        while received < self.count {
            let mut at = now();
            while sent < self.count && self.due(sent) <= at {
                if !send(sent) {
                    return outcome;
                }
                outcome
                    .lateness_us
                    .push((at - self.due(sent)).as_secs_f64() * 1e6);
                sent += 1;
                at = now();
            }
            if received < sent {
                if !recv() {
                    return outcome;
                }
                let done = now();
                outcome
                    .latencies_us
                    .push((done - self.due(received)).as_secs_f64() * 1e6);
                received += 1;
            } else if sent < self.count {
                wait(self.due(sent) - at);
            }
        }
        outcome
    }
}

/// The open-loop sweep (traced run): 8-pair direct requests on one
/// connection at each of the fixed offered rates.
pub fn open_loop_sweep(env: &Env, report: &mut Report, tr: &mut Tracer) {
    for (label, rate) in crate::spec::OPEN_RATES {
        let Some(mut client) = connect(env.point.local_addr(), report) else {
            return;
        };
        let served = &env.fleet.served;
        let schedule = OpenLoop {
            rate,
            count: (rate as f64 * env.inputs.scale.open_seconds) as usize,
        };
        let start = Instant::now();
        // Both callbacks use the one connection; the schedule never calls
        // them at the same time.
        let client = std::cell::RefCell::new(&mut client);
        let ((outcome, wrong), _) = tr.span("net.open_loop", label, rate, |_| {
            let mut wrong = 0usize;
            let mut replies = 0usize;
            let outcome = schedule.drive(
                || start.elapsed(),
                |d| {
                    // Sleep most of a long gap, spin the rest: sleeping
                    // overshoots by tens of microseconds.
                    if d > Duration::from_micros(200) {
                        std::thread::sleep(d - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                },
                |i| {
                    let (member, range) = point_chunk(i, served.len(), 0);
                    let s = &served[member];
                    let chunk = &s.member.pairs(&env.inputs)[range];
                    client
                        .borrow_mut()
                        .queue_estimate_many(s.member.name, chunk, false)
                        .is_ok()
                },
                || {
                    let (member, range) = point_chunk(replies, served.len(), 0);
                    replies += 1;
                    match client.borrow_mut().recv_estimate_many() {
                        Ok((ests, _)) => {
                            wrong += usize::from(ests[..] != served[member].expected[range]);
                            true
                        }
                        Err(_) => false,
                    }
                },
            );
            (outcome, wrong)
        });
        let complete = outcome.latencies_us.len() == schedule.count && wrong == 0;
        report.check(complete, schedule.count as u64, || {
            format!(
                "open loop {label}: {} of {} replies, {wrong} wrong",
                outcome.latencies_us.len(),
                schedule.count
            )
        });
        push_percentiles(
            report,
            [
                format!("net.open_p50_us.{label}"),
                format!("net.open_p99_us.{label}"),
            ],
            &outcome.latencies_us,
        );
        let late_max = outcome.lateness_us.iter().copied().fold(0.0, f64::max);
        report.push(format!("net.open_late_max_us.{label}"), late_max);
    }
}

/// In-process `Batcher::submit` from a single submitter (traced run):
/// what one trip through the admission window costs on top of the window
/// itself.
pub fn batcher_overhead(env: &Env, report: &mut Report, tr: &mut Tracer) {
    let window = Duration::from_micros(250);
    let served = &env.fleet.served;
    let count = served.len() * env.inputs.scale.admit_requests;
    let batchers: Vec<Batcher> = served
        .iter()
        .map(|s| Batcher::new(s.member.name, window, 1))
        .collect();
    let mut wrong = 0u64;
    for j in 0..count {
        let (member, range) = point_chunk(j, served.len(), 0);
        let s = &served[member];
        let chunk = s.member.pairs(&env.inputs)[range.clone()].to_vec();
        let (reply, ns) = tr.span("serve.batcher_submit", s.member.name, j as u64, |_| {
            batchers[member].submit(&env.registry, chunk)
        });
        wrong += u64::from(!matches!(reply, Ok((ests, _)) if ests[..] == s.expected[range]));
        report.push(
            "serve.batcher_submit_overhead_ns",
            ns as f64 - window.as_nanos() as f64,
        );
    }
    report.check(wrong == 0, count as u64, || {
        format!("{wrong} in-process batcher submissions differ or failed")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A fake clock the schedule is driven against: `wait` and the two
    /// callbacks advance it.
    fn drive_with(
        schedule: OpenLoop,
        send_cost_us: u64,
        recv_cost_us: u64,
    ) -> (OpenLoopOutcome, Vec<(usize, Duration)>) {
        let clock = Cell::new(Duration::ZERO);
        let sends = std::cell::RefCell::new(Vec::new());
        let outcome = schedule.drive(
            || clock.get(),
            |d| clock.set(clock.get() + d),
            |i| {
                sends.borrow_mut().push((i, clock.get()));
                clock.set(clock.get() + Duration::from_micros(send_cost_us));
                true
            },
            || {
                clock.set(clock.get() + Duration::from_micros(recv_cost_us));
                true
            },
        );
        (outcome, sends.into_inner())
    }

    #[test]
    fn never_sends_early_and_answers_everything() {
        let schedule = OpenLoop {
            rate: 10_000,
            count: 50,
        };
        let (outcome, sends) = drive_with(schedule, 1, 20);
        assert_eq!(sends.len(), 50);
        assert_eq!(outcome.latencies_us.len(), 50);
        for &(i, at) in &sends {
            assert!(at >= schedule.due(i), "request {i} sent early at {at:?}");
        }
        // The server keeps up (21 µs per request against a 100 µs gap):
        // nothing is late, latency is one send + one receive.
        assert!(outcome.lateness_us.iter().all(|&l| l == 0.0));
        assert!(outcome
            .latencies_us
            .iter()
            .all(|&l| (l - 21.0).abs() < 1e-6));
    }

    #[test]
    fn a_slow_reply_is_charged_to_the_requests_it_delays() {
        // 100 µs gap, replies take 250 µs: the generator falls behind,
        // says so, and latency grows from the intended send time.
        let schedule = OpenLoop {
            rate: 10_000,
            count: 20,
        };
        let (outcome, sends) = drive_with(schedule, 0, 250);
        for &(i, at) in &sends {
            assert!(at >= schedule.due(i));
        }
        let late_max = outcome.lateness_us.iter().copied().fold(0.0, f64::max);
        assert!(late_max >= 150.0, "lateness {late_max} not reported");
        let last = outcome.latencies_us.last().copied().unwrap();
        assert!(last > 250.0 * 10.0, "backlog not charged: {last}");
        assert!(outcome.latencies_us.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn a_failed_send_stops_the_run() {
        let schedule = OpenLoop {
            rate: 1_000,
            count: 5,
        };
        let clock = Cell::new(Duration::ZERO);
        let outcome = schedule.drive(
            || clock.get(),
            |d| clock.set(clock.get() + d),
            |i| i < 2,
            || true,
        );
        assert!(outcome.latencies_us.len() < 5);
    }

    #[test]
    fn point_chunks_rotate_through_the_served_set() {
        assert_eq!(point_chunk(0, 6, 0), (0, 0..8));
        assert_eq!(point_chunk(5, 6, 0), (5, 0..8));
        assert_eq!(point_chunk(6, 6, 0), (0, 8..16));
        assert_eq!(point_chunk(7, 6, 3), (1, 32..40));
    }
}
