//! Client-side fault tolerance: bounded retries with deterministic
//! backoff, transparent reconnection, and replica failover.
//!
//! A bare [`Client`] is deliberately fragile: one torn frame poisons the
//! connection and every later call fails fast. That is the right
//! contract for the protocol layer — framing may be desynchronized, so
//! nothing after the fault can be trusted — but callers facing a lossy
//! network want the obvious recovery automated: reconnect, replay the
//! request, and fail over to another replica when the current one stays
//! dead. [`RetryClient`] is that automation:
//!
//! - a [`RetryPolicy`] bounds the attempts and spaces them with
//!   exponential backoff under **deterministic seeded jitter** (same
//!   seed, same delays — chaos runs stay reproducible);
//! - a [`ReplicaSet`] holds the server addresses with per-replica
//!   health: a replica that refuses connections (or keeps poisoning
//!   them) is skipped until its re-probe interval expires, so a dead
//!   primary costs one failed attempt — not one per request;
//! - only **idempotent** requests are replayed (estimates, routes,
//!   stats, snapshot installs — re-running any of them cannot change
//!   served answers). `RepairAndSwap` is the exception: a repair
//!   observed-failed may still have been applied, so
//!   [`RetryClient::call`] never replays it blindly (see its docs).
//!
//! Retried answers are byte-identical to a fault-free run: the server
//! recomputes them against the same deterministic artifact, so a query
//! that survives three reconnects returns exactly the bytes it would
//! have returned on a clean connection (pinned by
//! `tests/chaos_recovery.rs`).

use crate::client::Client;
use crate::wire::WireError;
use congest::NodeId;
use serve::{Request, Response};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Bounded-retry settings with deterministic seeded jitter.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles every retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream. Two clients with the same seed sleep
    /// the same delays — chaos experiments stay reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// One step of the splitmix64 stream — the workspace-standard way to
/// derive deterministic pseudo-randomness from a seed (see
/// `graphs::seed`); vendored here to keep `net` free of a rand
/// dependency on its hot path.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The delay before attempt `attempt + 1` (so `attempt` counts the
    /// failures seen: 1 after the first). Exponential
    /// (`base · 2^(attempt-1)`, capped at `max_backoff`) with *equal*
    /// jitter: uniformly drawn from `[exp/2, exp]` using `draw`, so
    /// synchronized clients spread out while the bound stays intact.
    pub fn backoff(&self, attempt: u32, draw: u64) -> Duration {
        let base = self.base_backoff.as_nanos().max(1);
        let exp = base
            .saturating_mul(1u128 << attempt.saturating_sub(1).min(63))
            .min(self.max_backoff.as_nanos());
        let half = exp / 2;
        let jittered = half + u128::from(draw) % (exp - half + 1);
        Duration::from_nanos(u64::try_from(jittered).unwrap_or(u64::MAX))
    }
}

struct Replica {
    addr: SocketAddr,
    unhealthy_until: Option<Instant>,
}

/// An ordered set of interchangeable server addresses with per-replica
/// health tracking.
///
/// Connection attempts prefer healthy replicas (sticky to the last one
/// that worked); a replica that fails is marked unhealthy and skipped
/// until its re-probe interval expires. When *every* replica is
/// unhealthy the set still offers them all — availability over
/// bookkeeping: the alternative is refusing to try at all.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    reprobe: Duration,
    preferred: usize,
}

impl ReplicaSet {
    /// Builds a replica set from one or more addresses (each entry may
    /// resolve to several socket addresses; all are kept, in order).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when resolution fails or yields no address.
    pub fn new<A: ToSocketAddrs>(addrs: &[A]) -> Result<ReplicaSet, WireError> {
        let mut replicas = Vec::new();
        for a in addrs {
            for addr in a.to_socket_addrs()? {
                replicas.push(Replica {
                    addr,
                    unhealthy_until: None,
                });
            }
        }
        if replicas.is_empty() {
            return Err(WireError::Io(
                io::ErrorKind::AddrNotAvailable,
                "replica set resolved to no addresses".into(),
            ));
        }
        Ok(ReplicaSet {
            replicas,
            reprobe: Duration::from_millis(250),
            preferred: 0,
        })
    }

    /// Overrides the unhealthy re-probe interval (default 250 ms).
    #[must_use]
    pub fn with_reprobe(mut self, reprobe: Duration) -> ReplicaSet {
        self.reprobe = reprobe;
        self
    }

    /// Replica indices in attempt order: healthy (or re-probe-due) ones
    /// first, rotating from the sticky preferred index; if every replica
    /// is marked unhealthy, all of them in rotation order.
    fn candidates(&self, now: Instant) -> Vec<usize> {
        let n = self.replicas.len();
        let rotation = (0..n).map(|i| (self.preferred + i) % n);
        let usable: Vec<usize> = rotation
            .clone()
            .filter(|&i| match self.replicas[i].unhealthy_until {
                None => true,
                Some(until) => now >= until,
            })
            .collect();
        if usable.is_empty() {
            rotation.collect()
        } else {
            usable
        }
    }

    fn mark_unhealthy(&mut self, idx: usize, now: Instant) {
        self.replicas[idx].unhealthy_until = Some(now + self.reprobe);
    }

    fn mark_healthy(&mut self, idx: usize) {
        self.replicas[idx].unhealthy_until = None;
        self.preferred = idx;
    }
}

/// A [`Client`] wrapper that retries idempotent requests across
/// reconnects and replica failover, per a [`RetryPolicy`].
///
/// The module docs at the top of `net/src/resilient.rs` have the
/// semantics. Pipelined submission
/// ([`Client::queue_estimate_many`]) is deliberately not wrapped: a
/// reconnect mid-window cannot know which queued requests the server
/// executed, so the resilient surface is strict request/response only.
pub struct RetryClient {
    replicas: ReplicaSet,
    policy: RetryPolicy,
    timeout: Option<Duration>,
    conn: Option<(usize, Client)>,
    jitter: u64,
    retries: u64,
    reconnects: u64,
}

impl RetryClient {
    /// Connects to the first reachable replica.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when no replica accepts a connection within the
    /// policy's attempt budget.
    pub fn connect(replicas: ReplicaSet, policy: RetryPolicy) -> Result<RetryClient, WireError> {
        let jitter = policy.jitter_seed;
        let mut client = RetryClient {
            replicas,
            policy,
            timeout: None,
            conn: None,
            jitter,
            retries: 0,
            reconnects: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Bounds how long any single receive may block (applied to every
    /// current and future connection).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the live socket rejects the option.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.timeout = timeout;
        if let Some((_, client)) = self.conn.as_mut() {
            client.set_timeout(timeout)?;
        }
        Ok(())
    }

    /// The replica currently connected, if any.
    pub fn current_replica(&self) -> Option<SocketAddr> {
        self.conn
            .as_ref()
            .map(|(idx, _)| self.replicas.replicas[*idx].addr)
    }

    /// Operations that needed at least one retry.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections established after the first (reconnects and
    /// failovers alike).
    pub fn reconnects(&self) -> u64 {
        // `self.reconnects` counts every successful dial, including the
        // initial one made by `connect`.
        self.reconnects.saturating_sub(1)
    }

    /// Drops a poisoned (or absent) connection and dials candidates in
    /// health order until one accepts.
    fn ensure_connected(&mut self) -> Result<(), WireError> {
        if let Some((_, client)) = self.conn.as_ref() {
            if !client.is_poisoned() {
                return Ok(());
            }
            self.conn = None;
        }
        let now = Instant::now();
        let mut last = WireError::Io(io::ErrorKind::NotConnected, "no replica reachable".into());
        for idx in self.replicas.candidates(now) {
            match Client::connect(self.replicas.replicas[idx].addr) {
                Ok(mut client) => {
                    if let Err(e) = client.set_timeout(self.timeout) {
                        last = e;
                        self.replicas.mark_unhealthy(idx, now);
                        continue;
                    }
                    self.reconnects += 1;
                    self.replicas.mark_healthy(idx);
                    self.conn = Some((idx, client));
                    return Ok(());
                }
                Err(e) => {
                    last = e;
                    self.replicas.mark_unhealthy(idx, now);
                }
            }
        }
        Err(last)
    }

    /// Runs one idempotent operation with reconnect-and-replay. A
    /// server-relayed per-request error returns immediately (the server
    /// answered; retrying cannot change a deterministic answer); a
    /// poisoned connection — torn frame, reset, refusal at the door —
    /// is dropped, the replica marked, and the request replayed against
    /// the next candidate after the policy's backoff.
    fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let failed = match self.ensure_connected() {
                Ok(()) => {
                    let (idx, client) = self.conn.as_mut().expect("just connected");
                    let idx = *idx;
                    match op(client) {
                        Ok(v) => return Ok(v),
                        Err(e) => {
                            if client.is_poisoned() {
                                self.replicas.mark_unhealthy(idx, Instant::now());
                                self.conn = None;
                                e
                            } else {
                                // The connection is intact: this is the
                                // server's deterministic answer for the
                                // request. Surface it.
                                return Err(e);
                            }
                        }
                    }
                }
                Err(e) => e,
            };
            if attempt >= self.policy.max_attempts.max(1) {
                return Err(failed);
            }
            self.retries += 1;
            let draw = splitmix64(&mut self.jitter);
            std::thread::sleep(self.policy.backoff(attempt, draw));
        }
    }

    /// One distance estimate, retried across faults.
    ///
    /// # Errors
    ///
    /// The server's typed per-request error, or the last transport
    /// error once the attempt budget is spent.
    pub fn estimate(&mut self, name: &str, u: NodeId, v: NodeId) -> Result<u64, WireError> {
        self.run(|c| c.estimate(name, u, v))
    }

    /// A batch of estimates, retried across faults. Answers are
    /// byte-identical to a fault-free run — the server recomputes
    /// against the same deterministic artifact.
    ///
    /// # Errors
    ///
    /// As [`RetryClient::estimate`].
    pub fn estimate_many(
        &mut self,
        name: &str,
        pairs: &[(NodeId, NodeId)],
        batched: bool,
    ) -> Result<(Vec<u64>, u64), WireError> {
        self.run(|c| c.estimate_many(name, pairs, batched))
    }

    /// Any [`Request`], retried across faults, except `RepairAndSwap`,
    /// which is **not replayed**: it is the one op that is not
    /// idempotent (its delta names edges of the pre-delta graph; applying
    /// it twice fails, and a fault after the send leaves "applied or
    /// not?" unknowable from this side). It is attempted once on a live
    /// connection — reconnection happens only *before* anything is sent
    /// — and on a transport fault the caller decides, typically by
    /// reading the mask or stats first.
    ///
    /// # Errors
    ///
    /// As [`RetryClient::estimate`]; for `RepairAndSwap`, the transport
    /// error of its single attempt.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        if !matches!(req, Request::RepairAndSwap { .. }) {
            return self.run(|c| c.call(req));
        }
        self.ensure_connected()?;
        let (idx, client) = self.conn.as_mut().expect("just connected");
        let idx = *idx;
        let result = client.call(req);
        if result.is_err() && client.is_poisoned() {
            self.replicas.mark_unhealthy(idx, Instant::now());
            self.conn = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_monotone_in_expectation() {
        let policy = RetryPolicy::default();
        let mut a = policy.jitter_seed;
        let mut b = policy.jitter_seed;
        for attempt in 1..=10 {
            let da = policy.backoff(attempt, splitmix64(&mut a));
            let db = policy.backoff(attempt, splitmix64(&mut b));
            assert_eq!(da, db, "same seed must give the same delays");
            assert!(
                da <= policy.max_backoff,
                "cap respected at attempt {attempt}"
            );
            let exp = policy
                .base_backoff
                .saturating_mul(1 << (attempt - 1).min(30))
                .min(policy.max_backoff);
            assert!(da >= exp / 2, "equal jitter keeps at least half the step");
        }
    }

    #[test]
    fn replica_set_rotates_marks_and_reprobes() {
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:19001".parse().unwrap(),
            "127.0.0.1:19002".parse().unwrap(),
            "127.0.0.1:19003".parse().unwrap(),
        ];
        let mut set = ReplicaSet::new(&addrs)
            .unwrap()
            .with_reprobe(Duration::from_millis(50));
        let t0 = Instant::now();
        assert_eq!(set.candidates(t0), vec![0, 1, 2]);
        set.mark_unhealthy(0, t0);
        assert_eq!(set.candidates(t0), vec![1, 2], "unhealthy skipped");
        set.mark_healthy(1);
        assert_eq!(set.candidates(t0), vec![1, 2], "sticky to the last success");
        // All down: the set still offers everything.
        set.mark_unhealthy(1, t0);
        set.mark_unhealthy(2, t0);
        assert_eq!(set.candidates(t0), vec![1, 2, 0]);
        // Past the re-probe interval the marks expire.
        let later = t0 + Duration::from_millis(60);
        assert_eq!(set.candidates(later), vec![1, 2, 0]);
    }

    #[test]
    fn empty_replica_set_is_a_typed_error() {
        let none: &[SocketAddr] = &[];
        assert!(matches!(
            ReplicaSet::new(none),
            Err(WireError::Io(io::ErrorKind::AddrNotAvailable, _))
        ));
    }
}
