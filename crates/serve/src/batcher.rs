//! Admission batching: concurrent small submissions for one served name
//! merged into one `estimate_many_with` call on one leased snapshot.

use crate::{lock_recover, OracleServer, ServeError};
use graphs::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Pending {
    pairs: Vec<(NodeId, NodeId)>,
    slot: Arc<Slot>,
}

/// One submission's answer: its estimates and the generation of the
/// snapshot its group ran on.
type Answer = Result<(Vec<u64>, u64), ServeError>;

struct Slot {
    result: Mutex<Option<Answer>>,
    ready: Condvar,
}

struct BatchState {
    queue: Vec<Pending>,
    retired: bool,
}

/// Admission batching for one served name: concurrent [`Batcher::submit`]
/// calls are merged into one slab and answered by a single
/// `estimate_many_with` call on a single leased snapshot.
///
/// The first submitter of an admission group becomes its *leader*: it
/// waits out the admission window (so concurrent submitters can join),
/// drains the queue, leases the snapshot once, runs the combined batch,
/// and distributes the answer slab back. Followers block on their slot.
/// One generation per group — a hot swap lands between groups, never
/// inside one.
///
/// Two escape hatches keep a submission from blocking forever:
/// [`Batcher::with_deadline`] bounds the wait for a wedged leader with
/// [`ServeError::Deadline`], and [`Batcher::shutdown`] retires the
/// batcher, failing queued and future submissions with
/// [`ServeError::Retired`].
pub struct Batcher {
    name: String,
    window: Duration,
    threads: usize,
    deadline: Option<Duration>,
    state: Mutex<BatchState>,
    submissions: AtomicU64,
    groups: AtomicU64,
    grouped_pairs: AtomicU64,
    largest_group: AtomicU64,
}

/// Admission-occupancy counters for one [`Batcher`] — how well the
/// window is merging concurrent submissions. `submissions / groups` is
/// the mean occupancy; the `Stats` request relays these so batch
/// efficiency is observable on a live server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Submissions accepted (each [`Batcher::submit`] that queued).
    pub submissions: u64,
    /// Admission groups executed (one `estimate_many_with` call each).
    pub groups: u64,
    /// Total pairs across all executed groups.
    pub grouped_pairs: u64,
    /// Largest group executed, in submissions.
    pub largest_group: u64,
}

impl Batcher {
    /// A batcher for the served `name` with the given admission window
    /// and `threads` knob for the combined batches (`0` = auto).
    pub fn new(name: &str, window: Duration, threads: usize) -> Self {
        Batcher {
            name: name.to_string(),
            window,
            threads,
            deadline: None,
            state: Mutex::new(BatchState {
                queue: Vec::new(),
                retired: false,
            }),
            submissions: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            grouped_pairs: AtomicU64::new(0),
            largest_group: AtomicU64::new(0),
        }
    }

    /// Point-in-time admission-occupancy counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submissions: self.submissions.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            grouped_pairs: self.grouped_pairs.load(Ordering::Relaxed),
            largest_group: self.largest_group.load(Ordering::Relaxed),
        }
    }

    /// Bounds how long [`Batcher::submit`] waits for its group's answer
    /// once queued. If the group leader wedges (never executes), the
    /// submission withdraws itself from the queue after `deadline` and
    /// returns [`ServeError::Deadline`] instead of blocking forever. The
    /// deadline should comfortably exceed the admission window plus the
    /// expected batch execution time; it exists for liveness, not pacing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retires the batcher: every queued submission is failed with
    /// [`ServeError::Retired`] (waiters wake immediately) and future
    /// submissions are rejected up front. Idempotent. Called
    /// automatically by [`OracleServer::remove`] for the batcher
    /// [`OracleServer::handle`] keeps for the name.
    pub fn shutdown(&self) {
        let abandoned = {
            let mut state = lock_recover(&self.state);
            state.retired = true;
            std::mem::take(&mut state.queue)
        };
        for pending in abandoned {
            *lock_recover(&pending.slot.result) = Some(Err(ServeError::Retired(self.name.clone())));
            pending.slot.ready.notify_one();
        }
    }

    /// Submits `pairs` and blocks until the admission group they joined
    /// has been answered; returns this submission's answers (in pair
    /// order) and the generation that served them.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownOracle`] when the batcher's name is not being
    /// served at execution time (the whole group gets the error);
    /// [`ServeError::NodeOutOfRange`] when a pair names a node outside
    /// the current snapshot (refused before it is queued, so the
    /// submitters it would have merged with are unaffected);
    /// [`ServeError::Retired`] when the batcher has been shut down;
    /// [`ServeError::Deadline`] when a deadline is configured and the
    /// group's answer did not arrive in time.
    pub fn submit(
        &self,
        server: &OracleServer,
        pairs: Vec<(NodeId, NodeId)>,
    ) -> Result<(Vec<u64>, u64), ServeError> {
        if let Some(lease) = server.lease(&self.name) {
            lease.check_ids(&pairs)?;
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let leader = {
            let mut state = lock_recover(&self.state);
            if state.retired {
                return Err(ServeError::Retired(self.name.clone()));
            }
            let leader = state.queue.is_empty();
            state.queue.push(Pending {
                pairs,
                slot: Arc::clone(&slot),
            });
            self.submissions.fetch_add(1, Ordering::Relaxed);
            leader
        };
        if leader {
            // Admit concurrent submitters, then execute the whole group.
            std::thread::sleep(self.window);
            let group: Vec<Pending> = std::mem::take(&mut lock_recover(&self.state).queue);
            self.execute(server, group);
        }
        let mut result = lock_recover(&slot.result);
        if let Some(deadline) = self.deadline {
            let give_up = Instant::now() + deadline;
            while result.is_none() {
                let now = Instant::now();
                if now >= give_up {
                    // Unanswered past the deadline: withdraw from the
                    // queue (the slot lock is released first — shutdown
                    // takes the locks in the opposite order).
                    drop(result);
                    lock_recover(&self.state)
                        .queue
                        .retain(|p| !Arc::ptr_eq(&p.slot, &slot));
                    return Err(ServeError::Deadline(self.name.clone()));
                }
                let (guard, _) = slot
                    .ready
                    .wait_timeout(result, give_up - now)
                    .unwrap_or_else(PoisonError::into_inner);
                result = guard;
            }
        } else {
            while result.is_none() {
                result = slot
                    .ready
                    .wait(result)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        result.take().expect("checked above")
    }

    fn execute(&self, server: &OracleServer, group: Vec<Pending>) {
        if group.is_empty() {
            // A shutdown raced the leader's admission window and already
            // failed the whole group (including the leader's own slot).
            return;
        }
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.largest_group
            .fetch_max(group.len() as u64, Ordering::Relaxed);
        let outcome = server.leased(&self.name).and_then(|lease| {
            let slab: Vec<(NodeId, NodeId)> =
                group.iter().flat_map(|p| p.pairs.iter().copied()).collect();
            self.grouped_pairs
                .fetch_add(slab.len() as u64, Ordering::Relaxed);
            // Submissions were range-checked when queued: this fails
            // only if a smaller snapshot was swapped in since.
            let mut out = Vec::new();
            lease.query(&slab, &mut out, self.threads)?;
            Ok((out, lease.generation))
        });
        let mut offset = 0;
        for pending in group {
            // Each answer carries the generation its group ran on, not
            // whatever is served by the time its submitter wakes up.
            let answer = match &outcome {
                Ok((out, generation)) => {
                    let take = pending.pairs.len();
                    let part = out[offset..offset + take].to_vec();
                    offset += take;
                    Ok((part, *generation))
                }
                Err(e) => Err(e.clone()),
            };
            *lock_recover(&pending.slot.result) = Some(answer);
            pending.slot.ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{build, ring};
    use oracle::DistanceOracle;

    #[test]
    fn batcher_merges_concurrent_submissions_into_one_generation() {
        let server = OracleServer::new();
        server.install("g", build(&ring(12, 2)));
        let batcher = Batcher::new("g", Duration::from_millis(20), 1);
        let expect: Vec<u64> = (1..=4u32)
            .map(|i| {
                let lease = server.lease("g").unwrap();
                lease.oracle().estimate(NodeId(0), NodeId(i))
            })
            .collect();
        let batches_before = server.lease("g").unwrap().batches_served();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=4u32)
                .map(|i| {
                    let (batcher, server) = (&batcher, &server);
                    scope.spawn(move || batcher.submit(server, vec![(NodeId(0), NodeId(i))]))
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let (answers, generation) = handle.join().unwrap().unwrap();
                assert_eq!(answers, vec![expect[i]]);
                assert_eq!(generation, 1);
            }
        });
        // Admission merged at least some submissions: fewer executed
        // batches than submissions (the window makes all-in-one likely,
        // but any grouping proves admission worked).
        let batches_after = server.lease("g").unwrap().batches_served();
        assert!(batches_after - batches_before <= 4);
        assert!(batches_after > batches_before);
        assert_eq!(server.lease("g").unwrap().queries_served(), 4);
    }

    #[test]
    fn batcher_reports_unknown_oracle_to_every_member() {
        let server = OracleServer::new();
        let batcher = Batcher::new("missing", Duration::from_millis(1), 1);
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(1))])
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownOracle("missing".into()));
    }

    /// Plants a fake queued submission, as if its leader were wedged
    /// mid-window and had never drained the group.
    fn wedge(batcher: &Batcher) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        batcher.state.lock().unwrap().queue.push(Pending {
            pairs: vec![(NodeId(0), NodeId(1))],
            slot: Arc::clone(&slot),
        });
        slot
    }

    #[test]
    fn batcher_deadline_withdraws_submission_from_wedged_group() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher =
            Batcher::new("g", Duration::from_secs(600), 1).with_deadline(Duration::from_millis(20));
        wedge(&batcher);
        // The queue is non-empty, so this submission is a follower; the
        // wedged "leader" never executes, and the deadline fires.
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(2))])
            .unwrap_err();
        assert_eq!(err, ServeError::Deadline("g".into()));
        // The timed-out submission withdrew itself; the wedged pending
        // is still there.
        assert_eq!(batcher.state.lock().unwrap().queue.len(), 1);
    }

    #[test]
    fn batcher_shutdown_fails_queued_and_future_submissions() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher = Batcher::new("g", Duration::from_secs(600), 1);
        let queued = wedge(&batcher);
        batcher.shutdown();
        assert_eq!(
            *queued.result.lock().unwrap(),
            Some(Err(ServeError::Retired("g".into())))
        );
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(1))])
            .unwrap_err();
        assert_eq!(err, ServeError::Retired("g".into()));
        assert!(batcher.state.lock().unwrap().queue.is_empty());
    }

    #[test]
    fn batched_answers_carry_the_generation_their_group_ran_on() {
        // A swap landing between a group's execution and its submitters
        // waking up must not relabel the answers.
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher = Batcher::new("g", Duration::from_secs(600), 1);
        let slot = wedge(&batcher);
        let group = std::mem::take(&mut batcher.state.lock().unwrap().queue);
        batcher.execute(&server, group);
        server.install("g", build(&ring(8, 5)));
        assert_eq!(*slot.result.lock().unwrap(), Some(Ok((vec![1], 1))));
    }
}
