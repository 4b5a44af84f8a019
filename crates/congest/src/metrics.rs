//! Execution metrics: the quantities the paper's theorems bound.

/// Metrics recorded by a [`crate::Runtime`] run.
///
/// The paper's results are statements about *rounds* (time complexity in
/// the CONGEST model), *messages* (the `Σ_i O(M_i + D)` charge of
/// simulating skeleton-graph rounds, Lemma 4.12) and *message size* (the
/// `B ∈ Θ(log n)` bandwidth bound). Those totals are what is recorded
/// here; per-node broadcast counts belong to the program that sends them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of rounds executed (including the final quiet round, if any).
    pub rounds: u64,
    /// Total number of messages sent.
    pub messages: u64,
    /// Largest single message, in bits.
    pub max_message_bits: usize,
    /// Number of messages exceeding the configured bandwidth `B`.
    pub bandwidth_violations: u64,
}

impl Metrics {
    /// Adds another run's metrics (for multi-phase algorithms that execute
    /// several runtime invocations back to back). Sums and a maximum, so
    /// the order in which runs are absorbed is unobservable.
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.bandwidth_violations += other.bandwidth_violations;
    }

    /// Adds `rounds` idle rounds (e.g. an explicitly charged `O(D)`
    /// synchronization barrier that sends no messages).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.rounds += rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_is_commutative() {
        let a = Metrics {
            rounds: 3,
            messages: 5,
            max_message_bits: 10,
            bandwidth_violations: 1,
        };
        let b = Metrics {
            rounds: 2,
            messages: 4,
            max_message_bits: 12,
            bandwidth_violations: 0,
        };
        let (mut ab, mut ba) = (a, b);
        ab.absorb(&b);
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab,
            Metrics {
                rounds: 5,
                messages: 9,
                max_message_bits: 12,
                bandwidth_violations: 1,
            }
        );
        ab.charge_rounds(3);
        assert_eq!((ab.rounds, ab.messages), (8, 9));
    }
}
