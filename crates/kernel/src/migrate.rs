//! Migration policy — *when* to swap a compartment pair's gate backend.
//!
//! The quiescence protocol in `flexos::gate` answers *how* a pair swaps
//! backends live; this module answers *when*. The policy follows the
//! ROADMAP's runtime-reconfiguration item (after LibrettOS's dynamic
//! adaptability): **escalate** isolation when the environment looks
//! hostile — flexos-inject chaos events or a `HardeningAbort` caught in
//! the observation window — and **relax** it under sustained benign load,
//! where crossing cost dominates and the serving counters show every
//! cycle matters.
//!
//! The policy is a pure state machine over per-window signal snapshots:
//! no clocks, no randomness, so same-seed runs make identical decisions
//! and the `--migrate` figures stay byte-reproducible. Hysteresis
//! (consecutive-window confirmation for relaxing, a cooldown after every
//! swap) keeps it from flapping between neighbouring rungs of the
//! isolation ladder ([`BackendChoice::isolation_rank`]).

use flexos::build::BackendChoice;

/// One observation window's worth of evidence, gathered by the driver
/// (the reproduce harness or the serve loop) between policy ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicySignals {
    /// `HardeningAbort` faults surfaced in the window.
    pub hardening_aborts: u64,
    /// flexos-inject chaos events observed (lost doorbells, spurious
    /// pkey faults, NIC drops).
    pub chaos_events: u64,
    /// Gate operations (crossings + async submissions) in the window —
    /// the load signal.
    pub window_ops: u64,
}

/// What the policy wants done with the pair after a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Stay on the current backend.
    Hold,
    /// Raise isolation to `to` (threat evidence in the window).
    Escalate {
        /// The backend to escalate to.
        to: BackendChoice,
    },
    /// Lower isolation to `to` (sustained benign load).
    Relax {
        /// The backend to relax to.
        to: BackendChoice,
    },
}

/// A deterministic escalate-on-threat / relax-under-load policy for one
/// compartment pair.
#[derive(Debug, Clone)]
pub struct MigrationPolicy {
    current: BackendChoice,
    /// Windows with ≥ this many ops count as "loaded".
    load_threshold: u64,
    /// Consecutive loaded, threat-free windows required before relaxing.
    relax_after: u32,
    /// Windows to hold after any swap before deciding again.
    cooldown: u32,
    benign_streak: u32,
    cooldown_left: u32,
}

impl MigrationPolicy {
    /// A policy starting from `current`, with the default thresholds the
    /// `--migrate` sweeps use: relax after 3 consecutive loaded windows
    /// (≥ 256 ops each), 2-window cooldown after every swap.
    pub fn new(current: BackendChoice) -> Self {
        Self::with_thresholds(current, 256, 3, 2)
    }

    /// A policy with explicit thresholds (tests and sweeps).
    pub fn with_thresholds(
        current: BackendChoice,
        load_threshold: u64,
        relax_after: u32,
        cooldown: u32,
    ) -> Self {
        Self {
            current,
            load_threshold,
            relax_after,
            cooldown,
            benign_streak: 0,
            cooldown_left: 0,
        }
    }

    /// The backend the policy believes the pair is on.
    pub fn current(&self) -> BackendChoice {
        self.current
    }

    /// The neighbouring rung of the isolation ladder: the backend of the
    /// next higher [`BackendChoice::isolation_rank`] (`up`) or the next
    /// lower one. Escalation climbs one rung per hostile window;
    /// relaxation descends one rung per confirmed-benign streak.
    fn next_rung(&self, up: bool) -> Option<BackendChoice> {
        let rank = self.current.isolation_rank();
        let rungs = BackendChoice::ALL.into_iter();
        if up {
            rungs
                .filter(|b| b.isolation_rank() > rank)
                .min_by_key(|b| b.isolation_rank())
        } else {
            rungs
                .filter(|b| b.isolation_rank() < rank)
                .max_by_key(|b| b.isolation_rank())
        }
    }

    /// Feeds one window of evidence and returns the decision. The caller
    /// applies accepted decisions via `GateRuntime::request_migration`
    /// and then calls [`MigrationPolicy::applied`].
    pub fn observe(&mut self, s: PolicySignals) -> PolicyDecision {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.benign_streak = 0;
            return PolicyDecision::Hold;
        }
        let hostile = s.hardening_aborts > 0 || s.chaos_events > 0;
        if hostile {
            self.benign_streak = 0;
            // At the top of the ladder there is nothing to climb to: hold.
            return self
                .next_rung(true)
                .map_or(PolicyDecision::Hold, |to| PolicyDecision::Escalate { to });
        }
        if s.window_ops >= self.load_threshold {
            self.benign_streak += 1;
            if self.benign_streak >= self.relax_after {
                if let Some(to) = self.next_rung(false) {
                    return PolicyDecision::Relax { to };
                }
            }
        } else {
            self.benign_streak = 0;
        }
        PolicyDecision::Hold
    }

    /// Records that the driver applied a swap to `to`: resets the benign
    /// streak and starts the cooldown.
    pub fn applied(&mut self, to: BackendChoice) {
        self.current = to;
        self.benign_streak = 0;
        self.cooldown_left = self.cooldown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benign_loaded() -> PolicySignals {
        PolicySignals {
            hardening_aborts: 0,
            chaos_events: 0,
            window_ops: 1000,
        }
    }

    #[test]
    fn escalates_one_rung_on_threat_evidence() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::None, 256, 3, 0);
        let d = p.observe(PolicySignals {
            hardening_aborts: 1,
            ..Default::default()
        });
        assert_eq!(
            d,
            PolicyDecision::Escalate {
                to: BackendChoice::MpkShared
            }
        );
        p.applied(BackendChoice::MpkShared);
        let d = p.observe(PolicySignals {
            chaos_events: 3,
            ..Default::default()
        });
        assert_eq!(
            d,
            PolicyDecision::Escalate {
                to: BackendChoice::MpkSwitched
            }
        );
    }

    #[test]
    fn holds_at_the_top_of_the_ladder() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::VmRpc, 256, 3, 0);
        let d = p.observe(PolicySignals {
            hardening_aborts: 5,
            chaos_events: 5,
            window_ops: 9999,
        });
        assert_eq!(d, PolicyDecision::Hold);
    }

    #[test]
    fn relaxes_only_after_a_confirmed_benign_streak() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::VmRpc, 256, 3, 0);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
        assert_eq!(
            p.observe(benign_loaded()),
            PolicyDecision::Relax {
                to: BackendChoice::Cheri
            }
        );
        // An idle window resets the streak.
        p.applied(BackendChoice::Cheri);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
        assert_eq!(p.observe(PolicySignals::default()), PolicyDecision::Hold);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
    }

    #[test]
    fn floor_of_the_ladder_never_relaxes_further() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::None, 1, 1, 0);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
    }

    #[test]
    fn cooldown_suppresses_decisions_after_a_swap() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::MpkShared, 256, 1, 2);
        p.applied(BackendChoice::MpkSwitched);
        // Two windows of cooldown ignore even hostile evidence.
        let hostile = PolicySignals {
            hardening_aborts: 1,
            ..Default::default()
        };
        assert_eq!(p.observe(hostile), PolicyDecision::Hold);
        assert_eq!(p.observe(hostile), PolicyDecision::Hold);
        assert_eq!(
            p.observe(hostile),
            PolicyDecision::Escalate {
                to: BackendChoice::Cheri
            }
        );
    }

    #[test]
    fn chaos_interrupts_a_benign_streak() {
        let mut p = MigrationPolicy::with_thresholds(BackendChoice::VmRpc, 256, 2, 0);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
        let d = p.observe(PolicySignals {
            chaos_events: 1,
            window_ops: 1000,
            ..Default::default()
        });
        // Hostile window at the top: hold, and the streak restarts.
        assert_eq!(d, PolicyDecision::Hold);
        assert_eq!(p.observe(benign_loaded()), PolicyDecision::Hold);
        assert_eq!(
            p.observe(benign_loaded()),
            PolicyDecision::Relax {
                to: BackendChoice::Cheri
            }
        );
    }
}
