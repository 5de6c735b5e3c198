//! The replicated control plane: a Raft-style elected coordinator and a
//! majority-committed sequence of decisions (DESIGN.md §14).
//!
//! The cluster's control-plane decisions — membership epoch bumps,
//! checkpoint commits, death declarations — are each committed by an
//! elected leader with a majority of acknowledgements before they are
//! applied:
//!
//! * **Elections** (Raft §5.2, simplified for a simulated full-information
//!   cluster): each election bumps the term and seats exactly one candidate
//!   — the smallest live host — with a vote from every live host. Election
//!   safety (at most one leader per term) therefore holds *by
//!   construction*: a term admits one candidate and is never reused.
//! * **The commit index** (Raft §5.3): each decision commits at the next
//!   1-based index, under the current term, once a majority of the voting
//!   hosts acknowledge it; only committed decisions are applied. Every
//!   replica applies the same decisions in the same order by construction,
//!   so nothing replays the log: the state machine keeps the term, the
//!   leader and the commit index, and each decision is reported as one
//!   `log_committed` trace event instead of being stored.
//! * **Byzantine accusation**: a worker that returns a checksum-mismatched
//!   sync payload is caught by [`checksum_quorum`] — every live replica
//!   recomputes the payload checksum independently, and a strict majority
//!   agreeing on a different value than the worker reported pins the lie
//!   on it. The accusation escalates to a death declaration through the
//!   same committed log.
//!
//! The consensus layer is built only when a fault plan is attached (the
//! cluster is "under test"); fault-free runs skip it entirely and pay
//! nothing, keeping the fault-free hot path and its stats byte-identical.
//!
//! Everything here is deterministic: no randomness, no wall clocks, no
//! timeouts — liveness comes from the simulation's synchronous barriers,
//! so the usual Raft timers collapse into explicit `elect` calls at the
//! points where the cluster observes a leader loss.

// The control plane is exactly the code that runs when the cluster is
// already degraded; a panic here would turn a recoverable fault into an
// abort. Everything must degrade to typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// A control-plane decision, committed by a majority before it is
/// applied. The serialized form (see [`LogEntryKind::label`]) is what the
/// `log_committed` trace event reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogEntryKind {
    /// A membership epoch bump: the partition map re-homed partitions
    /// (death rebalance or rejoin) and every survivor must agree on the
    /// epoch before acting under it.
    EpochBump,
    /// A checkpoint becomes the durable recovery point only once a
    /// majority acknowledges it — otherwise a surviving minority could
    /// roll back to a checkpoint the leader never finished installing.
    CheckpointCommit,
    /// A declaration that hosts are permanently dead. Voted on by the
    /// *survivors* only — the dying hosts cannot acknowledge their own
    /// funeral.
    DeathDeclaration,
}

impl LogEntryKind {
    /// The stable string tag used in trace events and result JSON.
    pub fn label(self) -> &'static str {
        match self {
            LogEntryKind::EpochBump => "epoch_bump",
            LogEntryKind::CheckpointCommit => "checkpoint_commit",
            LogEntryKind::DeathDeclaration => "death_declaration",
        }
    }
}

/// The outcome of one election.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Election {
    /// The new (strictly increased) term.
    pub term: u64,
    /// The elected leader host.
    pub leader: usize,
    /// Votes received — every live host in this full-information model.
    pub votes: usize,
    /// Live hosts at election time.
    pub live_hosts: usize,
}

/// The outcome of one committed log entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    /// Term under which the entry committed.
    pub term: u64,
    /// Log index of the entry.
    pub index: u64,
    /// Acknowledgements received.
    pub acks: usize,
    /// Acknowledgements a majority required.
    pub quorum: usize,
}

/// The verdict of a checksum quorum over one worker's sync payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChecksumVerdict {
    /// The majority checksum — what the payload *actually* hashes to.
    pub expected: u64,
    /// How many replicas voted for the majority value.
    pub accusers: usize,
    /// The strict majority that was required to pin the lie.
    pub quorum: usize,
}

/// The replicated control-plane state machine. One logical instance is
/// shared by all hosts of the simulated cluster; per-host divergence is
/// impossible here by construction, which is exactly the property a real
/// deployment buys with Raft's AppendEntries consistency check.
#[derive(Clone, Debug, Default)]
pub struct Consensus {
    term: u64,
    leader: Option<usize>,
    committed: u64,
}

impl Consensus {
    /// A fresh control plane: term 0, no leader, nothing committed. The
    /// cluster runs the first election before its first superstep.
    pub fn new() -> Self {
        Consensus::default()
    }

    /// The current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The current leader host, if one has been elected and not lost.
    pub fn leader(&self) -> Option<usize> {
        self.leader
    }

    /// Index of the last committed entry (0 = nothing committed).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Runs one election among `live` hosts: bumps the term and seats the
    /// smallest live host with a vote from every live host. Returns `None`
    /// when no host is live (the cluster is gone; callers surface
    /// [`RuntimeError::QuorumLost`](crate::RuntimeError::QuorumLost)).
    ///
    /// Exactly one candidate stands per term and terms are never reused,
    /// so *election safety* — at most one leader per term — holds by
    /// construction; the property test below checks it anyway.
    pub fn elect(&mut self, live: &[usize]) -> Option<Election> {
        let leader = live.iter().copied().min()?;
        self.term += 1;
        self.leader = Some(leader);
        Some(Election {
            term: self.term,
            leader,
            votes: live.len(),
            live_hosts: live.len(),
        })
    }

    /// Marks the leadership vacant (the leader host crashed). The next
    /// decision requires a fresh election first.
    pub fn vacate(&mut self) {
        self.leader = None;
    }

    /// Commits the next decision under the current term with `voters`
    /// acknowledging replicas. Every live voter acks in this synchronous
    /// model, so the decision commits iff the voter set can form a
    /// majority at all — `Err(needed)` reports the quorum that zero voters
    /// could not meet, and leaves the commit index where it was.
    pub fn commit(&mut self, voters: usize) -> Result<Commit, usize> {
        let quorum = voters / 2 + 1;
        if voters == 0 {
            return Err(quorum);
        }
        self.committed += 1;
        Ok(Commit {
            term: self.term,
            index: self.committed,
            acks: voters,
            quorum,
        })
    }
}

/// Resolves a byzantine checksum dispute: `votes` pairs each live host
/// with the checksum it independently computed for one worker's sync
/// payload. A strict majority agreeing on one value pins that value as
/// the truth; `Ok` carries the verdict, `Err(needed)` means no value
/// reached the quorum (too few replicas to out-vote the liar — with two
/// hosts the vote splits 1–1 and nobody can be accused).
pub fn checksum_quorum(votes: &[(usize, u64)]) -> Result<ChecksumVerdict, usize> {
    let quorum = votes.len() / 2 + 1;
    // Tiny vote sets (≤ hosts) — a linear count beats a hash map.
    for &(_, candidate) in votes {
        let accusers = votes.iter().filter(|&&(_, c)| c == candidate).count();
        if accusers >= quorum {
            return Ok(ChecksumVerdict {
                expected: candidate,
                accusers,
                quorum,
            });
        }
    }
    Err(quorum)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use flash_graph::Prng;

    #[test]
    fn first_election_seats_smallest_live_host() {
        let mut c = Consensus::new();
        let el = c.elect(&[0, 1, 2, 3]).unwrap();
        assert_eq!(el.term, 1);
        assert_eq!(el.leader, 0);
        assert_eq!(el.votes, 4);
        assert_eq!(c.leader(), Some(0));

        // Host 0 crashes; the survivors seat host 1 under a new term.
        c.vacate();
        assert_eq!(c.leader(), None);
        let el2 = c.elect(&[1, 2, 3]).unwrap();
        assert_eq!(el2.term, 2);
        assert_eq!(el2.leader, 1);
        assert_eq!(el2.votes, 3);
    }

    #[test]
    fn electing_with_no_live_hosts_fails() {
        let mut c = Consensus::new();
        assert_eq!(c.elect(&[]), None);
        assert_eq!(c.term(), 0, "a failed election burns no term");
    }

    #[test]
    fn commit_appends_sequentially_and_reports_quorum() {
        let mut c = Consensus::new();
        c.elect(&[0, 1, 2]).unwrap();
        let a = c.commit(3).unwrap();
        assert_eq!((a.index, a.term, a.acks, a.quorum), (1, 1, 3, 2));
        let b = c.commit(2).unwrap();
        assert_eq!((b.index, b.acks, b.quorum), (2, 2, 2));
        c.elect(&[0, 1]).unwrap();
        let e = c.commit(2).unwrap();
        assert_eq!((e.index, e.term), (3, 2), "the index runs on across terms");
        assert_eq!(c.committed(), 3);
        assert_eq!(LogEntryKind::DeathDeclaration.label(), "death_declaration");
    }

    #[test]
    fn commit_with_zero_voters_reports_needed_quorum() {
        let mut c = Consensus::new();
        c.elect(&[0]).unwrap();
        assert_eq!(c.commit(0), Err(1));
        assert_eq!(c.committed(), 0, "a failed commit commits nothing");
    }

    /// Property: across arbitrary interleavings of elections (over random
    /// live sets) and commits, every term seats at most one leader and
    /// terms strictly increase per election.
    #[test]
    fn property_election_safety_under_random_membership() {
        let mut prng = Prng::seed_from_u64(0xE1EC);
        for case in 0..200u64 {
            let hosts = 1 + (prng.next_u64() % 8) as usize;
            let mut c = Consensus::new();
            let mut leaders_by_term: Vec<(u64, usize)> = Vec::new();
            for _ in 0..16 {
                // A random non-empty live subset of the hosts.
                let mut live: Vec<usize> = (0..hosts)
                    .filter(|_| prng.next_u64().is_multiple_of(2))
                    .collect();
                if live.is_empty() {
                    live.push((prng.next_u64() % hosts as u64) as usize);
                }
                let before = c.term();
                let el = c.elect(&live).expect("non-empty live set");
                assert!(el.term > before, "case {case}: terms strictly increase");
                assert!(live.contains(&el.leader), "case {case}: leader is live");
                assert!(
                    leaders_by_term.iter().all(|&(t, _)| t != el.term),
                    "case {case}: term {} reused",
                    el.term
                );
                leaders_by_term.push((el.term, el.leader));
                if prng.next_u64().is_multiple_of(2) {
                    let _ = c.commit(live.len());
                }
            }
        }
    }

    #[test]
    fn checksum_quorum_pins_the_dissenter() {
        // Hosts 0 and 2 agree; host 1 lies.
        let verdict = checksum_quorum(&[(0, 0xAB), (1, 0xFF), (2, 0xAB)]).unwrap();
        assert_eq!(verdict.expected, 0xAB);
        assert_eq!(verdict.accusers, 2);
        assert_eq!(verdict.quorum, 2);
    }

    #[test]
    fn checksum_quorum_needs_a_strict_majority() {
        // Two hosts, split vote: nobody can be out-voted.
        assert_eq!(checksum_quorum(&[(0, 0xAB), (1, 0xFF)]), Err(2));
        // No votes at all.
        assert_eq!(checksum_quorum(&[]), Err(1));
        // Unanimity trivially passes.
        let v = checksum_quorum(&[(0, 7), (1, 7)]).unwrap();
        assert_eq!((v.expected, v.accusers), (7, 2));
    }
}
