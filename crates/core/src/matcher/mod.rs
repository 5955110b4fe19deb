//! The matcher: finds coordination groups of pending entangled queries
//! that can be answered jointly.
//!
//! A **coordination group** is a set `G` of pending queries together
//! with a variable assignment such that
//!
//! 1. every member's *membership predicates* hold on the database,
//! 2. every member's *filters* hold,
//! 3. every member's positive *answer constraints* unify with the head
//!    of some member of `G` (the joint answer relation satisfies all
//!    postconditions),
//! 4. every negative answer constraint's ground tuple is absent from
//!    the group's joint answers, and
//! 5. every head grounds to a concrete tuple (each query receives its
//!    `CHOOSE 1` answer).
//!
//! Answer constraints are evaluated against the *system-wide* answer
//! relation — "an individual query can only be answered if the
//! system-wide answer relation satisfies a postcondition" — so a tuple
//! an earlier match committed satisfies a positive constraint (and
//! violates a negative one) just as a member's head does. That is what
//! lets Jerry coordinate with a booking Kramer already holds. The
//! incremental matcher reads committed tuples only through `committed`.
//!
//! Two implementations share the grounding phase ([`ground`]), which
//! reads membership rows through the calling shard's membership cache
//! (the public entry points below use a fresh one per call, which
//! yields the same answers and draws):
//!
//! * [`search::match_query`] — the incremental matcher: grows a group
//!   outward from the newly arrived query, using the registry's
//!   constant-position index and unification-guided candidate pruning;
//! * [`baseline::match_query_naive`] — the obvious algorithm: enumerate
//!   subsets of the pending set by increasing size and test each. It is
//!   the comparison baseline for experiment E7.

pub mod baseline;
pub(crate) mod committed;
pub mod ground;
pub mod pool;
pub mod search;

use std::collections::BTreeMap;

use youtopia_storage::Tuple;

use crate::ir::QueryId;

/// A successful joint answer for a group of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMatch {
    /// The answered queries, sorted by id.
    pub members: Vec<QueryId>,
    /// Per member: the ground answer tuples, one per head, tagged with
    /// the answer relation they belong to.
    pub answers: BTreeMap<QueryId, Vec<(String, Tuple)>>,
}

impl GroupMatch {
    /// All `(relation, tuple)` answers across the group — the content
    /// this match contributes to the joint answer relations.
    pub fn all_answers(&self) -> impl Iterator<Item = &(String, Tuple)> {
        self.answers.values().flatten()
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Tuning knobs shared by both matchers.
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Upper bound on group size; groups larger than this are not
    /// explored (the demo's largest scenario uses 4; the default leaves
    /// generous headroom).
    pub max_group_size: usize,
    /// Randomize candidate and row order (the `CHOOSE 1`
    /// nondeterminism of the paper). Tests disable this for
    /// reproducibility; the coordinator seeds its own RNG.
    pub randomize: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            max_group_size: 16,
            randomize: true,
        }
    }
}

/// Counters describing the work one or more match attempts performed.
/// The benches report these alongside wall-clock numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Candidate heads considered across all constraint expansions.
    pub candidates_considered: u64,
    /// Committed answer tuples considered as constraint providers.
    pub committed_considered: u64,
    /// Atom unifications attempted.
    pub unify_attempts: u64,
    /// Atom unifications that succeeded.
    pub unify_successes: u64,
    /// Grounding phases entered (structurally closed groups found).
    pub groundings_attempted: u64,
    /// Membership rows read during grounding: the result rows of every
    /// subquery that ran, plus every row the compatibility filter and
    /// the negative-membership check examined. Rows a grounding reuses
    /// from the membership cache count only when examined.
    pub rows_scanned: u64,
    /// Membership subqueries executed (cache misses and uncacheable
    /// subqueries).
    pub membership_evals: u64,
    /// Membership subqueries answered from the cache without running.
    pub membership_hits: u64,
    /// Search nodes expanded (structural branches).
    pub nodes_expanded: u64,
    /// Subsets tested (naive matcher only).
    pub subsets_tested: u64,
    /// Posting-list entries and committed rows examined by the staged
    /// candidate scans.
    pub candidates_scanned: u64,
    /// Examined candidates the constant-position index (or the
    /// committed-table constant prefilter) rejected before unification.
    /// Postings the index never walked are not counted.
    pub index_pruned: u64,
    /// Waiting-index postings the cascade drew after committed matches
    /// (before deduplication and the unify check): the cascade's whole
    /// scan, which does not grow with queries waiting on other keys.
    pub cascade_scanned: u64,
    /// Whole match attempts killed in stage 1: some positive obligation
    /// has neither a candidate head nor a committed row in the answer
    /// index, so it is unsatisfiable.
    pub triggers_pruned: u64,
    /// Scratch buffers served from the thread-local pool.
    pub pool_hits: u64,
    /// Scratch buffers freshly allocated because the pool was empty.
    pub pool_misses: u64,
}

impl MatchStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &MatchStats) {
        self.candidates_considered += other.candidates_considered;
        self.committed_considered += other.committed_considered;
        self.unify_attempts += other.unify_attempts;
        self.unify_successes += other.unify_successes;
        self.groundings_attempted += other.groundings_attempted;
        self.rows_scanned += other.rows_scanned;
        self.membership_evals += other.membership_evals;
        self.membership_hits += other.membership_hits;
        self.nodes_expanded += other.nodes_expanded;
        self.subsets_tested += other.subsets_tested;
        self.candidates_scanned += other.candidates_scanned;
        self.index_pruned += other.index_pruned;
        self.cascade_scanned += other.cascade_scanned;
        self.triggers_pruned += other.triggers_pruned;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }

    /// Folds a candidate-scan tally into the matcher counters.
    pub fn absorb_scan(&mut self, scan: &crate::registry::CandidateScan) {
        self.candidates_scanned += scan.scanned;
        self.index_pruned += scan.pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::Value;

    #[test]
    fn group_match_accessors() {
        let mut answers = BTreeMap::new();
        answers.insert(
            QueryId(1),
            vec![(
                "Reservation".to_string(),
                Tuple::new(vec![Value::from("K"), Value::Int(122)]),
            )],
        );
        answers.insert(
            QueryId(2),
            vec![(
                "Reservation".to_string(),
                Tuple::new(vec![Value::from("J"), Value::Int(122)]),
            )],
        );
        let m = GroupMatch {
            members: vec![QueryId(1), QueryId(2)],
            answers,
        };
        assert_eq!(m.size(), 2);
        assert_eq!(m.all_answers().count(), 2);
    }

    #[test]
    fn stats_merge() {
        let mut a = MatchStats {
            candidates_considered: 1,
            ..Default::default()
        };
        let b = MatchStats {
            candidates_considered: 2,
            rows_scanned: 5,
            membership_evals: 1,
            membership_hits: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.candidates_considered, 3);
        assert_eq!(a.rows_scanned, 5);
        assert_eq!((a.membership_evals, a.membership_hits), (1, 4));
    }

    #[test]
    fn default_config() {
        let c = MatchConfig::default();
        assert_eq!(c.max_group_size, 16);
        assert!(c.randomize);
    }
}
