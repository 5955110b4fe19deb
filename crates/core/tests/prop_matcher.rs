//! Property-based tests for the coordination machinery:
//!
//! * unification soundness (a successful unifier really unifies);
//! * the registry's candidate index is a sound overapproximation;
//! * matcher soundness — every produced match satisfies every
//!   constraint of every member against the actual database;
//! * the incremental matcher and the exhaustive baseline agree on
//!   matchability for random scenarios.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use youtopia_core::matcher::baseline::match_query_naive;
use youtopia_core::matcher::search::match_query;
use youtopia_core::{
    compile_sql, Atom, GroupMatch, MatchConfig, MatchStats, Pending, QueryId, Registry, Subst,
    Term, Var,
};
use youtopia_exec::run_sql;
use youtopia_storage::{Database, Value};

// --------------------------------------------------------------------- //
// Unification properties
// --------------------------------------------------------------------- //

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..4).prop_map(|i| Term::Const(Value::Int(i))),
        Just(Term::Const(Value::Float(3.0))),
        "[ab]".prop_map(|s| Term::Const(Value::Str(s))),
        (0u8..4).prop_map(|i| Term::Var(Var::new(format!("v{i}")))),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    ("[RS]", proptest::collection::vec(arb_term(), 1..4))
        .prop_map(|(rel, terms)| Atom::new(rel, terms))
}

proptest! {
    #[test]
    fn unifier_really_unifies(a in arb_atom(), b in arb_atom()) {
        let mut s = Subst::new();
        if s.unify_atoms(&a, &b) {
            // applying the substitution must make the atoms identical
            // up to remaining (shared) variables
            let ra = s.apply_atom(&a);
            let rb = s.apply_atom(&b);
            prop_assert_eq!(ra.relation.to_lowercase(), rb.relation.to_lowercase());
            for (ta, tb) in ra.terms.iter().zip(&rb.terms) {
                match (ta, tb) {
                    (Term::Const(x), Term::Const(y)) => {
                        prop_assert!(x.sql_eq(y) || x == y, "{x:?} vs {y:?}")
                    }
                    (Term::Var(x), Term::Var(y)) => prop_assert_eq!(x, y),
                    other => prop_assert!(false, "mixed resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unification_is_symmetric(a in arb_atom(), b in arb_atom()) {
        let mut s1 = Subst::new();
        let mut s2 = Subst::new();
        prop_assert_eq!(s1.unify_atoms(&a, &b), s2.unify_atoms(&b, &a));
    }

    #[test]
    fn binding_then_union_equals_union_then_binding(
        v in 0i64..5,
    ) {
        let (x, y) = (Var::new("x"), Var::new("y"));
        let mut s1 = Subst::new();
        assert!(s1.bind(&x, Value::Int(v)));
        assert!(s1.union(&x, &y));
        let mut s2 = Subst::new();
        assert!(s2.union(&x, &y));
        assert!(s2.bind(&x, Value::Int(v)));
        prop_assert_eq!(s1.lookup(&y), s2.lookup(&y));
        prop_assert_eq!(s1.lookup(&y), Some(&Value::Int(v)));
    }
}

// --------------------------------------------------------------------- //
// Scenario generation: random pair/ring coordination requests over a
// small name pool, so matches actually occur.
// --------------------------------------------------------------------- //

#[derive(Debug, Clone)]
struct Scenario {
    /// (me, friend, dest) — each becomes a pair request.
    requests: Vec<(String, String, String)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    proptest::collection::vec((name.clone(), name, dest), 1..6).prop_map(|reqs| Scenario {
        requests: reqs
            .into_iter()
            .map(|(a, b, d)| (a.to_string(), b.to_string(), d.to_string()))
            .collect(),
    })
}

fn scenario_db() -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(
        &db,
        "INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Rome')",
    )
    .unwrap();
    db
}

fn pair_sql(me: &str, friend: &str, dest: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
    )
}

fn registry_for(scenario: &Scenario) -> Registry {
    let mut reg = Registry::new();
    for (i, (me, friend, dest)) in scenario.requests.iter().enumerate() {
        let id = QueryId(i as u64 + 1);
        let q = compile_sql(&pair_sql(me, friend, dest))
            .unwrap()
            .namespaced(id);
        reg.insert(Pending {
            id,
            owner: me.clone(),
            query: q,
            seq: id.0,
            deadline: None,
        });
    }
    reg
}

/// Checks the match against the scenario's semantics: per member, the
/// head is ground, names are right, the flight satisfies the member's
/// own destination predicate, and the member's constraint is satisfied
/// by some answer in the group.
fn assert_match_sound(scenario: &Scenario, m: &GroupMatch) {
    // all answers, flattened
    let all: Vec<(&str, &[Value])> = m
        .answers
        .values()
        .flatten()
        .map(|(rel, t)| (rel.as_str(), t.values()))
        .collect();
    for &qid in &m.members {
        let (me, friend, dest) = &scenario.requests[(qid.0 - 1) as usize];
        let my_answers = &m.answers[&qid];
        assert_eq!(my_answers.len(), 1, "CHOOSE 1: one answer per query");
        let (rel, tuple) = &my_answers[0];
        assert_eq!(rel, "Reservation");
        assert_eq!(tuple.values()[0].as_str(), Some(me.as_str()));
        let fno = tuple.values()[1].as_int().expect("ground flight number");
        // membership: fno is a flight to my dest
        let eligible: &[i64] = if dest == "Paris" { &[1, 2] } else { &[3] };
        assert!(
            eligible.contains(&fno),
            "{me}'s flight {fno} must go to {dest}"
        );
        // constraint: (friend, fno) is among the group's answers
        let satisfied = all.iter().any(|(r, vals)| {
            *r == "Reservation"
                && vals[0].as_str() == Some(friend.as_str())
                && vals[1].as_int() == Some(fno)
        });
        assert!(
            satisfied,
            "{me}'s constraint ('{friend}', {fno}) must be satisfied by the group"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_are_sound(scenario in arb_scenario(), seed in 0u64..1000) {
        let db = scenario_db();
        let reg = registry_for(&scenario);
        let read = db.read();
        let config = MatchConfig::default();
        for trigger in 1..=scenario.requests.len() as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = MatchStats::default();
            if let Some(m) = match_query(
                &reg,
                read.catalog(),
                QueryId(trigger),
                &config,
                &mut rng,
                &mut stats,
            )
            .unwrap()
            {
                prop_assert!(m.members.contains(&QueryId(trigger)));
                assert_match_sound(&scenario, &m);
            }
        }
    }

    #[test]
    fn incremental_and_naive_agree_on_matchability(
        scenario in arb_scenario(),
        seed in 0u64..100,
    ) {
        let db = scenario_db();
        let reg = registry_for(&scenario);
        let read = db.read();
        let config = MatchConfig { randomize: false, ..MatchConfig::default() };
        for trigger in 1..=scenario.requests.len() as u64 {
            let mut rng1 = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut s1 = MatchStats::default();
            let mut s2 = MatchStats::default();
            let incr = match_query(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng1, &mut s1,
            )
            .unwrap();
            let naive = match_query_naive(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng2, &mut s2,
            )
            .unwrap();
            prop_assert_eq!(
                incr.is_some(),
                naive.is_some(),
                "disagreement on trigger {} in {:?}",
                trigger,
                &scenario
            );
            if let Some(m) = &naive {
                assert_match_sound(&scenario, m);
            }
        }
    }

    #[test]
    fn registry_candidates_are_a_superset_of_unifiable_heads(
        scenario in arb_multi_scenario(),
        constraint in arb_constraint(),
    ) {
        let reg = registry_for_multi(&scenario);
        let candidates = reg.candidates_for(&constraint);
        // brute force: every pending head that unifies must be listed
        for pending in reg.iter() {
            for (head_idx, head) in pending.query.heads.iter().enumerate() {
                let mut s = Subst::new();
                if s.unify_atoms(&constraint, head) {
                    let href = youtopia_core::HeadRef { qid: pending.id, head_idx };
                    prop_assert!(
                        candidates.contains(&href),
                        "index dropped unifiable head {head} for constraint {constraint}"
                    );
                }
            }
        }
    }
}

// --------------------------------------------------------------------- //
// Matcher ablation: the staged pipeline (batched candidate resolution,
// pooled scratch, index-first trigger pruning) must be observationally
// identical to the exhaustive baseline — same matchability, same
// members, same answers — on multi-relation workloads whose partner
// keys mix strings with `3` and `3.0`, with the candidate index both on
// and off.
// --------------------------------------------------------------------- //

#[derive(Debug, Clone)]
struct MultiScenario {
    /// (me, friend, dest, answer-relation) — pair requests spread over
    /// several answer relations, so the per-relation index actually
    /// partitions the registry. Names are drawn from [`arb_key`], so
    /// `3` may wait for `3.0`.
    requests: Vec<(Value, Value, String, String)>,
}

/// A partner key: a name, or one of two numbers that unify with each
/// other (`3 = 3.0` under SQL's numeric bridge) though they differ as
/// values — the case an index keyed on exact values gets wrong.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::from("A")),
        Just(Value::from("B")),
        Just(Value::from("C")),
        Just(Value::from("D")),
        Just(Value::Int(3)),
        Just(Value::Float(3.0)),
    ]
}

fn arb_multi_scenario() -> impl Strategy<Value = MultiScenario> {
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let rel = prop_oneof![Just("Reservation"), Just("Lodging"), Just("Tour")];
    proptest::collection::vec((arb_key(), arb_key(), dest, rel), 1..7).prop_map(|reqs| {
        MultiScenario {
            requests: reqs
                .into_iter()
                .map(|(a, b, d, r)| (a, b, d.to_string(), r.to_string()))
                .collect(),
        }
    })
}

fn multi_pair_sql(me: &Value, friend: &Value, dest: &str, rel: &str) -> String {
    let (me, friend) = (me.sql_literal(), friend.sql_literal());
    format!(
        "SELECT {me}, fno INTO ANSWER {rel} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ({friend}, fno) IN ANSWER {rel} CHOOSE 1"
    )
}

fn registry_for_multi(scenario: &MultiScenario) -> Registry {
    let mut reg = Registry::new();
    for (i, (me, friend, dest, rel)) in scenario.requests.iter().enumerate() {
        let id = QueryId(i as u64 + 1);
        let q = compile_sql(&multi_pair_sql(me, friend, dest, rel))
            .unwrap()
            .namespaced(id);
        reg.insert(Pending {
            id,
            owner: me.to_string(),
            query: q,
            seq: id.0,
            deadline: None,
        });
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staged_matcher_equals_naive_on_multi_relation_workloads(
        scenario in arb_multi_scenario(),
        seed in 0u64..100,
    ) {
        let db = scenario_db();
        let read = db.read();
        let config = MatchConfig {
            randomize: false,
            ..MatchConfig::default()
        };
        let reg = registry_for_multi(&scenario);
        for trigger in 1..=scenario.requests.len() as u64 {
            let mut rng1 = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut s1 = MatchStats::default();
            let mut s2 = MatchStats::default();
            let staged = match_query(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng1, &mut s1,
            )
            .unwrap();
            let naive = match_query_naive(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng2, &mut s2,
            )
            .unwrap();
            // Observational equality: same matchability, and when a
            // match exists, the *same* match — members and per-member
            // answers — so the registry retains the same pending set
            // after either matcher applies it.
            prop_assert_eq!(
                &staged,
                &naive,
                "staged vs naive diverge on trigger {} in {:?}",
                trigger,
                &scenario
            );
        }
    }
}

fn arb_constraint() -> impl Strategy<Value = Atom> {
    let name_term = prop_oneof![arb_key().prop_map(Term::Const), Just(Term::var("who")),];
    let fno_term = prop_oneof![
        (1i64..4).prop_map(Term::constant),
        Just(Term::constant(3.0)),
        Just(Term::var("f")),
    ];
    let rel = prop_oneof![Just("Reservation"), Just("Lodging"), Just("Tour")];
    (rel, name_term, fno_term).prop_map(|(r, n, f)| Atom::new(r, vec![n, f]))
}

// --------------------------------------------------------------------- //
// End-to-end invariants of arrival-driven matching.
// --------------------------------------------------------------------- //

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival-driven matching is *locally maximal*: once every query
    /// has had its arrival-time match attempt, no matchable group
    /// remains among the still-pending queries (with an unchanged
    /// database, a later global sweep finds nothing). This is exactly
    /// why matching only on arrival loses no coordination opportunities.
    #[test]
    fn arrival_driven_matching_leaves_no_matchable_residue(
        scenario in arb_scenario(),
        seed in 0u64..50,
    ) {
        use youtopia_core::{Coordinator, CoordinatorConfig};

        let co = Coordinator::with_config(
            scenario_db(),
            CoordinatorConfig { seed, ..Default::default() },
        );
        for (me, friend, dest) in &scenario.requests {
            co.submit_sql(me, &pair_sql(me, friend, dest)).unwrap();
        }
        let pending_before = co.pending_count();
        let swept = co.retry_all().unwrap();
        prop_assert!(
            swept.is_empty(),
            "a global sweep found {} answers the arrival-driven matcher missed in {:?}",
            swept.len(),
            &scenario
        );
        prop_assert_eq!(co.pending_count(), pending_before);
    }

    /// Answered + pending always partitions submissions, and every
    /// coordinated pair of answers shares its flight.
    #[test]
    fn accounting_invariants_hold(scenario in arb_scenario(), seed in 0u64..50) {
        use youtopia_core::{Coordinator, CoordinatorConfig};

        let co = Coordinator::with_config(
            scenario_db(),
            CoordinatorConfig { seed, ..Default::default() },
        );
        for (me, friend, dest) in &scenario.requests {
            co.submit_sql(me, &pair_sql(me, friend, dest)).unwrap();
        }
        let stats = co.stats();
        prop_assert_eq!(stats.submitted as usize, scenario.requests.len());
        prop_assert_eq!(
            stats.answered as usize + co.pending_count(),
            scenario.requests.len()
        );
    }
}
