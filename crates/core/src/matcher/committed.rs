//! Committed answers: the one place the incremental matcher and the
//! re-match sweep read the answer relations' committed tuples.
//!
//! The paper answers a query only when "the system-wide answer relation
//! satisfies a postcondition", so a tuple an earlier match committed is
//! a provider for a positive answer constraint just like a pending head,
//! and it can violate a negative one. Every such read goes through
//! [`compatible`]:
//!
//! * stage 1 of [`super::search`] asks whether a positive obligation
//!   with no pending candidate has a committed row;
//! * `solve_obligation` takes the rows as committed providers;
//! * the grounding phase's `finalize` asks whether a negative
//!   constraint's ground atom is a committed row.
//!
//! [`CommittedProbe`] answers the sweep's coarser question once per
//! round: might *any* committed tuple satisfy an atom?
//!
//! The naive matcher keeps its own scan of the relation
//! (`baseline.rs`): it is the reference the incremental matcher is
//! compared against, so it does not share this code.

use std::collections::{HashMap, HashSet};

use youtopia_storage::{Catalog, Tuple, Value};

use crate::ir::{Atom, Term};
use crate::matcher::MatchStats;
use crate::unify::unify_eq;

/// The committed tuples of `atom`'s relation that could unify with it:
/// the arity matches and every constant position holds a unify-equal
/// value. A superset of the unifiable tuples (a variable repeated in
/// `atom` is not checked); unification decides the rest.
///
/// Rows come lazily in `table.scan()` (ascending `RowId`) order, so a
/// caller that stops early examines only a prefix. Each examined row
/// counts one `candidates_scanned`, and each rejected one (an arity
/// mismatch included) one `index_pruned`. A missing relation yields
/// nothing and counts nothing.
pub(crate) fn compatible<'a>(
    catalog: &'a Catalog,
    atom: &'a Atom,
    stats: &'a mut MatchStats,
) -> impl Iterator<Item = &'a Tuple> + 'a {
    let mut rows = catalog.table(&atom.relation).ok().map(|t| t.scan());
    std::iter::from_fn(move || {
        for (_, tuple) in rows.as_mut()? {
            stats.candidates_scanned += 1;
            if tuple.arity() == atom.arity() && constants_agree(atom, tuple.values()) {
                return Some(tuple);
            }
            stats.index_pruned += 1;
        }
        None
    })
}

/// Whether every constant of `atom` is unify-equal to the value at its
/// position: a tuple that clashes with one can never unify with it.
fn constants_agree(atom: &Atom, values: &[Value]) -> bool {
    atom.terms.iter().zip(values).all(|(t, v)| match t {
        Term::Const(c) => unify_eq(c, v),
        Term::Var(_) => true,
    })
}

/// Value-keyed summary of the committed tuples of a set of relations,
/// used by the re-match sweep to refute "a committed tuple could
/// satisfy this constraint" without rescanning tables per trigger.
///
/// Per relation it records the arities seen and, per position, the
/// [`Value::key`]s of the stored values, which are equal exactly where
/// the values unify (`unify_eq`, e.g. `Int(3)` and `Float(3.0)`).
/// Positions are tested independently, so the probe may say "maybe"
/// for a tuple that does not unify, but never "no" for one that does.
pub(crate) struct CommittedProbe {
    relations: HashMap<String, RelationProbe>,
}

#[derive(Default)]
struct RelationProbe {
    arities: HashSet<usize>,
    by_pos: HashMap<usize, HashSet<Value>>,
}

impl CommittedProbe {
    /// Scans each named relation once (missing tables are simply absent,
    /// so every probe against them answers "no tuple").
    pub(crate) fn build<'a>(
        catalog: &Catalog,
        rels: impl IntoIterator<Item = &'a str>,
    ) -> CommittedProbe {
        let mut relations: HashMap<String, RelationProbe> = HashMap::new();
        for rel in rels {
            let key = rel.to_ascii_lowercase();
            if relations.contains_key(&key) {
                continue;
            }
            let Ok(table) = catalog.table(rel) else {
                continue;
            };
            let probe = relations.entry(key).or_default();
            for (_, tuple) in table.scan() {
                let values = tuple.values();
                probe.arities.insert(values.len());
                for (pos, v) in values.iter().enumerate() {
                    probe
                        .by_pos
                        .entry(pos)
                        .or_default()
                        .insert(v.key().into_owned());
                }
            }
        }
        CommittedProbe { relations }
    }

    /// Whether some committed tuple *might* unify with `atom`: the
    /// relation has a tuple of matching arity whose every
    /// constant-constrained position holds a value with the same key.
    /// Positions are tested independently, so this is an
    /// over-approximation — exactly what soundness of pruning needs.
    pub(crate) fn may_satisfy(&self, atom: &Atom) -> bool {
        let Some(probe) = self.relations.get(&atom.relation.to_ascii_lowercase()) else {
            return false;
        };
        if !probe.arities.contains(&atom.terms.len()) {
            return false;
        }
        atom.terms.iter().enumerate().all(|(pos, term)| match term {
            Term::Const(v) => probe
                .by_pos
                .get(&pos)
                .is_some_and(|set| set.contains(&*v.key())),
            _ => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use youtopia_storage::{Column, DataType, RowId, Schema};

    /// `R(c0 INT, c1 FLOAT)` and `S(c0 INT)`, both nullable, filled with
    /// `rows` (each row goes to `R` when it has two values, else to `S`),
    /// then every `gap`-th row of `R` deleted so its `RowId`s have holes.
    fn catalog_of(rows: &[Vec<Value>], gap: usize) -> Catalog {
        let mut catalog = Catalog::new();
        let int = |name| Column::nullable(name, DataType::Int64);
        let float = |name| Column::nullable(name, DataType::Float64);
        catalog
            .create_table("R", Schema::new(vec![int("c0"), float("c1")]))
            .unwrap();
        catalog
            .create_table("S", Schema::new(vec![int("c0")]))
            .unwrap();
        for row in rows {
            let rel = if row.len() == 2 { "R" } else { "S" };
            let table = catalog.table_mut(rel).unwrap();
            table.insert(Tuple::new(row.clone())).unwrap();
        }
        let table = catalog.table_mut("R").unwrap();
        let doomed: Vec<RowId> = table.scan().map(|(rid, _)| rid).step_by(gap).collect();
        for rid in doomed {
            table.delete(rid).unwrap();
        }
        catalog
    }

    fn arb_int() -> impl Strategy<Value = Value> {
        prop_oneof![Just(Value::Int(0)), Just(Value::Int(3)), Just(Value::Null)]
    }

    fn arb_float() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Float(3.0)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Null),
        ]
    }

    /// A row of `R` or of `S`.
    fn arb_row() -> impl Strategy<Value = Vec<Value>> {
        prop_oneof![
            (arb_int(), arb_float()).prop_map(|(a, b)| vec![a, b]),
            arb_int().prop_map(|a| vec![a]),
        ]
    }

    /// Atoms of arity 1–3 over `R`, `r`, `S` and a missing relation, so
    /// arities mismatch both tables; constants mix `3` and `3.0`, the
    /// zeros, NULL and a string no row holds.
    fn arb_atom() -> impl Strategy<Value = Atom> {
        let term = prop_oneof![
            prop_oneof![
                Just(Value::Int(3)),
                Just(Value::Float(3.0)),
                Just(Value::Int(0)),
                Just(Value::Float(-0.0)),
                Just(Value::Null),
                Just(Value::from("a")),
            ]
            .prop_map(Term::Const),
            (0u8..2).prop_map(|i| Term::var(format!("v{i}"))),
        ];
        let relation = prop_oneof![Just("R"), Just("r"), Just("S"), Just("Missing")];
        (relation, proptest::collection::vec(term, 1..4))
            .prop_map(|(relation, terms)| Atom::new(relation, terms))
    }

    /// The oracle: scan the relation, keep the rows of the atom's arity
    /// whose values equal its constants, position by position. The
    /// equality is spelled out rather than shared with `unify_eq`, so a
    /// change there cannot move both sides at once.
    fn scan_then_filter(catalog: &Catalog, atom: &Atom) -> (Vec<Tuple>, u64) {
        let Ok(table) = catalog.table(&atom.relation) else {
            return (Vec::new(), 0);
        };
        let kept = table
            .scan()
            .map(|(_, t)| t)
            .filter(|t| {
                t.arity() == atom.arity()
                    && atom
                        .terms
                        .iter()
                        .zip(t.values())
                        .all(|(term, v)| match term {
                            Term::Const(c) => c.sql_eq(v) || c == v,
                            Term::Var(_) => true,
                        })
            })
            .cloned()
            .collect();
        (kept, table.len() as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lookup yields exactly the rows a scan-then-filter keeps,
        /// in `RowId` order, counting every row scanned and every row
        /// rejected; stopping at the first row counts only the prefix.
        /// An answer index must keep this contract.
        #[test]
        fn lookup_equals_scan_then_filter(
            rows in proptest::collection::vec(arb_row(), 0..16),
            gap in 2usize..5,
            atom in arb_atom(),
        ) {
            let catalog = catalog_of(&rows, gap);
            let (expected, scanned) = scan_then_filter(&catalog, &atom);
            let mut stats = MatchStats::default();
            let got: Vec<Tuple> = compatible(&catalog, &atom, &mut stats).cloned().collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(stats.candidates_scanned, scanned);
            prop_assert_eq!(stats.index_pruned, scanned - expected.len() as u64);

            let mut first = MatchStats::default();
            let hit = compatible(&catalog, &atom, &mut first).next().cloned();
            prop_assert_eq!(hit.as_ref(), expected.first());
            let prefix = match &hit {
                Some(row) => {
                    let table = catalog.table(&atom.relation).unwrap();
                    table.scan().position(|(_, t)| t == row).unwrap() as u64 + 1
                }
                None => scanned,
            };
            prop_assert_eq!(first.candidates_scanned, prefix);
            prop_assert_eq!(first.index_pruned, prefix - u64::from(hit.is_some()));
        }

        /// The sweep's probe never refutes an atom the lookup has a row
        /// for, so a pruned trigger is one no committed tuple serves.
        #[test]
        fn probe_refutes_only_empty_lookups(
            rows in proptest::collection::vec(arb_row(), 0..16),
            gap in 2usize..5,
            atom in arb_atom(),
        ) {
            let catalog = catalog_of(&rows, gap);
            let probe = CommittedProbe::build(&catalog, [atom.relation.as_str()]);
            if !probe.may_satisfy(&atom) {
                let mut stats = MatchStats::default();
                prop_assert!(compatible(&catalog, &atom, &mut stats).next().is_none());
            }
        }
    }
}
