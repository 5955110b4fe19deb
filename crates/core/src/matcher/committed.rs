//! Committed answers: the one place the incremental matcher reads the
//! answer relations' committed tuples.
//!
//! The paper answers a query only when "the system-wide answer relation
//! satisfies a postcondition", so a tuple an earlier match committed is
//! a provider for a positive answer constraint just like a pending head,
//! and it can violate a negative one. Every such read goes through
//! [`compatible`]:
//!
//! * stage 1 of [`super::search`] asks whether a positive obligation
//!   with no pending candidate has a committed row (an arrival, a
//!   cascade round and a re-match sweep all ask it there);
//! * `solve_obligation` takes the rows as committed providers;
//! * the grounding phase's `finalize` asks whether a negative
//!   constraint's ground atom is a committed row.
//!
//! The lookup reads storage's own indexes: the engine gives every
//! column of an answer relation a single-column index when a match
//! first writes to it (`ensure_answer_table`), so a constant selects a
//! posting instead of a scan.
//!
//! The naive matcher keeps its own scan of the relation
//! (`baseline.rs`): it is the reference the incremental matcher is
//! compared against, so it does not share this code.

use youtopia_storage::{Catalog, RowId, Table, Tuple, Value};

use crate::ir::{Atom, Term};
use crate::matcher::MatchStats;
use crate::unify::unify_eq;

/// The committed tuples of `atom`'s relation that could unify with it:
/// the arity matches and every constant position holds a unify-equal
/// value. A superset of the unifiable tuples (a variable repeated in
/// `atom` is not checked); unification decides the rest.
///
/// When some constant position has a single-column index, the rows
/// come from the shortest such posting; otherwise from a scan. Either
/// way they come lazily in ascending `RowId` (`table.scan()`) order,
/// so a caller that stops early examines only a prefix. Each examined
/// row — a posting entry, or a scanned row — counts one
/// `candidates_scanned`, and each rejected one (an arity mismatch
/// included) one `index_pruned`. A missing relation yields nothing and
/// counts nothing.
pub(crate) fn compatible<'a>(
    catalog: &'a Catalog,
    atom: &'a Atom,
    stats: &'a mut MatchStats,
) -> impl Iterator<Item = &'a Tuple> + 'a {
    let mut rows = catalog.table(&atom.relation).ok().map(|table| {
        let posting = shortest_posting(table, atom);
        let probed = posting.map(|rids| rids.iter().filter_map(|&rid| table.get(rid)));
        let scanned = posting.is_none().then(|| table.scan().map(|(_, t)| t));
        probed
            .into_iter()
            .flatten()
            .chain(scanned.into_iter().flatten())
    });
    std::iter::from_fn(move || {
        for tuple in rows.as_mut()? {
            stats.candidates_scanned += 1;
            if tuple.arity() == atom.arity() && constants_agree(atom, tuple.values()) {
                return Some(tuple);
            }
            stats.index_pruned += 1;
        }
        None
    })
}

/// The shortest posting among `atom`'s constant positions that `table`
/// indexes on their own, or `None` when it indexes none of them. An
/// index files rows under [`Value::key`], so a posting holds exactly
/// the rows whose value at that position is unify-equal to the
/// constant, ascending.
fn shortest_posting<'t>(table: &'t Table, atom: &Atom) -> Option<&'t [RowId]> {
    atom.terms
        .iter()
        .enumerate()
        .filter_map(|(pos, term)| match term {
            Term::Const(c) => Some(table.find_index_on(&[pos])?.probe(std::slice::from_ref(c))),
            Term::Var(_) => None,
        })
        .min_by_key(|rids| rids.len())
}

/// Whether every constant of `atom` is unify-equal to the value at its
/// position: a tuple that clashes with one can never unify with it.
fn constants_agree(atom: &Atom, values: &[Value]) -> bool {
    atom.terms.iter().zip(values).all(|(t, v)| match t {
        Term::Const(c) => unify_eq(c, v),
        Term::Var(_) => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use youtopia_storage::{Column, DataType, Schema};

    /// `R(c0 INT, c1 FLOAT)` and `S(c0 INT)`, both nullable, filled with
    /// `rows` (each row goes to `R` when it has two values, else to `S`),
    /// the indexes `indexed` selects built half-way through the inserts
    /// (so both the backfill and the write paths file rows), then every
    /// `gap`-th row of `R` deleted so its `RowId`s and postings have
    /// holes. Bits 0–2 of `indexed` give `R.c0`, `R.c1` and `S.c0` a
    /// single-column index, bit 3 `R` a two-column one on `(c0, c1)`,
    /// which no lookup may take for a single position.
    fn catalog_of(rows: &[Vec<Value>], gap: usize, indexed: u8) -> Catalog {
        let mut catalog = Catalog::new();
        let int = |name| Column::nullable(name, DataType::Int64);
        let float = |name| Column::nullable(name, DataType::Float64);
        catalog
            .create_table("R", Schema::new(vec![int("c0"), float("c1")]))
            .unwrap();
        catalog
            .create_table("S", Schema::new(vec![int("c0")]))
            .unwrap();
        let (early, late) = rows.split_at(rows.len() / 2);
        let fill = |catalog: &mut Catalog, rows: &[Vec<Value>]| {
            for row in rows {
                let rel = if row.len() == 2 { "R" } else { "S" };
                let table = catalog.table_mut(rel).unwrap();
                table.insert(Tuple::new(row.clone())).unwrap();
            }
        };
        fill(&mut catalog, early);
        let indexes: [(&str, &str, &[&str]); 4] = [
            ("R", "r0", &["c0"]),
            ("R", "r1", &["c1"]),
            ("S", "s0", &["c0"]),
            ("R", "r01", &["c0", "c1"]),
        ];
        for (bit, (table, name, columns)) in indexes.into_iter().enumerate() {
            if indexed & (1 << bit) != 0 {
                let table = catalog.table_mut(table).unwrap();
                table.create_index(name, columns, false).unwrap();
            }
        }
        fill(&mut catalog, late);
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

    /// The oracle's equality, spelled out rather than shared with
    /// `unify_eq`, so a change there cannot move both sides at once.
    fn oracle_eq(c: &Value, v: &Value) -> bool {
        c.sql_eq(v) || c == v
    }

    /// The oracle: scan the relation and keep the rows of the atom's
    /// arity whose values equal its constants, position by position.
    /// Also returns the rows the lookup must walk, in order: the rows
    /// of the shortest single-column posting among the constant
    /// positions (the first such position on a tie), found by scanning
    /// for the constant; all rows when no constant position is
    /// indexed.
    fn scan_then_filter(catalog: &Catalog, atom: &Atom) -> (Vec<Tuple>, Vec<Tuple>) {
        let Ok(table) = catalog.table(&atom.relation) else {
            return (Vec::new(), Vec::new());
        };
        let rows: Vec<&Tuple> = table.scan().map(|(_, t)| t).collect();
        let mut walked: Option<Vec<&Tuple>> = None;
        for (pos, term) in atom.terms.iter().enumerate() {
            let Term::Const(c) = term else { continue };
            if !table.indexes().iter().any(|i| i.columns() == [pos]) {
                continue;
            }
            let posting: Vec<&Tuple> = rows
                .iter()
                .copied()
                .filter(|t| oracle_eq(c, &t.values()[pos]))
                .collect();
            if walked.as_ref().is_none_or(|w| posting.len() < w.len()) {
                walked = Some(posting);
            }
        }
        let walked = walked.unwrap_or(rows);
        let kept = walked
            .iter()
            .filter(|t| {
                t.arity() == atom.arity()
                    && atom
                        .terms
                        .iter()
                        .zip(t.values())
                        .all(|(term, v)| match term {
                            Term::Const(c) => oracle_eq(c, v),
                            Term::Var(_) => true,
                        })
            })
            .map(|&t| t.clone())
            .collect();
        (kept, walked.into_iter().cloned().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lookup yields exactly the rows a scan-then-filter keeps,
        /// in `RowId` order, whichever positions are indexed, counting
        /// every posting entry walked (every row scanned when no
        /// constant position is indexed) and every entry rejected;
        /// stopping at the first row counts only the walk's prefix.
        #[test]
        fn lookup_equals_scan_then_filter(
            rows in proptest::collection::vec(arb_row(), 0..16),
            gap in 2usize..5,
            indexed in 0u8..16,
            atom in arb_atom(),
        ) {
            let catalog = catalog_of(&rows, gap, indexed);
            let (expected, walked) = scan_then_filter(&catalog, &atom);
            let scanned = walked.len() as u64;
            let mut stats = MatchStats::default();
            let got: Vec<Tuple> = compatible(&catalog, &atom, &mut stats).cloned().collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(stats.candidates_scanned, scanned);
            prop_assert_eq!(stats.index_pruned, scanned - expected.len() as u64);

            let mut first = MatchStats::default();
            let hit = compatible(&catalog, &atom, &mut first).next().cloned();
            prop_assert_eq!(hit.as_ref(), expected.first());
            let prefix = match &hit {
                Some(row) => walked.iter().position(|t| t == row).unwrap() as u64 + 1,
                None => scanned,
            };
            prop_assert_eq!(first.candidates_scanned, prefix);
            prop_assert_eq!(first.index_pruned, prefix - u64::from(hit.is_some()));
        }
    }

    // ------------------------------------------------------------------ //
    // Probe == scan under every write path of an answer relation
    // ------------------------------------------------------------------ //

    use std::sync::Arc;

    use youtopia_exec::run_sql;
    use youtopia_storage::{Database, Wal};

    use crate::shard::testing::flights_db_wal;
    use crate::Coordinator;

    /// One write to the answer relation `R`.
    #[derive(Debug, Clone)]
    enum Write {
        /// A lone query that answers `(who, fno)` on arrival: a match
        /// apply, which creates `R` and its indexes when missing.
        Match(&'static str, i64),
        /// The same, for a name the apply hook rejects: the apply's
        /// transaction, index DDL included, rolls back.
        Rejected(i64),
        Insert(&'static str, i64),
        Update(&'static str, i64),
        Delete(i64),
        /// `DROP TABLE R`; the next match re-creates it.
        Drop,
        /// The application pre-creates `R`, without indexes; the next
        /// match adds them. `FLOAT` stores the flight numbers as floats.
        Create(&'static str),
        /// A coordinator checkpoint, which rewrites the log from the
        /// catalog, indexes included.
        Checkpoint,
    }

    fn arb_write() -> impl Strategy<Value = Write> {
        let who = prop_oneof![Just("a"), Just("b")];
        let fno = prop_oneof![Just(122i64), Just(123), Just(134)];
        let matched = (who.clone(), fno.clone()).prop_map(|(w, f)| Write::Match(w, f));
        prop_oneof![
            matched.clone(),
            matched,
            fno.clone().prop_map(Write::Rejected),
            (who.clone(), fno.clone()).prop_map(|(w, f)| Write::Insert(w, f)),
            (who, fno.clone()).prop_map(|(w, f)| Write::Update(w, f)),
            fno.prop_map(Write::Delete),
            Just(Write::Drop),
            prop_oneof![Just("INT"), Just("FLOAT")].prop_map(Write::Create),
            Just(Write::Checkpoint),
        ]
    }

    /// Every atom over `R` the matcher could ask for: each position a
    /// constant some row may hold (an `Int` or its `Float`), a constant
    /// none holds, or a variable.
    fn answer_atoms() -> Vec<Atom> {
        let who = [
            Term::constant("a"),
            Term::constant("b"),
            Term::constant("X"),
            Term::var("w"),
        ];
        let fno = [
            Term::Const(Value::Int(122)),
            Term::Const(Value::Float(123.0)),
            Term::Const(Value::Int(999)),
            Term::var("f"),
        ];
        who.iter()
            .flat_map(|w| {
                fno.iter()
                    .map(move |f| Atom::new("R", vec![w.clone(), f.clone()]))
            })
            .collect()
    }

    /// Probe == scan-then-filter, rows and order, for every atom.
    fn assert_probe_equals_scan(db: &Database, after: &Write) {
        let read = db.read();
        for atom in answer_atoms() {
            let mut stats = MatchStats::default();
            let got: Vec<Tuple> = compatible(read.catalog(), &atom, &mut stats)
                .cloned()
                .collect();
            let (expected, _) = scan_then_filter(read.catalog(), &atom);
            assert_eq!(got, expected, "{atom} after {after:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The answer relation's indexes stay equal to a scan through
        /// every path that writes it — the engine's apply and its
        /// rollback, SQL writes, DDL, a checkpoint — and through a
        /// recovery from the log; a match leaves every column indexed.
        #[test]
        fn answer_indexes_equal_scans_under_every_write_path(
            writes in proptest::collection::vec(arb_write(), 1..24),
        ) {
            let db = flights_db_wal();
            let co = Coordinator::new(db.clone());
            co.set_apply_hook(Arc::new(|_, m| {
                if m.all_answers().any(|(_, t)| t.values()[0] == Value::from("X")) {
                    Err(youtopia_storage::StorageError::Internal("rejected".into()))
                } else {
                    Ok(())
                }
            }));
            let solo = |who: &str, fno: i64| {
                format!(
                    "SELECT '{who}', fno INTO ANSWER R \
                     WHERE fno IN (SELECT fno FROM Flights WHERE fno = {fno}) CHOOSE 1"
                )
            };
            for write in &writes {
                // a write to a table that is not there fails; the
                // property is about the writes that land
                match write {
                    Write::Match(who, fno) => {
                        co.submit_sql(who, &solo(who, *fno))
                            .unwrap()
                            .answered()
                            .expect("a lone query answers on arrival");
                        let read = db.read();
                        let table = read.table("R").unwrap();
                        for pos in 0..table.schema().columns().len() {
                            prop_assert!(table.find_index_on(&[pos]).is_some(), "{pos}");
                        }
                    }
                    Write::Rejected(fno) => {
                        co.submit_sql("x", &solo("X", *fno)).unwrap();
                        prop_assert_eq!(co.cancel_owner("x"), 1);
                    }
                    Write::Insert(who, fno) => {
                        let _ = run_sql(&db, &format!("INSERT INTO R VALUES ('{who}', {fno})"));
                    }
                    Write::Update(who, fno) => {
                        let sql = format!("UPDATE R SET c0 = '{who}' WHERE c1 = {fno}");
                        let _ = run_sql(&db, &sql);
                    }
                    Write::Delete(fno) => {
                        let _ = run_sql(&db, &format!("DELETE FROM R WHERE c1 = {fno}"));
                    }
                    Write::Drop => {
                        let _ = run_sql(&db, "DROP TABLE R");
                    }
                    Write::Create(ty) => {
                        let _ = run_sql(&db, &format!("CREATE TABLE R (c0 STRING, c1 {ty})"));
                    }
                    Write::Checkpoint => co.checkpoint().unwrap(),
                }
                assert_probe_equals_scan(&db, write);
            }
            let wal = Wal::from_bytes(db.wal_bytes().expect("a durable database"));
            let (recovered, _) = Database::recover(wal).unwrap();
            assert_probe_equals_scan(&recovered, &Write::Checkpoint);
            let indexes = |db: &Database| {
                let read = db.read();
                read.table("R").map_or(Vec::new(), |t| {
                    t.indexes().iter().map(|i| i.columns().to_vec()).collect()
                })
            };
            prop_assert_eq!(indexes(&recovered), indexes(&db));
        }
    }
}
