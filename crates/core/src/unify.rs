//! Unification of terms, tuples and atoms over a substitution.
//!
//! The matcher unifies answer-constraint atoms against candidate head
//! atoms while accumulating a [`Subst`]: a union-find over variables
//! where each class may carry at most one constant value. Instead of
//! cloning the structure at search branch points, the matcher takes a
//! [`Subst::mark`] before speculative unifications and rolls back with
//! [`Subst::undo_to`] on backtrack — every mutation is recorded in an
//! undo journal, so a branch costs a few journal entries rather than a
//! full copy of both maps.

use std::collections::HashMap;

use youtopia_storage::Value;

use crate::ir::{Atom, Term, Var};

/// Whether two constants unify: their [`Value::key`]s are equal. That
/// is `sql_eq` (which bridges `Int` and `Float`) plus `NULL` unifying
/// with `NULL`. Every constant comparison the matchers make goes
/// through this one test.
pub(crate) fn unify_eq(a: &Value, b: &Value) -> bool {
    a.key() == b.key()
}

/// One reversible mutation, recorded by `bind`/`union` so `undo_to` can
/// restore the exact prior state.
#[derive(Debug, Clone)]
enum UndoEntry {
    /// `bind` inserted a fresh constant at this root.
    Bound(Var),
    /// `union` linked `ra` under `rb`; both classes' prior constants
    /// are restored on rollback.
    Linked {
        ra: Var,
        va: Option<Value>,
        rb: Var,
        vb: Option<Value>,
    },
}

/// A rollback point returned by [`Subst::mark`]; consumed by
/// [`Subst::undo_to`]. Marks are positions in the undo journal and must
/// be unwound innermost-first (LIFO), like the search stack that
/// produced them.
#[derive(Debug, Clone, Copy)]
pub struct SubstMark(usize);

/// A substitution: equivalence classes of variables, each optionally
/// bound to a constant.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    /// Union-find parent pointers (absent = self-root).
    parent: HashMap<Var, Var>,
    /// Constant binding of a *root* variable.
    value: HashMap<Var, Value>,
    /// Reversal log for `undo_to`.
    journal: Vec<UndoEntry>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// A rollback point: everything recorded after it can be unwound
    /// with [`Subst::undo_to`].
    pub fn mark(&self) -> SubstMark {
        SubstMark(self.journal.len())
    }

    /// Rolls the substitution back to `mark`, reversing every
    /// `bind`/`union` performed since. Marks must be unwound LIFO.
    pub fn undo_to(&mut self, mark: SubstMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal length checked") {
                UndoEntry::Bound(root) => {
                    self.value.remove(&root);
                }
                UndoEntry::Linked { ra, va, rb, vb } => {
                    self.parent.remove(&ra);
                    match va {
                        Some(v) => {
                            self.value.insert(ra, v);
                        }
                        None => {
                            self.value.remove(&ra);
                        }
                    }
                    match vb {
                        Some(v) => {
                            self.value.insert(rb, v);
                        }
                        None => {
                            self.value.remove(&rb);
                        }
                    }
                }
            }
        }
    }

    /// Empties the substitution for pooled reuse, retaining the maps'
    /// allocated capacity.
    pub fn reset(&mut self) {
        self.parent.clear();
        self.value.clear();
        self.journal.clear();
    }

    /// Finds the root of `v`'s equivalence class (path-compressing
    /// variant without mutation: walks the chain; chains stay short).
    pub fn root(&self, v: &Var) -> Var {
        let mut cur = v.clone();
        while let Some(p) = self.parent.get(&cur) {
            cur = p.clone();
        }
        cur
    }

    /// The constant bound to `v`'s class, if any.
    pub fn lookup(&self, v: &Var) -> Option<&Value> {
        self.value.get(&self.root(v))
    }

    /// Resolves a term: a bound variable becomes its constant, an
    /// unbound variable is normalized to its class root.
    pub fn resolve(&self, t: &Term) -> Term {
        match t {
            Term::Const(v) => Term::Const(v.clone()),
            Term::Var(v) => {
                let root = self.root(v);
                match self.value.get(&root) {
                    Some(val) => Term::Const(val.clone()),
                    None => Term::Var(root),
                }
            }
        }
    }

    /// Binds `v`'s class to a constant. Fails (returns `false`) when the
    /// class is already bound to a different constant.
    pub fn bind(&mut self, v: &Var, value: Value) -> bool {
        let root = self.root(v);
        match self.value.get(&root) {
            Some(existing) => unify_eq(existing, &value),
            None => {
                self.value.insert(root.clone(), value);
                self.journal.push(UndoEntry::Bound(root));
                true
            }
        }
    }

    /// Merges the classes of `a` and `b`. Fails when both classes carry
    /// conflicting constants.
    pub fn union(&mut self, a: &Var, b: &Var) -> bool {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra == rb {
            return true;
        }
        let va = self.value.get(&ra).cloned();
        let vb = self.value.get(&rb).cloned();
        match (va, vb) {
            (Some(x), Some(y)) if !unify_eq(&x, &y) => false,
            (va, vb) => {
                // rb becomes the root of the merged class
                self.parent.insert(ra.clone(), rb.clone());
                if let Some(x) = va.clone().or(vb.clone()) {
                    self.value.insert(rb.clone(), x);
                } else {
                    self.value.remove(&rb);
                }
                self.value.remove(&ra);
                self.journal.push(UndoEntry::Linked { ra, va, rb, vb });
                true
            }
        }
    }

    /// Unifies two terms under the current substitution.
    pub fn unify_terms(&mut self, a: &Term, b: &Term) -> bool {
        match (self.resolve(a), self.resolve(b)) {
            (Term::Const(x), Term::Const(y)) => unify_eq(&x, &y),
            (Term::Const(x), Term::Var(v)) | (Term::Var(v), Term::Const(x)) => self.bind(&v, x),
            (Term::Var(v), Term::Var(w)) => self.union(&v, &w),
        }
    }

    /// Unifies two equal-length tuples of terms.
    fn unify_tuples(&mut self, a: &[Term], b: &[Term]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b).all(|(x, y)| self.unify_terms(x, y))
    }

    /// Unifies two atoms (same relation, same arity, unifiable terms).
    pub fn unify_atoms(&mut self, a: &Atom, b: &Atom) -> bool {
        a.compatible_with(b) && self.unify_tuples(&a.terms, &b.terms)
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom {
            relation: atom.relation.clone(),
            terms: atom.terms.iter().map(|t| self.resolve(t)).collect(),
        }
    }

    /// Grounds an atom to values; `None` if any term is still unbound.
    pub fn ground_atom(&self, atom: &Atom) -> Option<Vec<Value>> {
        atom.terms
            .iter()
            .map(|t| match self.resolve(t) {
                Term::Const(v) => Some(v),
                Term::Var(_) => None,
            })
            .collect()
    }

    /// Grounds a tuple of terms; `None` if any is unbound.
    pub fn ground_tuple(&self, terms: &[Term]) -> Option<Vec<Value>> {
        terms
            .iter()
            .map(|t| match self.resolve(t) {
                Term::Const(v) => Some(v),
                Term::Var(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
impl Subst {
    /// Number of variable classes tracked.
    fn tracked_vars(&self) -> usize {
        let mut roots: std::collections::HashSet<Var> = std::collections::HashSet::new();
        for v in self.parent.keys() {
            roots.insert(self.root(v));
        }
        for v in self.value.keys() {
            roots.insert(self.root(v));
        }
        roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    #[test]
    fn bind_and_lookup() {
        let mut s = Subst::new();
        assert!(s.bind(&v("x"), Value::Int(1)));
        assert_eq!(s.lookup(&v("x")), Some(&Value::Int(1)));
        assert!(s.bind(&v("x"), Value::Int(1))); // idempotent
        assert!(!s.bind(&v("x"), Value::Int(2))); // conflict
    }

    #[test]
    fn union_propagates_values_both_directions() {
        let mut s = Subst::new();
        assert!(s.bind(&v("x"), Value::Int(5)));
        assert!(s.union(&v("x"), &v("y")));
        assert_eq!(s.lookup(&v("y")), Some(&Value::Int(5)));

        let mut s2 = Subst::new();
        assert!(s2.union(&v("a"), &v("b")));
        assert!(s2.bind(&v("a"), Value::from("Paris")));
        assert_eq!(s2.lookup(&v("b")), Some(&Value::from("Paris")));
    }

    #[test]
    fn union_conflict_detected() {
        let mut s = Subst::new();
        s.bind(&v("x"), Value::Int(1));
        s.bind(&v("y"), Value::Int(2));
        assert!(!s.union(&v("x"), &v("y")));
    }

    #[test]
    fn union_same_value_ok() {
        let mut s = Subst::new();
        s.bind(&v("x"), Value::Int(1));
        s.bind(&v("y"), Value::Int(1));
        assert!(s.union(&v("x"), &v("y")));
    }

    #[test]
    fn transitive_union() {
        let mut s = Subst::new();
        assert!(s.union(&v("a"), &v("b")));
        assert!(s.union(&v("b"), &v("c")));
        assert!(s.bind(&v("c"), Value::Int(9)));
        assert_eq!(s.lookup(&v("a")), Some(&Value::Int(9)));
        assert_eq!(s.root(&v("a")), s.root(&v("c")));
    }

    #[test]
    fn unify_terms_cases() {
        let mut s = Subst::new();
        // const-const
        assert!(s.unify_terms(&Term::constant(1i64), &Term::constant(1i64)));
        assert!(!s.unify_terms(&Term::constant(1i64), &Term::constant(2i64)));
        // numeric bridging
        assert!(s.unify_terms(&Term::constant(1i64), &Term::constant(1.0)));
        // var-const
        assert!(s.unify_terms(&Term::var("x"), &Term::constant("Paris")));
        assert_eq!(s.lookup(&v("x")), Some(&Value::from("Paris")));
        // var-var then const flows
        assert!(s.unify_terms(&Term::var("y"), &Term::var("z")));
        assert!(s.unify_terms(&Term::var("z"), &Term::constant(3i64)));
        assert_eq!(s.lookup(&v("y")), Some(&Value::Int(3)));
    }

    #[test]
    fn unify_the_papers_example() {
        // Kramer's constraint: Reservation('Jerry', ?k.fno)
        // Jerry's head:        Reservation('Jerry', ?j.fno)
        let constraint = Atom::new(
            "Reservation",
            vec![Term::constant("Jerry"), Term::var("k.fno")],
        );
        let head = Atom::new(
            "Reservation",
            vec![Term::constant("Jerry"), Term::var("j.fno")],
        );
        let mut s = Subst::new();
        assert!(s.unify_atoms(&constraint, &head));
        // the two fno variables are now the same class
        assert!(s.bind(&v("k.fno"), Value::Int(122)));
        assert_eq!(s.lookup(&v("j.fno")), Some(&Value::Int(122)));
    }

    #[test]
    fn unify_rejects_mismatched_atoms() {
        let a = Atom::new("R", vec![Term::var("x")]);
        let b = Atom::new("S", vec![Term::var("y")]);
        let c = Atom::new("R", vec![Term::var("x"), Term::var("y")]);
        let mut s = Subst::new();
        assert!(!s.unify_atoms(&a, &b));
        assert!(!s.unify_atoms(&a, &c));
        // constant clash
        let d = Atom::new("R", vec![Term::constant("Kramer")]);
        let e = Atom::new("R", vec![Term::constant("Jerry")]);
        assert!(!s.unify_atoms(&d, &e));
    }

    #[test]
    fn resolve_and_ground() {
        let mut s = Subst::new();
        s.bind(&v("x"), Value::Int(1));
        let atom = Atom::new(
            "R",
            vec![Term::var("x"), Term::var("y"), Term::constant(0i64)],
        );
        let applied = s.apply_atom(&atom);
        assert_eq!(applied.terms[0], Term::constant(1i64));
        assert!(matches!(applied.terms[1], Term::Var(_)));
        assert!(s.ground_atom(&atom).is_none());
        s.bind(&v("y"), Value::Int(2));
        assert_eq!(
            s.ground_atom(&atom),
            Some(vec![Value::Int(1), Value::Int(2), Value::Int(0)])
        );
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut s = Subst::new();
        s.bind(&v("x"), Value::Int(1));
        let snapshot = s.clone();
        s.bind(&v("y"), Value::Int(2));
        assert!(snapshot.lookup(&v("y")).is_none());
        assert_eq!(snapshot.lookup(&v("x")), Some(&Value::Int(1)));
    }

    #[test]
    fn undo_restores_bind_and_union() {
        let mut s = Subst::new();
        assert!(s.bind(&v("x"), Value::Int(1)));
        let mark = s.mark();
        assert!(s.bind(&v("y"), Value::Int(2)));
        assert!(s.union(&v("x"), &v("z")));
        assert!(s.union(&v("z"), &v("w")));
        assert_eq!(s.lookup(&v("w")), Some(&Value::Int(1)));
        s.undo_to(mark);
        // everything after the mark is gone...
        assert!(s.lookup(&v("y")).is_none());
        assert_ne!(s.root(&v("x")), s.root(&v("z")));
        assert_ne!(s.root(&v("z")), s.root(&v("w")));
        // ...and everything before it survives
        assert_eq!(s.lookup(&v("x")), Some(&Value::Int(1)));
    }

    #[test]
    fn undo_restores_union_carried_values() {
        // union moves `ra`'s constant onto `rb`; rollback must move it
        // back without leaking the value onto the other class.
        let mut s = Subst::new();
        assert!(s.bind(&v("a"), Value::from("Paris")));
        let mark = s.mark();
        assert!(s.union(&v("a"), &v("b")));
        assert_eq!(s.lookup(&v("b")), Some(&Value::from("Paris")));
        s.undo_to(mark);
        assert_eq!(s.lookup(&v("a")), Some(&Value::from("Paris")));
        assert!(s.lookup(&v("b")).is_none());
    }

    #[test]
    fn nested_marks_unwind_lifo() {
        let mut s = Subst::new();
        let outer = s.mark();
        assert!(s.bind(&v("x"), Value::Int(1)));
        let inner = s.mark();
        assert!(s.bind(&v("y"), Value::Int(2)));
        s.undo_to(inner);
        assert!(s.lookup(&v("y")).is_none());
        assert_eq!(s.lookup(&v("x")), Some(&Value::Int(1)));
        // a failed bind journals nothing, so undo stays exact
        assert!(!s.bind(&v("x"), Value::Int(9)));
        s.undo_to(outer);
        assert!(s.lookup(&v("x")).is_none());
        assert_eq!(s.tracked_vars(), 0);
    }

    #[test]
    fn reset_clears_for_reuse() {
        let mut s = Subst::new();
        s.bind(&v("x"), Value::Int(1));
        s.union(&v("x"), &v("y"));
        s.reset();
        assert!(s.lookup(&v("x")).is_none());
        assert_eq!(s.tracked_vars(), 0);
        assert_eq!(s.mark().0, 0);
    }

    #[test]
    fn tracked_vars_counts_classes() {
        let mut s = Subst::new();
        s.union(&v("a"), &v("b"));
        s.bind(&v("c"), Value::Int(1));
        assert_eq!(s.tracked_vars(), 2);
    }
}
