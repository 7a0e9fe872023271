//! The fact store: predicate symbol → relation.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

use gbc_ast::{Symbol, Value};
use gbc_telemetry::Metrics;

use crate::dictionary;
use crate::provenance::ProvenanceArena;
use crate::relation::Relation;
use crate::tuple::Row;

/// A database instance. Relations are keyed by predicate [`Symbol`];
/// iteration over predicates is in symbol (name) order, which keeps
/// printed models and test expectations stable.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<Symbol, Relation>,
    /// Returned by [`Database::relation`] for absent predicates, so
    /// lookups never allocate or panic.
    empty: Relation,
    /// Counter registry handed to every relation (existing and future).
    metrics: Option<Arc<Metrics>>,
    /// Derivation recorder. Clones share it, so attaching an arena to
    /// the EDB before a run flows into every executor-cloned database.
    provenance: Option<Arc<ProvenanceArena>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Attach a counter registry: every current relation reports index
    /// traffic to it, as will relations created later.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        for rel in self.relations.values_mut() {
            rel.set_metrics(Arc::clone(&metrics));
        }
        self.metrics = Some(metrics);
    }

    /// Attach a provenance arena. The executors consult
    /// [`Database::provenance`] and record derivations when present.
    pub fn set_provenance(&mut self, arena: Arc<ProvenanceArena>) {
        self.provenance = Some(arena);
    }

    /// The attached provenance arena, if any.
    pub fn provenance(&self) -> Option<&Arc<ProvenanceArena>> {
        self.provenance.as_ref()
    }

    fn fresh_relation(metrics: &Option<Arc<Metrics>>) -> Relation {
        let mut rel = Relation::new();
        if let Some(m) = metrics {
            rel.set_metrics(Arc::clone(m));
        }
        rel
    }

    /// Insert `pred(row)`. Returns `false` on duplicate.
    pub fn insert(&mut self, pred: Symbol, row: Row) -> bool {
        let metrics = &self.metrics;
        self.relations.entry(pred).or_insert_with(|| Database::fresh_relation(metrics)).insert(row)
    }

    /// Insert from plain values.
    pub fn insert_values(&mut self, pred: impl Into<Symbol>, values: Vec<Value>) -> bool {
        self.insert(pred.into(), Row::new(values))
    }

    /// The relation for `pred`, or an empty relation if absent.
    pub fn relation(&self, pred: Symbol) -> &Relation {
        self.relations.get(&pred).unwrap_or(&self.empty)
    }

    /// Mutable relation handle (creates it if missing).
    pub fn relation_mut(&mut self, pred: Symbol) -> &mut Relation {
        let metrics = &self.metrics;
        self.relations.entry(pred).or_insert_with(|| Database::fresh_relation(metrics))
    }

    /// Does the database contain the fact `pred(row)`?
    pub fn contains(&self, pred: Symbol, row: &Row) -> bool {
        self.relations.get(&pred).is_some_and(|r| r.contains(row))
    }

    /// All predicates with at least one fact, in name order.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations.keys().copied()
    }

    /// Row count for one predicate.
    pub fn count(&self, pred: Symbol) -> usize {
        self.relations.get(&pred).map_or(0, Relation::len)
    }

    /// Total fact count.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// All facts of one predicate as decoded rows — convenience for
    /// model comparison in tests.
    pub fn facts_of(&self, pred: Symbol) -> Vec<Row> {
        self.relation(pred).iter().collect()
    }

    /// Iterate over every fact in the database, decoded (a boundary
    /// operation — storage holds dictionary ids).
    pub fn iter_all(&self) -> impl Iterator<Item = (Symbol, Row)> + '_ {
        self.relations.iter().flat_map(|(&p, rel)| rel.iter().map(move |r| (p, r)))
    }

    /// Render the database as sorted ground facts, one per line —
    /// the canonical form used in golden tests and printed by `gbc run`.
    ///
    /// Rendered straight from the column arenas: each relation's cells
    /// are borrowed from the dictionary once ([`dictionary::decode_ref`],
    /// no clone), its row positions are sorted by those cells column by
    /// column — the order [`dictionary::cmp_ids`] gives, and the order
    /// of decoded rows — and every line is written into one buffer.
    pub fn canonical_form(&self) -> String {
        let size: usize = self
            .relations
            .iter()
            .map(|(p, rel)| rel.len() * (p.as_str().len() + 3 + 4 * rel.arity().unwrap_or(0)))
            .sum();
        let mut out = String::with_capacity(size);
        for (p, rel) in &self.relations {
            let rows = rel.rows();
            let arity = rows.arity();
            let cells: Vec<&Value> = (0..rows.len())
                .flat_map(|r| (0..arity).map(move |c| dictionary::decode_ref(rows.cell(r, c))))
                .collect();
            let row = |r: usize| &cells[r * arity..(r + 1) * arity];
            let mut order: Vec<usize> = (0..rows.len()).collect();
            // Rows are distinct, so an unstable sort is deterministic.
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            for r in order {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(p.as_str());
                for (c, v) in row(r).iter().enumerate() {
                    out.push(if c == 0 { '(' } else { ',' });
                    write_value(&mut out, v);
                }
                if arity > 0 {
                    out.push(')');
                }
                out.push('.');
            }
        }
        out
    }
}

/// Append `v` exactly as its `Display` renders it, without the
/// formatting machinery for the common atoms.
fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Nil => out.push_str("nil"),
        Value::Int(i) => {
            let mut digits = [0u8; 20];
            let mut n = i.unsigned_abs();
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            if *i < 0 {
                out.push('-');
            }
            out.extend(digits[at..].iter().map(|&d| d as char));
        }
        Value::Sym(s) => out.push_str(s.as_str()),
        Value::Str(_) | Value::Func(..) => {
            let _ = write!(out, "{v}");
        }
    }
}

impl std::fmt::Display for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_form())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        assert!(db.insert_values("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]));
        assert!(!db.insert_values("g", vec![Value::sym("a"), Value::sym("b"), Value::int(1)]));
        let g = Symbol::intern("g");
        assert_eq!(db.count(g), 1);
        assert!(db.contains(g, &Row::new(vec![Value::sym("a"), Value::sym("b"), Value::int(1)])));
    }

    #[test]
    fn missing_relation_is_empty_not_panic() {
        let db = Database::new();
        let nope = Symbol::intern("no_such_pred");
        assert_eq!(db.relation(nope).len(), 0);
        assert_eq!(db.count(nope), 0);
    }

    #[test]
    fn canonical_form_is_sorted_and_stable() {
        let mut db = Database::new();
        db.insert_values("b", vec![Value::int(2)]);
        db.insert_values("b", vec![Value::int(1)]);
        db.insert_values("a", vec![Value::sym("x")]);
        assert_eq!(db.canonical_form(), "a(x).\nb(1).\nb(2).");

        // Every value shape, inserted out of order: `nil` and negative
        // ints, symbols interned in reverse lexicographic order, a
        // string needing escapes, a nested functor; ties on the first
        // column fall through to the second; a zero-arity relation
        // renders bare and an empty one renders nothing.
        db.insert_values(
            "m",
            vec![Value::func(
                "t",
                vec![Value::func("t", vec![Value::int(1), Value::sym("a")]), Value::Nil],
            )],
        );
        db.insert_values("m", vec![Value::str("a\"b\\c\nd")]);
        db.insert_values("m", vec![Value::sym("zz_canonical_probe")]);
        db.insert_values("m", vec![Value::sym("aa_canonical_probe")]);
        db.insert_values("m", vec![Value::int(2)]);
        db.insert_values("m", vec![Value::int(-3)]);
        db.insert_values("m", vec![Value::Nil]);
        db.insert_values("p", vec![Value::int(1), Value::sym("zz_canonical_probe")]);
        db.insert_values("p", vec![Value::int(1), Value::sym("aa_canonical_probe")]);
        db.insert_values("p", vec![Value::int(-1), Value::sym("zz_canonical_probe")]);
        db.insert_values("done", vec![]);
        db.relation_mut(Symbol::intern("empty"));
        assert_eq!(
            db.canonical_form(),
            r#"a(x).
b(1).
b(2).
done.
m(nil).
m(-3).
m(2).
m(aa_canonical_probe).
m(zz_canonical_probe).
m("a\"b\\c\nd").
m(t(t(1,a),nil)).
p(-1,zz_canonical_probe).
p(1,aa_canonical_probe).
p(1,zz_canonical_probe)."#
        );
    }

    #[test]
    fn total_facts_sums_relations() {
        let mut db = Database::new();
        db.insert_values("p", vec![Value::int(1)]);
        db.insert_values("q", vec![Value::int(1)]);
        db.insert_values("q", vec![Value::int(2)]);
        assert_eq!(db.total_facts(), 3);
        let preds: Vec<String> = db.predicates().map(|s| s.to_string()).collect();
        assert_eq!(preds, vec!["p", "q"]);
    }

    #[test]
    fn zero_arity_facts_render_bare() {
        let mut db = Database::new();
        db.insert_values("done", vec![]);
        assert_eq!(db.canonical_form(), "done.");
    }
}
