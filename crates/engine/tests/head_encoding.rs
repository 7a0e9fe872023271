//! Derived heads are built in id space: a head cell that is a variable
//! bound by a scan carries the id the scan read, so saturating a rule
//! set performs no dictionary encodes for such heads, and the encoding
//! cost cannot grow with the number of derived tuples.
//!
//! This file deliberately holds a single `#[test]`: the dictionary
//! counters are process-global, and integration tests get their own
//! process — concurrent `#[test]` threads would pollute the deltas.

use gbc_ast::{Atom, Literal, Rule, Symbol, Term, Value};
use gbc_engine::seminaive::Seminaive;
use gbc_storage::dictionary::dict_stats;
use gbc_storage::Database;

/// `tc(X, Y) <- e(X, Y).  tc(X, Z) <- tc(X, Y), e(Y, Z).` — every head
/// cell is a variable.
fn tc_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            Atom::new("tc", vec![Term::var(0), Term::var(1)]),
            vec![Literal::pos("e", vec![Term::var(0), Term::var(1)])],
            vec!["X".into(), "Y".into()],
        ),
        Rule::new(
            Atom::new("tc", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("tc", vec![Term::var(0), Term::var(1)]),
                Literal::pos("e", vec![Term::var(1), Term::var(2)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into()],
        ),
    ]
}

/// Saturate the transitive closure of an `n`-edge chain; return the
/// derived tuple count and the encode hits the saturation made.
fn saturate_chain(n: i64) -> (usize, u64) {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_values("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    let before = dict_stats();
    Seminaive::new(tc_rules()).saturate(&mut db).unwrap();
    let encodes = dict_stats().since(&before).encode_hits;
    (db.count(Symbol::intern("tc")), encodes)
}

#[test]
fn variable_heads_encode_independent_of_derived_tuples() {
    let (small, small_hits) = saturate_chain(64);
    let (large, large_hits) = saturate_chain(512);
    assert_eq!((small, large), (64 * 65 / 2, 512 * 513 / 2));
    assert_eq!(small_hits, large_hits, "head encodes must not scale with derived tuples");
}
