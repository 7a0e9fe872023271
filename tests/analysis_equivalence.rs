//! Analysis-specialization equivalence sweep: whole-program analysis
//! (dead-rule pruning, folded constants, the decode-free `Int` cost
//! heap, the columnar feed batch kernel) is a pure optimization. Every
//! shipped program must produce byte-identical results with analysis on
//! and off (`GBC_NO_ANALYZE=1` territory, where every feed takes the
//! frame-based oracle), across worker thread counts — same canonical
//! relation dump, same chosen records, same semantic counters.
//!
//! Two counters *may* differ: `heap_int_fast_compares` (the point of
//! the Int-heap specialization) and `heap_batch_pushes` (rows that
//! entered `Q_r` through the columnar kernel). Both are zeroed on both
//! sides before the snapshot comparison and asserted positive/zero
//! where analysis pins them.

use gbc_core::exec::GoalPair;
use gbc_core::{ChosenRecord, GreedyConfig};
use gbc_storage::Database;
use gbc_telemetry::{Snapshot, Telemetry};

/// The ci.sh observability groupings: every shipped program with the
/// EDB file(s) it runs against, plus three independent programs loaded
/// together (several next rules feeding in one γ loop).
const PROGRAMS: [&[&str]; 10] = [
    &["programs/prim.dl", "programs/graph_small.dl"],
    &["programs/spanning.dl", "programs/graph_small.dl"],
    &["programs/kruskal.dl", "programs/graph_small.dl"],
    &["programs/sort.dl"],
    &["programs/matching.dl"],
    &["programs/huffman.dl"],
    &["programs/scheduling.dl"],
    &["programs/tsp.dl"],
    &["programs/assignment.dl"],
    &["programs/prim.dl", "programs/graph_small.dl", "programs/sort.dl"],
];

/// Everything that must be invariant under the analysis switch, plus
/// the two counters that are allowed to move.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    canonical: String,
    /// The decoded chosen log, each record with the (L, R) pairs its
    /// expanded rule's choice goals derive from it.
    chosen: Vec<(ChosenRecord, Vec<GoalPair>)>,
    snapshot: Snapshot,
}

/// The raw values of the two which-path counters, zeroed inside the
/// fingerprint so the equality assertion pins everything else.
struct PathCounters {
    int_fast: u64,
    batch_pushes: u64,
}

fn compile_group(files: &[&str]) -> gbc_core::Compiled {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut source = String::new();
    for f in files {
        let path = format!("{root}/{f}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        source.push_str(&text);
        source.push('\n');
    }
    let program = gbc_parser::parse_program(&source).expect("shipped program parses");
    gbc_core::compile(program).expect("shipped program compiles")
}

/// Run one group, mirroring `gbc run`: greedy when planned, generic
/// otherwise.
fn run_group(files: &[&str], threads: usize, analyze: bool) -> (RunFingerprint, PathCounters) {
    let compiled = compile_group(files);
    let edb = Database::new();
    let tel = Telemetry::enabled();
    let (db, chosen) = if compiled.has_greedy_plan() {
        let config = GreedyConfig { threads, analyze, ..GreedyConfig::default() };
        let run = compiled.run_greedy_telemetry(&edb, config, &tel).expect("greedy run");
        (run.db, run.chosen.records())
    } else {
        // The generic fixpoint has no analysis-gated specializations;
        // it anchors the sweep so every shipped program is covered.
        let mut fixpoint =
            gbc_engine::ChoiceFixpoint::new(compiled.expanded(), &edb).expect("fixpoint");
        fixpoint.set_telemetry(tel.clone());
        fixpoint.run(&mut gbc_engine::DeterministicFirst).expect("fixpoint run");
        let chosen = gbc_core::verify::records_from_engine(&fixpoint, compiled.expanded());
        (fixpoint.into_database(), chosen.records())
    };
    let mut snapshot = tel.snapshot();
    let raw = PathCounters {
        int_fast: snapshot.heap_int_fast_compares,
        batch_pushes: snapshot.heap_batch_pushes,
    };
    snapshot.heap_int_fast_compares = 0;
    snapshot.heap_batch_pushes = 0;
    let chosen = chosen
        .into_iter()
        .map(|rec| {
            let pairs = rec.pairs(&compiled.expanded().rules[rec.rule_idx]).expect("pairs");
            (rec, pairs)
        })
        .collect();
    (RunFingerprint { canonical: db.canonical_form(), chosen, snapshot }, raw)
}

#[test]
fn analysis_specializations_change_nothing_observable() {
    for files in PROGRAMS {
        for threads in [1, 4] {
            let (on, _) = run_group(files, threads, true);
            let (off, off_raw) = run_group(files, threads, false);
            assert!(!on.canonical.is_empty(), "{files:?} produced no facts");
            assert_eq!(
                on, off,
                "{files:?} diverged between analysis on/off at {threads} thread(s)"
            );
            assert_eq!(
                off_raw.int_fast, 0,
                "{files:?}: analysis off must never take the Int heap fast path"
            );
            // The batch kernel rides on the analysis-gated fast feed,
            // so analysis off feeds every row through the frame oracle.
            assert_eq!(
                off_raw.batch_pushes, 0,
                "{files:?}: analysis off must never take the batch feed path"
            );
        }
    }
}

#[test]
fn batch_kernel_engages_on_fast_feed_programs() {
    // prim's feed (source scan + `Y != 0` pre-check) compiles to
    // columnar checks, so the batch kernel must actually run.
    let (_, raw) = run_group(&["programs/prim.dl", "programs/graph_small.dl"], 1, true);
    assert!(raw.batch_pushes > 0, "prim: fast feed is columnar, the batch kernel should engage");
}

#[test]
fn int_cost_heap_engages_on_integer_cost_programs() {
    for files in [&["programs/prim.dl", "programs/graph_small.dl"][..], &["programs/sort.dl"][..]] {
        let (_, raw) = run_group(files, 1, true);
        assert!(
            raw.int_fast > 0,
            "{files:?}: cost column is provably int, the fast heap should engage"
        );
    }
}

#[test]
fn no_analyze_env_var_flips_the_default() {
    // The env var is read at `GreedyConfig::default()` time; exercise
    // both explicit values instead of mutating the process environment
    // (tests run concurrently).
    let on = GreedyConfig { analyze: true, ..GreedyConfig::default() };
    let off = GreedyConfig { analyze: false, ..GreedyConfig::default() };
    assert!(on.analyze && !off.analyze);
    assert_eq!(on.max_steps, off.max_steps);
}
