//! The chosen log: every committed choice of a run as `(rule index,
//! chosen_i argument tuple)`.
//!
//! `tests/goldens/chosen_records.golden` pins the decoded records of
//! every shipped program, with the run's stable-model verdict; it was
//! captured before the greedy executor logged its commits as dictionary
//! ids. Regenerate with `GBC_BLESS=1 cargo test --test chosen_log`.
//!
//! The id-space FD memos are checked on the goal shapes the shipped
//! programs barely reach: functor terms in choice goals, and goals over
//! the stage variable on either side.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use gbc_ast::Value;
use gbc_core::{GreedyConfig, GreedyRun};
use gbc_storage::dictionary::{dict_stats, try_encode};
use gbc_storage::{Database, DICT_MISS};

/// The dictionary is process-global: tests that read its counters hold
/// this lock so no other test of this binary interns meanwhile.
static DICTIONARY: Mutex<()> = Mutex::new(());

/// The shipped program groups, as `tests/analysis_equivalence.rs` runs
/// them.
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

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn compile_group(files: &[&str]) -> gbc_core::Compiled {
    let mut source = String::new();
    for f in files {
        let path = repo_root().join(f);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        source.push_str(&text);
        source.push('\n');
    }
    let program = gbc_parser::parse_program(&source).expect("shipped program parses");
    gbc_core::compile(program).expect("shipped program compiles")
}

fn records(run: &GreedyRun) -> Vec<(usize, Vec<Value>)> {
    run.chosen.records().into_iter().map(|r| (r.rule_idx, r.chosen_args)).collect()
}

#[test]
fn chosen_records_are_golden_and_verify() {
    let _dict = DICTIONARY.lock().unwrap_or_else(|e| e.into_inner());
    let mut text = String::new();
    for files in PROGRAMS {
        let compiled = compile_group(files);
        let edb = Database::new();
        let run = compiled.run(&edb).expect("run");
        let stable = gbc_core::verify_stable_model(compiled.program(), &edb, &run).expect("verify");
        let _ = writeln!(text, "== {} (stable model: {stable})", files.join(" "));
        for (rule_idx, args) in records(&run) {
            let args: Vec<String> = args.iter().map(Value::to_string).collect();
            let _ = writeln!(text, "{rule_idx}\t{}", args.join(", "));
        }
    }
    let path = repo_root().join("tests/goldens/chosen_records.golden");
    if std::env::var_os("GBC_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {} — run with GBC_BLESS=1", path.display()));
    assert!(golden == text, "chosen records drifted from {}", path.display());
}

/// Functor terms on both sides of the FD goals (one with a constant
/// inside): two goals, so the queue keeps every arc and the memos must
/// reject the losers.
const FUNCTOR_GOALS: &str = "
m(nil, nil, 0, 0).
m(X, Y, C, I) <- next(I), e(X, Y, C), least(C, I), choice(f(X), Y), choice(g(Y, k), X).
e(a, b, 5). e(a, c, 1). e(b, c, 2). e(b, a, 7). e(c, a, 3). e(c, b, 4). e(d, b, 6). e(d, c, 8).
";

/// Goals over the stage variable: `choice(X, I)` (stage on the right,
/// as in Huffman) and `choice(I, Y)` (stage on the left). Stages start
/// far above every cost so a stray stage intern is visible.
const STAGE_GOALS: &str = "
pick(nil, nil, 0, 900000).
pick(X, Y, C, I) <- next(I), h(X, Y, C), least(C, I), choice(X, I), choice(Y, X), choice(I, Y).
h(a, p, 5). h(a, q, 9). h(b, p, 7). h(b, r, 8). h(c, q, 12). h(c, s, 3).
";

#[test]
fn id_space_memos_match_the_generic_fixpoint() {
    let _dict = DICTIONARY.lock().unwrap_or_else(|e| e.into_inner());
    // STAGE_GOALS commits stages up to 900003; its last γ round tries
    // 900004 and rejects every candidate through the stage FD.
    let cases =
        [("functor goals", FUNCTOR_GOALS, None), ("stage goals", STAGE_GOALS, Some(900_004))];
    for (name, src, untried_stage) in cases {
        let compiled = gbc_core::compile(gbc_parser::parse_program(src).unwrap()).unwrap();
        assert!(compiled.has_greedy_plan(), "{name}: {:?}", compiled.plan_error());
        let edb = Database::new();
        let config = |analyze| GreedyConfig { analyze, ..GreedyConfig::default() };
        // The first run interns the program's facts and every committed
        // stage; a rerun, with or without analysis, interns nothing.
        let warm = compiled.run_greedy_with(&edb, config(true)).unwrap();
        let before = dict_stats();
        let on = compiled.run_greedy_with(&edb, config(true)).unwrap();
        let off = compiled.run_greedy_with(&edb, config(false)).unwrap();
        assert_eq!(dict_stats().since(&before).dict_entries, 0, "{name}: a rerun interned");
        if let Some(stage) = untried_stage {
            // The FD test on the untried stage interned nothing (the
            // generic fixpoint below does intern it).
            assert_ne!(try_encode(&Value::int(stage - 1)), DICT_MISS);
            assert_eq!(try_encode(&Value::int(stage)), DICT_MISS, "{name}: the FD test interned");
        }
        let generic = compiled.run_generic(&edb).unwrap();
        let model = generic.db.canonical_form();
        for run in [&warm, &on, &off] {
            assert_eq!(run.db.canonical_form(), model, "{name}: greedy vs generic");
            assert_eq!(records(run), records(&on), "{name}: chosen log");
            assert!(run.snapshot.diffchoice_rejections > 0, "{name}: no FD conflict exercised");
        }
        assert!(gbc_core::verify_stable_model(compiled.program(), &edb, &on).unwrap(), "{name}");
    }
}
