//! The **Alternating Stage-Choice Fixpoint** executor (Sections 4 & 6).
//!
//! For a stage-stratified program whose next rules fit the Section 6
//! template
//!
//! ```text
//! next(I), p(X̄, J), [J < I | I = J + 1], [least(C, I)], [choice …]
//! ```
//!
//! the executor alternates:
//!
//! * `Q` — seminaive saturation of the flat rules;
//! * γ — *retrieve-least* from the rule's **D_r = (R, Q, L)** structure:
//!   pop the cheapest candidate, re-check the stage comparisons and the
//!   choice FDs (the on-the-fly `diffChoice` test), discard failures to
//!   `R_r`, and commit the first survivor as the next stage.
//!
//! New source facts flow into `Q_r` as they are derived, keyed by their
//! *r-congruence class* (one queued representative per class — see
//! [`gbc_storage::rql`]). Insert and retrieve-least are `O(log |Q|)`,
//! which is what delivers the paper's complexity results: Prim in
//! `O(e log e)`, sorting in `O(n log n)` (the "insertion sort that runs
//! as heap-sort"), matching in `O(e log e)`.
//!
//! Congruence keys are derived from the rule's choice FDs per the
//! paper's definition, with a soundness guard: an argument column is
//! dropped as "functionally determined" only while the determining
//! columns remain in the key, and the cost column is dropped only when
//! the rule has choice goals at all (for plain `next`+`least` rules like
//! sorting, every source fact is its own class — the behaviour the
//! paper's sorting analysis describes).

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbc_ast::{CmpOp, Literal, Program, Rule, Symbol, Term, Value, VarId};
use gbc_engine::bindings::Bindings;
use gbc_engine::eval::{
    eval_expr, eval_term, instantiate_head, match_term, match_term_id, parent_rows,
};
use gbc_engine::extrema::{collect_matches_plan, filter_extrema};
use gbc_engine::plan::{columnar_feed_spec, FeedCheck, HeadPlan, PlanCache, RuleStatics};
use gbc_engine::pool::{PoolReport, PoolStats};
use gbc_engine::seminaive::Seminaive;
use gbc_storage::dictionary::{self, decode_ref};
use gbc_storage::{Database, FxHashMap, FxHashSet, Row, RowsView, Rql, DICT_MISS, NO_GOAL};
use gbc_telemetry::{DiscardReason, Snapshot, Telemetry, TraceEvent};

use crate::analysis::stage::StageInfo;
use crate::analysis::{reachability, typeinfer};
use crate::error::CoreError;
use crate::rewrite::choice::choice_vars;

/// Execution limits and switches.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// γ-step budget.
    pub max_steps: u64,
    /// Worker threads for flat-rule saturation. `1` (the default) runs
    /// the exact serial engine; higher counts fan saturation rounds out
    /// over `gbc_engine::pool` with byte-identical results. The γ loop
    /// — feed, choose, commit and exit rules — is serial regardless
    /// (see DESIGN.md §9).
    pub threads: usize,
    /// Run whole-program type/reachability analysis at setup and apply
    /// its specializations: dead-rule pruning, folded constants, the
    /// decode-free `Int` cost heap, and the columnar feed batch
    /// kernel. On by default; `GBC_NO_ANALYZE=1` in the environment (or
    /// setting this to `false`) reverts to the unanalyzed engine —
    /// results and counters are byte-identical either way.
    pub analyze: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            max_steps: 100_000_000,
            threads: 1,
            analyze: std::env::var_os("GBC_NO_ANALYZE").is_none(),
        }
    }
}

impl GreedyConfig {
    /// The default configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> GreedyConfig {
        GreedyConfig { threads, ..GreedyConfig::default() }
    }
}

/// One committed choice, with the bookkeeping needed to reconstruct the
/// `chosen_i` facts of the rewritten program (Theorem 1 validation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChosenRecord {
    /// Index of the firing rule in the original (and expanded) program.
    pub rule_idx: usize,
    /// The expanded rule's choice variables, evaluated.
    pub chosen_args: Vec<Value>,
}

impl ChosenRecord {
    /// The committed (L, R) value pair of every choice goal of `rule`
    /// — the *expanded* rule that fired — derived from the chosen
    /// arguments: every goal term is built from choice variables alone.
    pub fn pairs(&self, rule: &Rule) -> Result<Vec<GoalPair>, CoreError> {
        let mut b = Bindings::new(rule.num_vars());
        for (v, val) in choice_vars(rule).into_iter().zip(&self.chosen_args) {
            b.bind(v, val.clone());
        }
        eval_goal_pairs(rule, &b)
    }
}

/// The committed choices of a run, in firing order. The greedy
/// executor logs a next rule's commit as the dictionary ids of the
/// expanded rule's choice variables; values are decoded only when the
/// log is read ([`ChosenLog::records`]). Exit rules and the generic
/// Choice Fixpoint log values.
#[derive(Clone, Debug, Default)]
pub struct ChosenLog {
    entries: Vec<(usize, ChosenArgs)>,
    /// The id tuples of [`ChosenArgs::Ids`] entries, back to back.
    ids: Vec<u32>,
}

#[derive(Clone, Debug)]
enum ChosenArgs {
    Ids(Range<usize>),
    Values(Vec<Value>),
}

impl ChosenLog {
    /// Log a commit of `rule_idx` by the ids of its chosen arguments.
    pub fn push_ids(&mut self, rule_idx: usize, ids: impl IntoIterator<Item = u32>) {
        let start = self.ids.len();
        self.ids.extend(ids);
        self.entries.push((rule_idx, ChosenArgs::Ids(start..self.ids.len())));
    }

    /// Log a commit of `rule_idx` by its chosen argument values.
    pub fn push_values(&mut self, rule_idx: usize, args: Vec<Value>) {
        self.entries.push((rule_idx, ChosenArgs::Values(args)));
    }

    /// Number of commits logged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No commit logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove and return the last commit.
    pub fn pop(&mut self) -> Option<ChosenRecord> {
        let record = self.decode(self.entries.last()?);
        if let Some((_, ChosenArgs::Ids(range))) = self.entries.pop() {
            self.ids.truncate(range.start);
        }
        Some(record)
    }

    /// The decoded records, in firing order.
    pub fn records(&self) -> Vec<ChosenRecord> {
        self.entries.iter().map(|e| self.decode(e)).collect()
    }

    fn decode(&self, (rule_idx, args): &(usize, ChosenArgs)) -> ChosenRecord {
        let chosen_args = match args {
            ChosenArgs::Ids(range) => {
                self.ids[range.clone()].iter().map(|&id| decode_ref(id).clone()).collect()
            }
            ChosenArgs::Values(args) => args.clone(),
        };
        ChosenRecord { rule_idx: *rule_idx, chosen_args }
    }
}

/// Executor statistics (exposed for the benchmark harness and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyStats {
    /// Committed γ steps.
    pub gamma_steps: u64,
    /// Candidates popped from some `Q_r` and discarded to `R_r`.
    pub discarded: u64,
    /// Facts derived by flat-rule saturation.
    pub flat_new_facts: u64,
    /// Largest `Q_r` size observed.
    pub queue_peak: usize,
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct GreedyRun {
    /// The computed choice model (EDB + all derived facts).
    pub db: Database,
    /// The committed choices, in firing order.
    pub chosen: ChosenLog,
    /// Counters.
    pub stats: GreedyStats,
    /// The full telemetry counter snapshot of the run.
    pub snapshot: Snapshot,
    /// Flat-saturation worker-pool occupancy report (busy/idle/steal
    /// lanes, chunk-size histogram, merge time). `None` for serial runs
    /// — the pool never spins up, so there is nothing to report.
    pub pool: Option<PoolReport>,
}

/// The compiled plan for one next rule.
#[derive(Clone, Debug)]
pub struct NextPlan {
    /// Rule index in the original program.
    pub rule_idx: usize,
    rule: Rule,
    expanded: Rule,
    head_pred: Symbol,
    /// The head compiled for id-space instantiation at commit.
    head: HeadPlan,
    stage_pos: usize,
    stage_var: VarId,
    source_lit: usize,
    source_pred: Symbol,
    /// Cost variable (from `least`/`most`), if any, with its source
    /// column.
    cost: Option<(VarId, usize)>,
    /// True for `most` (retrieve the maximum — the dual structure).
    descending: bool,
    /// Chain mode: the rule pins `I = J + 1` (TSP-style), so stale
    /// stages must stay distinct congruence classes.
    pub chain: bool,
    /// Source columns forming the congruence key.
    pub cong_cols: Vec<usize>,
    /// Comparison literals evaluable from source variables alone.
    pre_checks: Vec<Literal>,
    /// Comparison literals needing the stage variable.
    post_checks: Vec<Literal>,
    /// The original rule's choice goals.
    choice_goals: Vec<(Vec<Term>, Vec<Term>)>,
    /// Per choice goal: the variables of `L` and of `R`, in first-
    /// occurrence order. Herbrand constructors are injective, so two
    /// bindings give equal goal tuples exactly when they give equal
    /// variable tuples — the FD memos key on these id rows.
    goal_vars: Vec<(Vec<VarId>, Vec<VarId>)>,
    /// The expanded rule's choice variables: the `chosen_i` tuple.
    chosen_vars: Vec<VarId>,
    /// The feed can skip per-row `Bindings` entirely: every source
    /// argument is a bare variable, a repeat of one, or ground, and
    /// every pre-check compares source columns and constants — so each
    /// row's admission reduces to the columnar [`FeedCheck`] sequence
    /// below, the cost/key columns are read straight off the arena, and
    /// the phase's candidates enter `Q_r` through one
    /// [`Rql::extend_batch`] call. Applied only when analysis is on
    /// ([`GreedyConfig::analyze`]); surfaced to users as the GBC032
    /// note.
    fast_feed: bool,
    /// The compiled per-row checks of the fast path (empty for the
    /// original all-distinct-variables shape, where every row feeds).
    feed_checks: Vec<FeedCheck>,
}

impl NextPlan {
    /// Head predicate.
    pub fn head_pred(&self) -> Symbol {
        self.head_pred
    }

    /// Source predicate feeding `Q_r`.
    pub fn source_pred(&self) -> Symbol {
        self.source_pred
    }

    /// Source column of the extremum cost, if any.
    pub fn cost_col(&self) -> Option<usize> {
        self.cost.map(|(_, c)| c)
    }

    /// `most` rule: retrieve the maximum.
    pub fn is_descending(&self) -> bool {
        self.descending
    }

    /// The feed loop qualifies for the bindings-free fast path.
    pub fn is_fast_feed(&self) -> bool {
        self.fast_feed
    }
}

/// Build plans for every next rule of a validated, stage-stratified
/// program. Errors with [`CoreError::NoGreedyPlan`] when a next rule
/// falls outside the Section 6 template.
pub fn build_plans(
    program: &Program,
    expanded: &Program,
    stages: &StageInfo,
) -> Result<Vec<NextPlan>, CoreError> {
    let mut plans = Vec::new();
    let mut seen_heads: Vec<Symbol> = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if !rule.has_next() {
            continue;
        }
        if seen_heads.contains(&rule.head.pred) {
            return Err(CoreError::NoGreedyPlan {
                detail: format!(
                    "two next rules define `{}`; the executor supports one per predicate",
                    rule.head.pred
                ),
            });
        }
        seen_heads.push(rule.head.pred);
        plans.push(build_plan(ri, rule, &expanded.rules[ri], stages)?);
    }
    Ok(plans)
}

fn template_err(rule: &Rule, detail: impl Into<String>) -> CoreError {
    CoreError::NoGreedyPlan {
        detail: format!("rule `{rule}` is outside the Section 6 template: {}", detail.into()),
    }
}

fn build_plan(
    rule_idx: usize,
    rule: &Rule,
    expanded: &Rule,
    stages: &StageInfo,
) -> Result<NextPlan, CoreError> {
    let stage_var = rule
        .body
        .iter()
        .find_map(|l| match l {
            Literal::Next { var } => Some(*var),
            _ => None,
        })
        .expect("next rule");
    let stage_pos = rule
        .head
        .args
        .iter()
        .position(|t| matches!(t, Term::Var(v) if *v == stage_var))
        .ok_or_else(|| template_err(rule, "stage variable missing from head"))?;

    // Exactly one positive atom (the source); no negation.
    let sources: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, Literal::Pos(_)))
        .map(|(i, _)| i)
        .collect();
    if sources.len() != 1 {
        return Err(template_err(rule, format!("{} positive atoms, need 1", sources.len())));
    }
    if rule.has_negation() {
        return Err(template_err(rule, "negated atoms in a next rule"));
    }
    let source_lit = sources[0];
    let Literal::Pos(source) = &rule.body[source_lit] else { unreachable!() };

    // Variables bound by the source atom.
    let source_vars = source.vars();

    // Extremum: at most one `least`/`most`, group ⊆ {stage var}.
    let mut cost = None;
    let mut descending = false;
    for lit in &rule.body {
        let (c, group, desc) = match lit {
            Literal::Least { cost, group } => (cost, group, false),
            Literal::Most { cost, group } => (cost, group, true),
            _ => continue,
        };
        if cost.is_some() {
            return Err(template_err(rule, "multiple extrema"));
        }
        let group_ok = group.is_empty()
            || (group.len() == 1 && matches!(&group[0], Term::Var(v) if *v == stage_var));
        if !group_ok {
            return Err(template_err(rule, "extremum group must be the stage variable"));
        }
        let Term::Var(cv) = c else {
            return Err(template_err(rule, "extremum cost must be a variable"));
        };
        let col = source
            .args
            .iter()
            .position(|t| matches!(t, Term::Var(v) if v == cv))
            .ok_or_else(|| template_err(rule, "cost variable must be a source column"))?;
        cost = Some((*cv, col));
        descending = desc;
    }

    // Comparisons: split by whether they mention the stage variable;
    // everything they mention must come from the source (or the stage).
    let mut pre_checks = Vec::new();
    let mut post_checks = Vec::new();
    for lit in &rule.body {
        let Literal::Compare { .. } = lit else { continue };
        let vars = lit.vars();
        if vars.iter().any(|v| !source_vars.contains(v) && *v != stage_var) {
            return Err(template_err(rule, "comparison over non-source variables"));
        }
        if vars.contains(&stage_var) {
            post_checks.push(lit.clone());
        } else {
            pre_checks.push(lit.clone());
        }
    }

    // Bindings-free feed eligibility (see the field docs): the source
    // args and pre-checks compile to a columnar check sequence, or the
    // feed keeps its binding frames. Built unconditionally — constant
    // operands intern here, at plan-build time, so dictionary counters
    // cannot differ between the fast and frame-based paths.
    let feed_spec = columnar_feed_spec(&source.args, &pre_checks);
    let fast_feed = feed_spec.is_some();
    let feed_checks = feed_spec.unwrap_or_default();

    // Head must be instantiable from source vars + stage var.
    let mut head_vars = Vec::new();
    for t in &rule.head.args {
        t.collect_vars(&mut head_vars);
    }
    if head_vars.iter().any(|v| !source_vars.contains(v) && *v != stage_var) {
        return Err(template_err(rule, "head variable not bound by the source atom"));
    }

    // Chain mode: I = J + 1 for the source's stage column J.
    let cons = crate::analysis::constraints::Constraints::from_rule(rule);
    let source_stage_col =
        stages.stage_arg.get(&source.pred).copied().filter(|&pos| pos < source.args.len());
    let chain = source_stage_col.is_some_and(|pos| {
        matches!(&source.args[pos], Term::Var(j)
            if cons.lt(*j, stage_var) && cons.le_offset(stage_var, *j, 1))
    });

    // Choice goals of the original rule; their variables must be bound.
    let mut choice_goals = Vec::new();
    for lit in &rule.body {
        let Literal::Choice { left, right } = lit else { continue };
        let vars = lit.vars();
        if vars.iter().any(|v| !source_vars.contains(v) && *v != stage_var) {
            return Err(template_err(rule, "choice variable not bound by the source atom"));
        }
        choice_goals.push((left.clone(), right.clone()));
    }

    // Congruence key (see module docs).
    let mut key: Vec<usize> = (0..source.args.len()).collect();
    if let Some(pos) = source_stage_col {
        if !chain {
            key.retain(|&c| c != pos);
        }
    }
    // Columns whose variables are functionally determined by a choice
    // goal. Sound ONLY with a single choice goal: a popped candidate
    // can then fail solely through that goal's FD on the key itself, so
    // a discarded pop proves the whole congruence class dead. With two
    // or more FDs (the matching program) a pop may fail through an FD
    // over a dropped column while congruent siblings remain viable —
    // and indeed the paper's own matching analysis keeps all `e` arcs
    // in `Q_r`.
    let col_vars: Vec<Vec<VarId>> = source.args.iter().map(Term::vars).collect();
    let cost_col = cost.map(|(_, col)| col);
    if let [(left, right)] = choice_goals.as_slice() {
        let l_vars: Vec<VarId> = left.iter().flat_map(Term::vars).collect();
        let r_vars: Vec<VarId> = right.iter().flat_map(Term::vars).collect();
        let key_vars: Vec<VarId> = key
            .iter()
            .filter(|&&c| Some(c) != cost_col)
            .flat_map(|&c| col_vars[c].iter().copied())
            .collect();
        if l_vars.iter().all(|v| key_vars.contains(v) || *v == stage_var) {
            key.retain(|&c| {
                Some(c) == cost_col
                    || col_vars[c].is_empty()
                    || !col_vars[c].iter().all(|v| r_vars.contains(v))
            });
        }
    }
    if let Some(col) = cost_col {
        if !choice_goals.is_empty() {
            key.retain(|&c| c != col);
        }
    }

    Ok(NextPlan {
        rule_idx,
        rule: rule.clone(),
        expanded: expanded.clone(),
        head_pred: rule.head.pred,
        head: HeadPlan::compile(&rule.head),
        stage_pos,
        stage_var,
        source_lit,
        source_pred: source.pred,
        cost,
        descending,
        chain,
        cong_cols: key,
        pre_checks,
        post_checks,
        goal_vars: choice_goals.iter().map(|(l, r)| (tuple_vars(l), tuple_vars(r))).collect(),
        choice_goals,
        chosen_vars: choice_vars(expanded),
        fast_feed,
        feed_checks,
    })
}

/// The variables of a goal side, in first-occurrence order.
fn tuple_vars(terms: &[Term]) -> Vec<VarId> {
    let mut out: Vec<VarId> = Vec::new();
    for v in terms.iter().flat_map(Term::vars) {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

type FdMap = FxHashMap<Vec<Value>, Vec<Value>>;

/// A next rule's FD memo for one choice goal: the id row of `vars(L)`
/// to the id row of `vars(R)` ([`NextPlan::goal_vars`]).
type IdFdMap = FxHashMap<Vec<u32>, Vec<u32>>;

struct NextState {
    plan: NextPlan,
    rql: Rql,
    /// Fed rows of the source relation.
    src_mark: usize,
    /// Scanned rows of the head relation (stage tracking).
    head_mark: usize,
    /// Current maximum stage.
    stage: i64,
    /// FD memo per original choice goal, in id space.
    memos: Vec<IdFdMap>,
    /// The `choice(W, I)` FD of the next-expansion: each non-stage head
    /// tuple `W` is committed at exactly one stage. Without this check
    /// a chain-mode program can re-commit the same tuple at every new
    /// stage (the head differs only in `I`) and never terminate.
    /// Projections are stored as dictionary ids.
    w_used: FxHashSet<Vec<u32>>,
}

/// The read-only harvest of one next rule's feed phase: everything
/// [`NextState::apply_feed`] needs, gathered before anything mutates.
struct FeedBatch {
    /// New head-relation high-water mark.
    head_len: usize,
    /// Max stage among the new head rows (`i64::MIN` when none).
    stage_max: i64,
    /// W-projections of the new head rows.
    new_w: Vec<Vec<u32>>,
    /// New source-relation high-water mark.
    src_len: usize,
    /// `(congruence key, cost id, row)` candidates for `Q_r`, in source
    /// row order.
    triples: Vec<(Vec<u32>, u32, Vec<u32>)>,
}

/// Start next rule `ns`'s feed batch with the new head rows — the stage
/// high-water mark (exit rules seed it) and every head tuple's W
/// projection — and return it with the new source rows to admit. The
/// stage variable "associates each tuple with a unique value of the
/// index I, and vice versa" (Section 3) — the W → I direction must also
/// cover facts produced by exit rules, or a chain program can re-commit
/// an exit tuple at a fresh stage forever. The source rows are read in
/// place from the relation's column arenas; the only copy made is the
/// id row that enters `Q_r`.
fn scan_head<'a>(ns: &NextState, db: &'a Database) -> Result<(FeedBatch, RowsView<'a>), CoreError> {
    let plan = &ns.plan;
    let head_rel = db.relation(plan.head_pred);
    let head_rows = head_rel.since(ns.head_mark);
    let mut stage_max = i64::MIN;
    let mut new_w: Vec<Vec<u32>> = Vec::new();
    for r in 0..head_rows.len() {
        match head_rows.try_cell(r, plan.stage_pos).map(decode_ref) {
            Some(Value::Int(s)) => stage_max = stage_max.max(*s),
            Some(other) => return Err(CoreError::NonIntegerStage { found: other.to_string() }),
            None => {}
        }
        new_w.push(
            (0..head_rows.arity())
                .filter(|&c| c != plan.stage_pos)
                .map(|c| head_rows.cell(r, c))
                .collect(),
        );
    }
    let src_rel = db.relation(plan.source_pred);
    let batch = FeedBatch {
        head_len: head_rel.len(),
        stage_max,
        new_w,
        src_len: src_rel.len(),
        triples: Vec::new(),
    };
    Ok((batch, src_rel.since(ns.src_mark)))
}

/// Collect a fast-feed rule's batch: new source rows are admitted by
/// the compiled columnar checks, and the cost id and congruence key are
/// read straight off the arena. Byte-identical to
/// [`collect_feed_frames`] — `match_term_id` would bind each variable
/// to exactly the cell id read here, and [`FeedCheck`] reproduces the
/// pre-check comparisons in id space.
fn collect_feed(ns: &NextState, db: &Database, nil_cost: u32) -> Result<FeedBatch, CoreError> {
    let (mut batch, rows) = scan_head(ns, db)?;
    let plan = &ns.plan;
    let Literal::Pos(source) = &plan.rule.body[plan.source_lit] else { unreachable!() };
    if rows.arity() == source.args.len() {
        let cost_col = plan.cost.map(|(_, col)| col);
        for r in 0..rows.len() {
            if !plan.feed_checks.iter().all(|c| c.eval(&|col| rows.cell(r, col))) {
                continue;
            }
            let cost = match cost_col {
                Some(c) => rows.cell(r, c),
                None => nil_cost,
            };
            let key: Vec<u32> = plan.cong_cols.iter().map(|&c| rows.cell(r, c)).collect();
            batch.triples.push((key, cost, rows.id_row(r)));
        }
    }
    Ok(batch)
}

/// Collect any rule's batch through per-row binding frames: match the
/// source atom, run the pre-checks, read the cost off the frame. The
/// generic path for rules the columnar checks cannot express, and the
/// oracle every rule takes when analysis is off.
fn collect_feed_frames(
    ns: &NextState,
    db: &Database,
    nil_cost: u32,
) -> Result<FeedBatch, CoreError> {
    let (mut batch, rows) = scan_head(ns, db)?;
    let plan = &ns.plan;
    let Literal::Pos(source) = &plan.rule.body[plan.source_lit] else { unreachable!() };
    let mut b = Bindings::new(plan.rule.num_vars());
    let mut trail: Vec<VarId> = Vec::new();
    for r in 0..rows.len() {
        for v in trail.drain(..) {
            b.unbind(v);
        }
        let matched = rows.arity() == source.args.len()
            && source
                .args
                .iter()
                .enumerate()
                .all(|(c, t)| match_term_id(t, rows.cell(r, c), &mut b, &mut trail));
        if !matched {
            continue;
        }
        if !apply_comparisons(&plan.pre_checks, &mut b, &mut trail)? {
            continue;
        }
        let cost = match plan.cost {
            Some((cv, _)) => {
                let id = b.id_of(cv);
                if id != DICT_MISS {
                    id
                } else {
                    let v = b.get(cv).expect("cost variable bound by source match");
                    dictionary::encode(v)
                }
            }
            None => nil_cost,
        };
        let key: Vec<u32> = plan.cong_cols.iter().map(|&c| rows.cell(r, c)).collect();
        batch.triples.push((key, cost, rows.id_row(r)));
    }
    Ok(batch)
}

impl NextState {
    /// Apply a collected [`FeedBatch`]: advance both marks and the
    /// stage, register the W-projections, and push the candidates into
    /// `Q_r` — through the fused batch kernel for columnar feeds, row by
    /// row for the frame-based oracle, so `heap_batch_pushes` counts
    /// exactly the columnar rows. Either way the queue ends up in the
    /// same state.
    fn apply_feed(&mut self, batch: FeedBatch) {
        self.stage = self.stage.max(batch.stage_max);
        self.head_mark = batch.head_len;
        self.w_used.extend(batch.new_w);
        self.src_mark = batch.src_len;
        if self.plan.fast_feed {
            self.rql.extend_batch(batch.triples);
        } else {
            for (key, cost, row) in batch.triples {
                self.rql.insert(key, cost, row);
            }
        }
    }
}

/// A program's ground facts as dictionary-id rows, grouped by predicate
/// (in order of first appearance) and, within a predicate, in program
/// order — the order [`GreedyExecutor::new`] appends them to the EDB.
pub type FactRows = Vec<(Symbol, Vec<Vec<u32>>)>;

/// Encode `program`'s ground facts. Cells are interned in rule order,
/// so the ids assigned are those a rule-by-rule load would assign.
pub fn encode_facts(program: &Program) -> FactRows {
    let mut out: FactRows = Vec::new();
    let mut slot: FxHashMap<Symbol, usize> = FxHashMap::default();
    for r in program.rules.iter().filter(|r| r.is_fact()) {
        let ids = r
            .head
            .args
            .iter()
            .map(|t| dictionary::encode(&t.as_value().expect("validated ground fact")))
            .collect();
        let i = *slot.entry(r.head.pred).or_insert_with(|| {
            out.push((r.head.pred, Vec::new()));
            out.len() - 1
        });
        out[i].1.push(ids);
    }
    out
}

/// The executor. Create with [`GreedyExecutor::new`], then [`GreedyExecutor::run`].
pub struct GreedyExecutor {
    flat: Seminaive,
    nexts: Vec<NextState>,
    /// Exit choice rules (choice, no next), with their memos.
    exits: Vec<(usize, Rule)>,
    /// Compiled join plans of the exit rules, one slot per rule.
    exit_plans: PlanCache,
    /// Per exit rule: analysis facts (constant-true comparisons to fold
    /// out of the compiled plan). Defaults when analysis is off.
    exit_statics: Vec<RuleStatics>,
    exit_memos: Vec<Vec<FdMap>>,
    /// Per exit rule: the body-relation size total at the last fruitless
    /// attempt — unchanged inputs ⇒ still fruitless, skip the re-scan.
    exit_stale: Vec<Option<usize>>,
    db: Database,
    config: GreedyConfig,
    chosen: ChosenLog,
    stats: GreedyStats,
    tel: Telemetry,
    /// Flat-saturation pool occupancy, allocated only for parallel runs.
    pool_stats: Option<Arc<PoolStats>>,
}

impl GreedyExecutor {
    /// Set up the executor: facts are loaded, rules partitioned, one
    /// [`Rql`] allocated per next-rule plan.
    pub fn new(
        program: &Program,
        plans: Vec<NextPlan>,
        facts: &FactRows,
        edb: &Database,
        config: GreedyConfig,
    ) -> GreedyExecutor {
        let mut db = edb.clone();
        for (pred, rows) in facts {
            let rel = db.relation_mut(*pred);
            for ids in rows {
                rel.insert_ids(ids.clone());
            }
        }
        // Whole-program analysis (PR 8): dead rules are dropped before
        // partitioning, constant-true comparisons are folded out of the
        // exit plans, and (below, once the EDB is loaded) proved-`int`
        // cost columns switch their `Q_r` onto the decode-free heap.
        // `GBC_NO_ANALYZE=1` disables all of it; outputs are identical.
        let reach = config.analyze.then(|| reachability::analyze(program));
        let dead = reach.as_ref().map(|r| r.dead_rule_set()).unwrap_or_default();
        let mut flat_rules = Vec::new();
        let mut flat_ids = Vec::new();
        let mut exits = Vec::new();
        let mut exit_statics = Vec::new();
        let mut exit_memos = Vec::new();
        for (ri, r) in program.rules.iter().enumerate() {
            if r.is_fact() || r.has_next() {
                // Facts are loaded above; next rules are handled by plans.
            } else if dead.contains(&ri) {
                // Provably never fires: no plan, no saturation work.
            } else if r.has_choice() {
                let goals = r.body.iter().filter(|l| matches!(l, Literal::Choice { .. })).count();
                exit_memos.push(vec![FdMap::default(); goals]);
                exit_statics.push(RuleStatics {
                    dead: false,
                    const_true_lits: reach
                        .as_ref()
                        .map(|info| info.const_true_lits(ri))
                        .unwrap_or_default(),
                });
                exits.push((ri, r.clone()));
            } else {
                flat_rules.push(r.clone());
                flat_ids.push(ri);
            }
        }
        // Column types need the loaded EDB: scan the concrete relations
        // for seeds, then run the head/body fixpoint over the rules.
        let types = config.analyze.then(|| {
            let seeds = typeinfer::scan_seeds(&db);
            typeinfer::infer_seeded(program, &seeds)
        });
        let nexts: Vec<NextState> = plans
            .into_iter()
            .map(|mut plan| {
                let goals = plan.choice_goals.len();
                let mut rql = if plan.descending { Rql::new_descending() } else { Rql::new() };
                match (&types, plan.cost) {
                    (Some(t), Some((_, col))) if t.col_is_int(plan.source_pred, col) => {
                        rql.set_int_costs(true);
                    }
                    _ => {}
                }
                if !config.analyze {
                    plan.fast_feed = false;
                }
                NextState {
                    plan,
                    rql,
                    src_mark: 0,
                    head_mark: 0,
                    stage: i64::MIN,
                    memos: vec![IdFdMap::default(); goals],
                    w_used: FxHashSet::default(),
                }
            })
            .collect();
        let exit_stale = vec![None; exits.len()];
        let exit_plans = PlanCache::new(exits.len());
        let mut flat = Seminaive::new(flat_rules);
        flat.set_rule_ids(flat_ids);
        flat.set_threads(config.threads);
        let pool_stats = (config.threads > 1).then(|| Arc::new(PoolStats::new(config.threads)));
        flat.set_pool_stats(pool_stats.clone());
        let mut ex = GreedyExecutor {
            flat,
            nexts,
            exits,
            exit_plans,
            exit_statics,
            exit_memos,
            exit_stale,
            db,
            config,
            chosen: ChosenLog::default(),
            stats: GreedyStats::default(),
            tel: Telemetry::default(),
            pool_stats,
        };
        ex.attach_telemetry();
        ex
    }

    /// Swap in a telemetry handle (counters, phase timers, trace sink)
    /// and wire its counter registry into every layer: the database's
    /// index caches, the seminaive saturator, and each rule's `Q_r`.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        self.attach_telemetry();
    }

    fn attach_telemetry(&mut self) {
        let m = Arc::clone(&self.tel.metrics);
        self.db.set_metrics(Arc::clone(&m));
        self.flat.set_metrics(Arc::clone(&m));
        self.flat.set_trace(self.tel.trace.clone());
        self.flat
            .set_profiler(self.tel.profiler.is_enabled().then(|| Arc::clone(&self.tel.profiler)));
        for ns in &mut self.nexts {
            ns.rql.set_metrics(Arc::clone(&m));
        }
    }

    /// Run to fixpoint.
    pub fn run(mut self) -> Result<GreedyRun, CoreError> {
        let tel = self.tel.clone();
        let mut timers = RunTimers::default();
        let out = self.run_loop(&tel, &mut timers);
        timers.flush(&tel);
        out?;
        let snapshot = self.tel.metrics.snapshot();
        let pool = self.pool_stats.as_ref().map(|s| s.report());
        Ok(GreedyRun { db: self.db, chosen: self.chosen, stats: self.stats, snapshot, pool })
    }

    fn run_loop(&mut self, tel: &Telemetry, timers: &mut RunTimers) -> Result<(), CoreError> {
        // Phase and profiler accounting use *chained* timestamps: each
        // boundary reads the clock once and every interval between two
        // boundaries is charged somewhere — to a phase and, for the
        // profiler, to the rule that ends it or to the overhead bucket
        // (flat saturation keeps its own chain, see `Seminaive`). That
        // keeps the attribution gap — time the instrumentation itself
        // cannot see — to the one accumulator update per boundary,
        // which is what lets `--profile` account for nearly all of the
        // run's wall time. A round — one full trip around this loop:
        // saturation plus the γ (or exit) decision it enables — starts
        // at the boundary that ended the previous one.
        let timed = tel.phases.is_enabled();
        let clocked = timed || tel.rounds.is_some() || tel.profiler.is_enabled();
        let mut flat_round: u64 = 0;
        let mut t_prev = clocked.then(Instant::now);
        loop {
            let t_round = t_prev;
            let new_facts = self.flat.saturate(&mut self.db)?;
            // Saturation charged its rules and overhead on its own chain.
            t_prev = t_prev.map(|_| Instant::now());
            let t_exit = t_prev;
            timers.span(FLAT, t_round, t_exit);
            self.stats.flat_new_facts += new_facts;
            flat_round += 1;
            tel.trace_with(|| TraceEvent::FlatRound { round: flat_round, new_facts });
            let exited = self.fire_exit_rule(&mut t_prev)?;
            let t_feed = lap(tel, &mut t_prev);
            timers.span(EXIT, t_exit, t_feed);
            if exited {
                timers.round(t_round, t_feed);
                continue;
            }
            self.feed_all(&mut t_prev)?;
            let t_choose = lap(tel, &mut t_prev);
            // The γ phase splits into feed/choose/commit buckets; the
            // parent accumulates the same boundary intervals so it is
            // first-used before any child and owns the loop overhead
            // the children don't see.
            timers.span(GAMMA, t_feed, t_choose);
            timers.span(FEED, t_feed, t_choose);
            // Everything up to a commit decision is "choose" (pops,
            // re-checks, FD tests, discards), one interval per rule that
            // had a stage to try; the committed candidate's bookkeeping
            // is "commit".
            let mut tried: u64 = 0;
            let mut committed = None;
            for i in 0..self.nexts.len() {
                match self.fire_next_rule(i, &mut t_prev, timed)? {
                    Fire::Idle => {}
                    Fire::Exhausted => tried += 1,
                    Fire::Committed(t_commit) => {
                        tried += 1;
                        committed = Some(t_commit);
                        break;
                    }
                }
            }
            let t_end = lap(tel, &mut t_prev);
            timers.span(GAMMA, t_choose, t_end);
            let t_decided = committed.flatten().or(t_end);
            timers.spans(CHOOSE, t_choose, t_decided, tried);
            if committed.is_some() {
                timers.span(COMMIT, t_decided, t_end);
            }
            timers.round(t_round, t_end);
            if committed.is_none() {
                return Ok(());
            }
            if self.stats.gamma_steps >= self.config.max_steps {
                return Err(CoreError::StepLimit { steps: self.stats.gamma_steps });
            }
        }
    }

    /// Fire one exit choice rule instance, generic-candidate style.
    fn fire_exit_rule(&mut self, t_prev: &mut Option<Instant>) -> Result<bool, CoreError> {
        let GreedyExecutor {
            exits,
            exit_plans,
            exit_statics,
            exit_memos,
            exit_stale,
            db,
            tel,
            chosen,
            stats,
            ..
        } = self;
        let prov = db.provenance().cloned();
        for (ei, (ri, rule)) in exits.iter().enumerate() {
            let body_size: usize = rule.positive_atoms().map(|a| db.count(a.pred)).sum();
            if exit_stale[ei] == Some(body_size) {
                continue;
            }
            let cached = exit_plans.is_cached(ei);
            let plan = exit_plans
                .get_or_compile_typed(ei, rule, &exit_statics[ei], Some(&*tel.metrics))
                .map_err(CoreError::Engine)?;
            if cached {
                tel.profiler.record_plan_hit(*ri);
            }
            let frames = collect_matches_plan(db, rule, &plan, None)?;
            let considered = frames.len() as u64;
            tel.metrics.choice_candidates_considered.add(considered);
            let mut consistent = Vec::new();
            let mut rejected: u64 = 0;
            for b in frames {
                match fd_first_conflict(rule, &exit_memos[ei], &b)? {
                    None => consistent.push(b),
                    Some((gi, left, attempted, committed)) => {
                        rejected += 1;
                        tel.metrics.diffchoice_rejections.inc();
                        if let Some(arena) = &prov {
                            let head = instantiate_head(rule, &b)?;
                            arena.record_rejection(
                                *ri,
                                gi,
                                "diffchoice",
                                rule.head.pred,
                                &head,
                                left,
                                attempted,
                                committed,
                            );
                        }
                    }
                }
            }
            if considered > 0 {
                tel.trace_with(|| TraceEvent::ChoiceAudit {
                    rule: *ri,
                    pred: rule.head.pred.to_string(),
                    considered,
                    rejected,
                });
            }
            let minimal = filter_extrema(rule, consistent)?;
            // Deterministic pick: smallest (head, chosen-args).
            let mut best: Option<(Row, Vec<Value>, Bindings)> = None;
            for b in minimal {
                let head = instantiate_head(rule, &b)?;
                let args = eval_choice_vars(rule, &b)?;
                if db.contains(rule.head.pred, &head)
                    && all_pairs_present(rule, &exit_memos[ei], &b)?
                {
                    continue; // not new
                }
                if best.as_ref().map_or(true, |(h, a, _)| (&head, &args) < (h, a)) {
                    best = Some((head, args, b));
                }
            }
            let Some((head, args, b)) = best else {
                exit_stale[ei] = Some(body_size);
                charge(tel, t_prev, *ri, 0);
                continue;
            };
            let pairs = eval_goal_pairs(rule, &b)?;
            tel.trace_with(|| TraceEvent::ExitCommit {
                pred: rule.head.pred.to_string(),
                fact: head.to_string(),
            });
            if let Some(arena) = &prov {
                arena.advance_step();
                arena.record_derivation(rule.head.pred, &head, *ri, &parent_rows(rule, &b));
                arena.record_commit(*ri, rule.head.pred, &head, pairs.clone());
            }
            let (ids, _) = plan.head().ids(rule, &b, None)?;
            db.relation_mut(rule.head.pred).insert_ids(ids);
            for (gi, (l, r)) in pairs.iter().enumerate() {
                exit_memos[ei][gi].insert(l.clone(), r.clone());
            }
            chosen.push_values(*ri, args);
            stats.gamma_steps += 1;
            tel.metrics.gamma_steps.inc();
            charge(tel, t_prev, *ri, 1);
            return Ok(true);
        }
        Ok(false)
    }

    /// Feed every next rule in index order. The profiler runs on a
    /// chained clock from `t_prev`, the run loop's last boundary: with
    /// the profiler on, one clock read per rule, each interval charged
    /// to the rule it ends, so the whole feed phase is attributed.
    ///
    /// A rule whose source and head relations have not grown since its
    /// marks is skipped: its batch would be empty (a γ commit advances
    /// the head mark past its own row, see [`Self::fire_next_rule`]),
    /// so the scan, the W re-hash and the empty `Q_r` push would change
    /// nothing.
    fn feed_all(&mut self, t_prev: &mut Option<Instant>) -> Result<(), CoreError> {
        // Interned once per feed phase, not per rule: `encode_hits` is
        // a pinned dictionary counter.
        let nil_cost = dictionary::encode(&Value::Nil);
        for i in 0..self.nexts.len() {
            let ns = &self.nexts[i];
            let grown = self.db.count(ns.plan.source_pred) != ns.src_mark
                || self.db.count(ns.plan.head_pred) != ns.head_mark;
            if grown {
                let batch = if ns.plan.fast_feed {
                    collect_feed(ns, &self.db, nil_cost)?
                } else {
                    collect_feed_frames(ns, &self.db, nil_cost)?
                };
                let ns = &mut self.nexts[i];
                ns.apply_feed(batch);
                self.stats.queue_peak = self.stats.queue_peak.max(ns.rql.queue_len());
            }
            charge(&self.tel, t_prev, self.nexts[i].plan.rule_idx, 0);
        }
        Ok(())
    }

    /// γ for next rule `i`: pop candidates until one passes every check.
    /// `timed` asks for the clock read that ends the choose interval of
    /// a commit.
    fn fire_next_rule(
        &mut self,
        i: usize,
        t_prev: &mut Option<Instant>,
        timed: bool,
    ) -> Result<Fire, CoreError> {
        let GreedyExecutor { nexts, db, tel, chosen, stats, .. } = self;
        let prov = db.provenance().cloned();
        let ns = &mut nexts[i];
        if ns.stage == i64::MIN {
            // No committed stage yet (exit facts absent): nothing to do.
            if ns.rql.is_queue_empty() {
                return Ok(Fire::Idle);
            }
            return Err(CoreError::NoGreedyPlan {
                detail: format!(
                    "next rule for `{}` has candidates but no initial stage fact",
                    ns.plan.head_pred
                ),
            });
        }
        let next_stage = ns.stage.checked_add(1).ok_or(CoreError::StepLimit { steps: u64::MAX })?;

        // One scratch frame for the whole retrieve-least loop: the trail
        // rewinds it between pops instead of reallocating per candidate.
        let mut b = Bindings::new(ns.plan.rule.num_vars());
        let mut trail: Vec<VarId> = Vec::new();
        // Scratch id row for the FD memo probes.
        let mut key: Vec<u32> = Vec::new();
        let mut pops: u64 = 0;
        let mut rejected: u64 = 0;
        while let Some(popped) = ns.rql.pop_least() {
            pops += 1;
            tel.metrics.choice_candidates_considered.inc();
            for v in trail.drain(..) {
                b.unbind(v);
            }
            let plan = &ns.plan;
            let Literal::Pos(source) = &plan.rule.body[plan.source_lit] else { unreachable!() };
            let ok = source
                .args
                .iter()
                .zip(popped.row.iter())
                .all(|(t, &id)| match_term_id(t, id, &mut b, &mut trail));
            debug_assert!(ok, "queued row must re-match its source atom");
            b.bind(plan.stage_var, Value::Int(next_stage));
            trail.push(plan.stage_var);

            let stage_ok = apply_comparisons(&plan.pre_checks, &mut b, &mut trail)?
                && apply_comparisons(&plan.post_checks, &mut b, &mut trail)?;
            // The on-the-fly diffChoice test, in id space. The stage
            // being tried exceeds every stage this rule has committed,
            // so it equals no stage cell of any memo entry: DICT_MISS —
            // unequal to every stored id — stands in for it, and the
            // test interns and looks up nothing.
            let conflict =
                if stage_ok { fd_conflict(plan, &ns.memos, &b, DICT_MISS, &mut key) } else { None };
            if !stage_ok || conflict.is_some() {
                let reason = if stage_ok {
                    tel.metrics.diffchoice_rejections.inc();
                    DiscardReason::DiffChoice
                } else {
                    DiscardReason::StaleStage
                };
                if let Some(arena) = &prov {
                    let src_row = dictionary::decode_row(&popped.row);
                    match conflict {
                        Some((gi, held)) => {
                            let (left, attempted, committed) = conflict_values(plan, gi, &b, held)?;
                            arena.record_rejection(
                                plan.rule_idx,
                                gi,
                                "diffchoice",
                                plan.source_pred,
                                &src_row,
                                left,
                                attempted,
                                committed,
                            )
                        }
                        None => arena.record_rejection(
                            plan.rule_idx,
                            NO_GOAL,
                            "stale-stage",
                            plan.source_pred,
                            &src_row,
                            Vec::new(),
                            Vec::new(),
                            Vec::new(),
                        ),
                    }
                }
                rejected += 1;
                tel.metrics.discarded_pops.inc();
                tel.trace_with(|| TraceEvent::Discard {
                    pred: plan.head_pred.to_string(),
                    reason,
                    row: dictionary::decode_row(&popped.row).to_string(),
                });
                ns.rql.discard(popped);
                stats.discarded += 1;
                continue;
            }
            // The committed head in id space: cells bound by the source
            // match carry the popped row's ids. The stage cell (bound by
            // value above) is held back and interned only once the
            // next-expansion's choice(W, I) — one stage per W — passes,
            // so the membership test is an id-row comparison.
            let (mut head, stage_value) = plan.head.ids(&plan.rule, &b, Some(plan.stage_pos))?;
            let w: Vec<u32> = head
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != plan.stage_pos)
                .map(|(_, &id)| id)
                .collect();
            if ns.w_used.contains(&w) {
                if let Some(arena) = &prov {
                    let w_vals: Vec<Value> = w.iter().map(|&id| decode_ref(id).clone()).collect();
                    arena.record_rejection(
                        plan.rule_idx,
                        NO_GOAL,
                        "stage-reuse",
                        plan.head_pred,
                        &dictionary::decode_row(&popped.row),
                        w_vals,
                        vec![Value::Int(next_stage)],
                        Vec::new(),
                    );
                }
                rejected += 1;
                tel.metrics.stage_reuse_rejections.inc();
                tel.metrics.discarded_pops.inc();
                tel.trace_with(|| TraceEvent::Discard {
                    pred: plan.head_pred.to_string(),
                    reason: DiscardReason::StageReuse,
                    row: dictionary::decode_row(&popped.row).to_string(),
                });
                ns.rql.discard(popped);
                stats.discarded += 1;
                continue;
            }

            // Commit.
            let t_commit = timed.then(Instant::now);
            ns.w_used.insert(w);
            let stage_value = stage_value.expect("the stage cell is bound by value");
            let stage_id = dictionary::encode(&stage_value);
            head[plan.stage_pos] = stage_id;
            for (gi, (l, r)) in plan.goal_vars.iter().enumerate() {
                project(l, &b, plan.stage_var, stage_id, &mut key);
                let held = r.iter().map(|&v| var_id(v, &b, plan.stage_var, stage_id)).collect();
                ns.memos[gi].insert(std::mem::take(&mut key), held);
            }
            chosen.push_ids(
                plan.rule_idx,
                plan.chosen_vars.iter().map(|&v| var_id(v, &b, plan.stage_var, stage_id)),
            );
            // Decoded only for the observers that print or record it.
            let head_row = || -> Row { head.iter().map(|&id| decode_ref(id).clone()).collect() };
            tel.trace_with(|| TraceEvent::StageCommit {
                pred: plan.head_pred.to_string(),
                stage: next_stage,
                cost: if plan.cost.is_some() {
                    decode_ref(popped.cost).to_string()
                } else {
                    String::new()
                },
                fact: head_row().to_string(),
            });
            if let Some(arena) = &prov {
                let head = head_row();
                arena.advance_step();
                arena.record_derivation(
                    plan.head_pred,
                    &head,
                    plan.rule_idx,
                    &[(plan.source_pred, dictionary::decode_row(&popped.row))],
                );
                let pairs = eval_goal_pairs(&plan.expanded, &b)?;
                arena.record_commit(plan.rule_idx, plan.head_pred, &head, pairs);
            }
            let rule_idx = plan.rule_idx;
            tel.trace_with(|| TraceEvent::ChoiceAudit {
                rule: rule_idx,
                pred: plan.head_pred.to_string(),
                considered: pops,
                rejected,
            });
            let head_rel = db.relation_mut(plan.head_pred);
            // The commit owns its head row: the stage and W are recorded
            // above, so when it is the only row the feed has not yet
            // scanned, the head mark moves past it.
            if head_rel.insert_ids(head) && head_rel.len() == ns.head_mark + 1 {
                ns.head_mark += 1;
            }
            ns.rql.commit(popped);
            ns.stage = next_stage;
            stats.gamma_steps += 1;
            tel.metrics.gamma_steps.inc();
            charge(tel, t_prev, rule_idx, 1);
            return Ok(Fire::Committed(t_commit));
        }
        if pops > 0 {
            tel.trace_with(|| TraceEvent::ChoiceAudit {
                rule: ns.plan.rule_idx,
                pred: ns.plan.head_pred.to_string(),
                considered: pops,
                rejected,
            });
        }
        charge(tel, t_prev, ns.plan.rule_idx, 0);
        Ok(Fire::Exhausted)
    }
}

/// What one next rule's γ attempt did.
enum Fire {
    /// No stage to extend yet and nothing queued: not tried.
    Idle,
    /// Every queued candidate failed (or none was queued).
    Exhausted,
    /// A candidate was committed; the clock read at the commit
    /// decision, when timed.
    Committed(Option<Instant>),
}

/// The run loop's phases, in first-use order: flat saturation and the
/// exit rules open every round, the γ parent is charged with its feed
/// child, then choose and commit follow.
const PHASES: [&str; 6] =
    ["run/flat", "run/exit", "run/gamma", "run/gamma/feed", "run/gamma/choose", "run/gamma/commit"];
const FLAT: usize = 0;
const EXIT: usize = 1;
const GAMMA: usize = 2;
const FEED: usize = 3;
const CHOOSE: usize = 4;
const COMMIT: usize = 5;

/// The run loop's phase timers and round latencies, kept run-locally
/// and flushed to the shared [`Telemetry`] once, when the run ends: a
/// γ step takes no lock and looks up no phase name. Flushing in
/// [`PHASES`] order reproduces the first-use order of the names.
#[derive(Default)]
struct RunTimers {
    /// `(total, intervals)` per [`PHASES`] entry.
    phases: [(Duration, u64); PHASES.len()],
    rounds: Vec<u64>,
}

impl RunTimers {
    /// Charge the interval `t0..t` to `phase`, when both ends were read.
    fn span(&mut self, phase: usize, t0: Option<Instant>, t: Option<Instant>) {
        self.spans(phase, t0, t, 1);
    }

    /// Charge `t0..t` to `phase` as `n` intervals.
    fn spans(&mut self, phase: usize, t0: Option<Instant>, t: Option<Instant>, n: u64) {
        if let (Some(t0), Some(t), true) = (t0, t, n > 0) {
            let slot = &mut self.phases[phase];
            slot.0 += t - t0;
            slot.1 += n;
        }
    }

    /// Record one round's latency.
    fn round(&mut self, t0: Option<Instant>, t: Option<Instant>) {
        if let (Some(t0), Some(t)) = (t0, t) {
            self.rounds.push((t - t0).as_nanos() as u64);
        }
    }

    fn flush(&self, tel: &Telemetry) {
        for (name, &(total, n)) in PHASES.iter().zip(&self.phases) {
            tel.phases.add_many(name, total, n);
        }
        tel.record_rounds_nanos(&self.rounds);
    }
}

/// Close the chained-clock interval since `*t_prev`, charging it to
/// `rule` with `commits` firings and derived tuples; the boundary
/// starts the next interval. Phases see only [`lap`] boundaries, so
/// without a profiler the interval simply runs on.
fn charge(tel: &Telemetry, t_prev: &mut Option<Instant>, rule: usize, commits: u64) {
    if !tel.profiler.is_enabled() {
        return;
    }
    if let Some(t0) = *t_prev {
        let t = Instant::now();
        tel.profiler.record(rule, commits, commits, t - t0);
        *t_prev = Some(t);
    }
}

/// Close the chained-clock interval since `*t_prev` as profiler
/// overhead (no rule claimed it) and return the boundary.
fn lap(tel: &Telemetry, t_prev: &mut Option<Instant>) -> Option<Instant> {
    let t0 = (*t_prev)?;
    let t = Instant::now();
    tel.profiler.add_overhead(t - t0);
    *t_prev = Some(t);
    Some(t)
}

/// Evaluate the comparison literals in order, with `=`-assignment
/// (engine semantics). Returns false when a comparison fails. Variables
/// bound along the way are recorded on `trail` so callers reusing a
/// scratch frame can rewind them.
fn apply_comparisons(
    lits: &[Literal],
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
) -> Result<bool, CoreError> {
    // Small fixpoint: some comparisons may bind variables used by later
    // ones regardless of their syntactic order.
    let mut pending: Vec<&Literal> = lits.iter().collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut remaining = Vec::new();
        for lit in pending {
            let Literal::Compare { op, lhs, rhs } = lit else { continue };
            let lv = eval_expr(lhs, b).map_err(CoreError::Engine)?;
            let rv = eval_expr(rhs, b).map_err(CoreError::Engine)?;
            match (lv, rv) {
                (Some(a), Some(c)) => {
                    if !op.eval(a.cmp(&c)) {
                        return Ok(false);
                    }
                    progressed = true;
                }
                (Some(val), None) | (None, Some(val)) if *op == CmpOp::Eq => {
                    let unbound = if eval_expr(lhs, b).map_err(CoreError::Engine)?.is_none() {
                        lhs
                    } else {
                        rhs
                    };
                    match unbound.as_bare_term() {
                        Some(t) => {
                            if !match_term(t, &val, b, trail) {
                                return Ok(false);
                            }
                            progressed = true;
                        }
                        None => remaining.push(lit),
                    }
                }
                _ => remaining.push(lit),
            }
        }
        if !progressed && !remaining.is_empty() {
            return Err(CoreError::NoGreedyPlan {
                detail: "unresolvable comparison chain in next rule".into(),
            });
        }
        pending = remaining;
    }
    Ok(true)
}

fn eval_tuple(rule: &Rule, terms: &[Term], b: &Bindings) -> Result<Vec<Value>, CoreError> {
    terms
        .iter()
        .map(|t| {
            eval_term(t, b).ok_or_else(|| {
                CoreError::Engine(gbc_engine::EngineError::NonGroundHead { rule: rule.to_string() })
            })
        })
        .collect()
}

/// The id of variable `v` in the candidate frame `b`; the stage
/// variable, bound by value, is `stage_id`. Every other variable of a
/// next rule's choice goals, head and comparisons is bound by the
/// source match (see [`build_plan`]), which records its id.
fn var_id(v: VarId, b: &Bindings, stage_var: VarId, stage_id: u32) -> u32 {
    if v == stage_var {
        stage_id
    } else {
        debug_assert_ne!(b.id_of(v), DICT_MISS, "choice variable bound without an id");
        b.id_of(v)
    }
}

/// Project `vars` onto their ids in `b` (see [`var_id`]) into `out`.
fn project(vars: &[VarId], b: &Bindings, stage_var: VarId, stage_id: u32, out: &mut Vec<u32>) {
    out.clear();
    out.extend(vars.iter().map(|&v| var_id(v, b, stage_var, stage_id)));
}

/// The on-the-fly diffChoice test of a next rule over its id-space
/// memos: the first goal whose memo maps the candidate's `L` ids to an
/// `R` other than the candidate's, with that committed `R` id row.
/// `None` means the candidate is FD-consistent. `key` is scratch.
fn fd_conflict<'m>(
    plan: &NextPlan,
    memos: &'m [IdFdMap],
    b: &Bindings,
    stage_id: u32,
    key: &mut Vec<u32>,
) -> Option<(usize, &'m [u32])> {
    for (gi, (l, r)) in plan.goal_vars.iter().enumerate() {
        project(l, b, plan.stage_var, stage_id, key);
        if let Some(held) = memos[gi].get(key.as_slice()) {
            if held.iter().zip(r).any(|(&id, &v)| id != var_id(v, b, plan.stage_var, stage_id)) {
                return Some((gi, held));
            }
        }
    }
    None
}

/// The `(left, attempted, committed)` values of a diffChoice conflict
/// on goal `gi`, for provenance: the candidate's goal tuples evaluated
/// in its frame, and the committed `R` rebuilt from the memo's ids.
#[allow(clippy::type_complexity)]
fn conflict_values(
    plan: &NextPlan,
    gi: usize,
    b: &Bindings,
    held: &[u32],
) -> Result<(Vec<Value>, Vec<Value>, Vec<Value>), CoreError> {
    let (l, r) = &plan.choice_goals[gi];
    let mut committed = Bindings::new(plan.rule.num_vars());
    for (&v, &id) in plan.goal_vars[gi].1.iter().zip(held) {
        committed.bind_encoded(v, decode_ref(id).clone(), id);
    }
    Ok((
        eval_tuple(&plan.rule, l, b)?,
        eval_tuple(&plan.rule, r, b)?,
        eval_tuple(&plan.rule, r, &committed)?,
    ))
}

/// The first conflicting `(goal, left, attempted, committed)` of the
/// on-the-fly diffChoice test over an exit rule's choice literals —
/// `None` means the binding is FD-consistent.
#[allow(clippy::type_complexity)]
fn fd_first_conflict(
    rule: &Rule,
    memos: &[FdMap],
    b: &Bindings,
) -> Result<Option<(usize, Vec<Value>, Vec<Value>, Vec<Value>)>, CoreError> {
    let goals = rule.body.iter().filter_map(|l| match l {
        Literal::Choice { left, right } => Some((left, right)),
        _ => None,
    });
    for (gi, (l, r)) in goals.enumerate() {
        let lv = eval_tuple(rule, l, b)?;
        let rv = eval_tuple(rule, r, b)?;
        if let Some(prev) = memos[gi].get(&lv) {
            if *prev != rv {
                return Ok(Some((gi, lv, rv, prev.clone())));
            }
        }
    }
    Ok(None)
}

fn all_pairs_present(rule: &Rule, memos: &[FdMap], b: &Bindings) -> Result<bool, CoreError> {
    let mut gi = 0;
    for lit in &rule.body {
        let Literal::Choice { left, right } = lit else { continue };
        let lv = eval_tuple(rule, left, b)?;
        let rv = eval_tuple(rule, right, b)?;
        if memos[gi].get(&lv) != Some(&rv) {
            return Ok(false);
        }
        gi += 1;
    }
    Ok(true)
}

/// A committed `(left, right)` value pair of one choice goal.
pub type GoalPair = (Vec<Value>, Vec<Value>);

/// Evaluate every choice goal of `rule` to its (L, R) value pair.
fn eval_goal_pairs(rule: &Rule, b: &Bindings) -> Result<Vec<GoalPair>, CoreError> {
    let mut out = Vec::new();
    for lit in &rule.body {
        let Literal::Choice { left, right } = lit else { continue };
        out.push((eval_tuple(rule, left, b)?, eval_tuple(rule, right, b)?));
    }
    Ok(out)
}

/// Evaluate the rule's choice variables (the `chosen_i` argument tuple).
fn eval_choice_vars(rule: &Rule, b: &Bindings) -> Result<Vec<Value>, CoreError> {
    choice_vars(rule)
        .into_iter()
        .map(|v| {
            b.get(v).cloned().ok_or_else(|| {
                CoreError::Engine(gbc_engine::EngineError::NonGroundHead { rule: rule.to_string() })
            })
        })
        .collect()
}
