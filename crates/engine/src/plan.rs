//! Compiled join plans: sideways information passing, done once.
//!
//! The dynamic matcher in [`crate::eval`] re-ranks every pending body
//! literal at every recursion depth of every call — classifying each
//! literal costs an `eval_term` walk per argument, and the same rule is
//! evaluated thousands of times across seminaive rounds and γ steps.
//! The ranking, however, only depends on *which variables are bound*
//! at each step, and boundness is branch-invariant: every branch at a
//! given depth has executed exactly the same step sequence, so the
//! bound set — and therefore the chosen literal order — is a function
//! of the rule alone (plus, for deltas, which occurrence is focused).
//!
//! [`JoinPlan::compile`] exploits that: it simulates the matcher's
//! selection loop over a boolean bound-set, reproducing the exact
//! ranking (ground filters first, then `=` assignments, then the
//! focused atom, then the atom with the most ground columns, first
//! literal winning ties) and records the resulting step sequence. The
//! executor then just runs the steps: no re-classification, no key
//! re-derivation, constants prefiltered at compile time, and scans go
//! through [`gbc_storage::Relation::select_ids_into`] so rows are read
//! in place from the arena instead of being cloned out.
//!
//! [`RulePlan`] bundles the unfocused plan with one variant per
//! positive literal (seminaive focuses each occurrence in turn);
//! [`PlanCache`] lazily compiles and retains one `RulePlan` per rule,
//! counting reuse in the `plan_cache_hits` metric.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gbc_ast::{Atom, CmpOp, Expr, Literal, Rule, Term, Value, VarId};
use gbc_storage::{dictionary, Database, RowsView, DICT_MISS};
use gbc_telemetry::{Metrics, RuleProfiler};

use crate::bindings::Bindings;
use crate::error::EngineError;
use crate::eval::{eval_expr, eval_term, match_term, match_term_id, Focus};
use crate::pool::{FanoutObs, WorkerPool};

/// One ingredient of a scan's index key, resolved at compile time.
#[derive(Clone, Debug)]
enum KeyPart {
    /// The argument is a ground term; its dictionary id is interned
    /// **once, at plan-compile time** (this is the constant-prefilter
    /// case — the index does the filtering, and no per-row or per-call
    /// re-encoding ever happens).
    Const(u32),
    /// The argument is a variable that is bound by the time this scan
    /// runs; read its id straight out of the binding slots.
    Var(VarId),
    /// A compound term whose variables are all bound: evaluate
    /// `args[col]` against the bindings at run time.
    Eval(usize),
}

/// Resolve one key ingredient to a dictionary id. Values reached
/// through the value-level side (arithmetic assignments, evaluated
/// compound terms) use a lookup-only encode: a value the dictionary has
/// never seen cannot be stored in any relation, so the [`DICT_MISS`]
/// key probes normally and matches nothing — exactly the old
/// value-keyed behaviour, counter for counter.
fn key_id(part: &KeyPart, a: &Atom, b: &Bindings) -> u32 {
    match part {
        KeyPart::Const(id) => *id,
        KeyPart::Var(var) => {
            let id = b.id_of(*var);
            if id != DICT_MISS {
                id
            } else {
                dictionary::try_encode(b.get(*var).expect("compiled as bound"))
            }
        }
        KeyPart::Eval(col) => {
            dictionary::try_encode(&eval_term(&a.args[*col], b).expect("compiled as ground"))
        }
    }
}

/// One step of a compiled plan, in execution order.
#[derive(Clone, Debug)]
enum PlanStep {
    /// `rule.body[lit]` is a comparison, ground at this point: evaluate
    /// both sides and prune on failure.
    Filter { lit: usize },
    /// `rule.body[lit]` is `t = e` with exactly one side ground: bind
    /// the bare term on the other side. `bind_lhs` says which side is
    /// the target.
    Assign { lit: usize, bind_lhs: bool },
    /// `rule.body[lit]` is a ground negation: membership test.
    NegCheck { lit: usize },
    /// `rule.body[lit]` is a positive atom: probe the relation on
    /// `key_cols` (ascending) with the values described by `key`, then
    /// unify only `match_cols` per candidate row — key columns are
    /// already guaranteed equal by the index. A focused scan iterates
    /// the caller's delta rows instead and unifies every column.
    Scan {
        lit: usize,
        key_cols: Vec<usize>,
        key: Vec<KeyPart>,
        match_cols: Vec<usize>,
        focused: bool,
    },
}

/// Static facts about one rule, established by whole-program analysis.
///
/// Computed in `gbc-core` (which owns the type/reachability passes —
/// the engine sits below it in the crate graph) and handed to
/// [`RulePlan::compile_typed`]; `Default` is the no-information state
/// and compiles exactly like the untyped path.
#[derive(Clone, Debug, Default)]
pub struct RuleStatics {
    /// The rule provably never fires (reads a provably-empty predicate
    /// or carries a constant-false comparison): its plan matches
    /// nothing and matching short-circuits.
    pub dead: bool,
    /// Body literal indices of constant-**true** comparisons; they are
    /// dropped from the compiled step sequence instead of evaluating to
    /// `true` on every enumerated row.
    pub const_true_lits: Vec<usize>,
}

/// A compiled literal order for one (rule, focus) combination.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    steps: Vec<PlanStep>,
}

fn term_ground(t: &Term, bound: &[bool]) -> bool {
    match t {
        Term::Var(v) => bound.get(v.index()).copied().unwrap_or(false),
        Term::Const(_) => true,
        Term::Func(_, args) => args.iter().all(|a| term_ground(a, bound)),
    }
}

fn expr_ground(e: &Expr, bound: &[bool]) -> bool {
    match e {
        Expr::Term(t) => term_ground(t, bound),
        Expr::Neg(inner) => expr_ground(inner, bound),
        Expr::Binary(_, l, r) => expr_ground(l, bound) && expr_ground(r, bound),
    }
}

fn mark_term_bound(t: &Term, bound: &mut [bool]) {
    match t {
        Term::Var(v) => {
            if let Some(slot) = bound.get_mut(v.index()) {
                *slot = true;
            }
        }
        Term::Const(_) => {}
        Term::Func(_, args) => {
            for a in args {
                mark_term_bound(a, bound);
            }
        }
    }
}

impl JoinPlan {
    /// Compile the literal order for `rule`, optionally treating the
    /// positive literal at `focus_lit` as the focused (delta)
    /// occurrence. Mirrors the dynamic matcher's ranking exactly so
    /// the enumeration order — and with it every downstream counter —
    /// is unchanged.
    pub fn compile(rule: &Rule, focus_lit: Option<usize>) -> Result<JoinPlan, EngineError> {
        JoinPlan::compile_typed(rule, focus_lit, &RuleStatics::default())
    }

    /// [`JoinPlan::compile`] with analysis results applied: literals
    /// listed in `statics.const_true_lits` are folded out of the step
    /// sequence (they hold on every row, so dropping them changes
    /// neither the matches nor the enumeration order).
    pub fn compile_typed(
        rule: &Rule,
        focus_lit: Option<usize>,
        statics: &RuleStatics,
    ) -> Result<JoinPlan, EngineError> {
        if rule.has_next() {
            return Err(EngineError::UnexpandedNext { rule: rule.to_string() });
        }
        let mut bound = vec![false; rule.num_vars()];
        let mut pending: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(i, l)| !l.is_meta() && !statics.const_true_lits.contains(i))
            .map(|(i, _)| i)
            .collect();
        let mut steps = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let mut best: Option<(usize, usize, u32)> = None; // (pending idx, rank, tie)
            for (pi, &li) in pending.iter().enumerate() {
                let (rank, tie) = match &rule.body[li] {
                    Literal::Pos(a) => {
                        let ground = a.args.iter().filter(|t| term_ground(t, &bound)).count();
                        let focused = focus_lit == Some(li);
                        (2, if focused { 0 } else { u32::MAX - ground as u32 })
                    }
                    Literal::Neg(a) => {
                        if !a.args.iter().all(|t| term_ground(t, &bound)) {
                            continue;
                        }
                        (0, 0)
                    }
                    Literal::Compare { op, lhs, rhs } => {
                        let lg = expr_ground(lhs, &bound);
                        let rg = expr_ground(rhs, &bound);
                        match (lg, rg) {
                            (true, true) => (0, 0),
                            (true, false) | (false, true) if *op == CmpOp::Eq => {
                                let unbound = if lg { rhs } else { lhs };
                                if unbound.as_bare_term().is_none() {
                                    continue;
                                }
                                (1, 0)
                            }
                            _ => continue,
                        }
                    }
                    _ => unreachable!("meta literals are filtered out"),
                };
                if best.map_or(true, |(_, br, bt)| (rank, tie) < (br, bt)) {
                    best = Some((pi, rank, tie));
                }
            }
            let Some((pi, _, _)) = best else {
                return Err(EngineError::NoEvaluableLiteral { rule: rule.to_string() });
            };
            let li = pending.remove(pi);
            match &rule.body[li] {
                Literal::Pos(a) => {
                    let focused = focus_lit == Some(li);
                    let mut key_cols = Vec::new();
                    let mut key = Vec::new();
                    let mut match_cols = Vec::new();
                    for (col, t) in a.args.iter().enumerate() {
                        if !focused && term_ground(t, &bound) {
                            key_cols.push(col);
                            key.push(match t {
                                Term::Var(v) => KeyPart::Var(*v),
                                Term::Const(c) => KeyPart::Const(dictionary::encode(c)),
                                Term::Func(..) => match t.as_value() {
                                    Some(v) => KeyPart::Const(dictionary::encode(&v)),
                                    None => KeyPart::Eval(col),
                                },
                            });
                        } else {
                            match_cols.push(col);
                        }
                    }
                    for t in &a.args {
                        mark_term_bound(t, &mut bound);
                    }
                    steps.push(PlanStep::Scan { lit: li, key_cols, key, match_cols, focused });
                }
                Literal::Neg(_) => steps.push(PlanStep::NegCheck { lit: li }),
                Literal::Compare { lhs, rhs, .. } => {
                    let lg = expr_ground(lhs, &bound);
                    let rg = expr_ground(rhs, &bound);
                    if lg && rg {
                        steps.push(PlanStep::Filter { lit: li });
                    } else {
                        let target = if lg { rhs } else { lhs };
                        let term = target.as_bare_term().expect("selected as assignable");
                        mark_term_bound(term, &mut bound);
                        steps.push(PlanStep::Assign { lit: li, bind_lhs: !lg });
                    }
                }
                _ => unreachable!("meta literals are filtered out"),
            }
        }
        Ok(JoinPlan { steps })
    }
}

/// One head cell, classified at plan-compile time.
#[derive(Clone, Debug)]
enum HeadCell {
    /// A variable. Scans bind it together with the id they read, so
    /// the id is copied; bound by value instead (an `=` assignment's
    /// arithmetic result), it is a computed cell.
    Var(VarId),
    /// A ground term. Interned by the coordinator for the first row
    /// that needs it, then reused for every later row.
    Const(Value, OnceLock<u32>),
    /// A functor term over variables: evaluated per row, a computed
    /// cell.
    Term(Term),
}

/// A rule head compiled for instantiation in id space: a derived row is
/// built from the ids its match already holds, and only computed cells
/// (functor terms, arithmetic results, a constant's first use) go
/// through the dictionary.
///
/// Instantiation ([`HeadPlan::instantiate`]) never interns, so pool
/// workers run it; computed cells travel to the coordinator as values
/// and are interned there, in row order, by [`HeadPlan::resolve`] —
/// at the same points, and so with the same ids, as encoding whole
/// value rows on insert would.
#[derive(Clone, Debug)]
pub struct HeadPlan {
    cells: Vec<HeadCell>,
}

/// Head rows awaiting insertion: id rows whose computed cells hold
/// [`DICT_MISS`], plus those cells' values in row-major order.
#[derive(Debug, Default)]
pub(crate) struct HeadRows {
    /// One id row per derived head.
    pub(crate) rows: Vec<Vec<u32>>,
    /// The values of every `DICT_MISS` cell in `rows`, in order.
    pub(crate) computed: Vec<Value>,
}

impl HeadRows {
    /// Append `other` after the rows already queued.
    pub(crate) fn append(&mut self, other: HeadRows) {
        self.rows.extend(other.rows);
        self.computed.extend(other.computed);
    }

    /// Queue a row given as values (every cell computed).
    pub(crate) fn push_values(&mut self, row: &[Value]) {
        self.rows.push(vec![DICT_MISS; row.len()]);
        self.computed.extend_from_slice(row);
    }
}

impl HeadPlan {
    /// Classify every argument of `head`.
    pub fn compile(head: &Atom) -> HeadPlan {
        let cells = head
            .args
            .iter()
            .map(|t| match (t, t.as_value()) {
                (Term::Var(v), _) => HeadCell::Var(*v),
                (_, Some(v)) => HeadCell::Const(v, OnceLock::new()),
                (_, None) => HeadCell::Term(t.clone()),
            })
            .collect();
        HeadPlan { cells }
    }

    /// Queue the head row of `rule` under the complete match `b` on
    /// `out`: known ids are copied, computed cells are left as
    /// [`DICT_MISS`] with their values queued. Never interns.
    pub(crate) fn instantiate(
        &self,
        rule: &Rule,
        b: &Bindings,
        out: &mut HeadRows,
    ) -> Result<(), EngineError> {
        let non_ground = || EngineError::NonGroundHead { rule: rule.to_string() };
        let mut row = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let id = match cell {
                HeadCell::Var(v) => {
                    let id = b.id_of(*v);
                    if id == DICT_MISS {
                        out.computed.push(b.get(*v).ok_or_else(non_ground)?.clone());
                    }
                    id
                }
                HeadCell::Const(v, id) => id.get().copied().unwrap_or_else(|| {
                    out.computed.push(v.clone());
                    DICT_MISS
                }),
                HeadCell::Term(t) => {
                    out.computed.push(eval_term(t, b).ok_or_else(non_ground)?);
                    DICT_MISS
                }
            };
            row.push(id);
        }
        out.rows.push(row);
        Ok(())
    }

    /// [`HeadPlan::instantiate`] and [`HeadPlan::resolve`] for a single
    /// row, on the coordinator.
    pub fn ids(
        &self,
        rule: &Rule,
        b: &Bindings,
        hold: Option<usize>,
    ) -> Result<(Vec<u32>, Option<Value>), EngineError> {
        let mut queued = HeadRows::default();
        self.instantiate(rule, b, &mut queued)?;
        let mut row = queued.rows.pop().expect("one instantiated row");
        let held = self.resolve(&mut row, &mut queued.computed.into_iter(), hold);
        Ok((row, held))
    }

    /// Intern the computed cells of a queued `row`, taking their values
    /// from `computed` in cell order. Coordinator only. A computed cell
    /// at column `hold` is left as [`DICT_MISS`] and its value returned,
    /// for a caller that must check the rest of the row before that
    /// cell may be interned.
    pub(crate) fn resolve(
        &self,
        row: &mut [u32],
        computed: &mut impl Iterator<Item = Value>,
        hold: Option<usize>,
    ) -> Option<Value> {
        let mut held = None;
        for (col, (slot, cell)) in row.iter_mut().zip(&self.cells).enumerate() {
            if *slot != DICT_MISS {
                continue;
            }
            let v = computed.next().expect("one queued value per computed cell");
            if Some(col) == hold {
                held = Some(v);
                continue;
            }
            *slot = match cell {
                HeadCell::Const(_, id) => *id.get_or_init(|| dictionary::encode(&v)),
                _ => dictionary::encode(&v),
            };
        }
        held
    }
}

/// The compiled plans of one rule: the unfocused order plus one
/// variant per positive body literal (the occurrence seminaive deltas
/// focus on), and the head.
#[derive(Clone, Debug)]
pub struct RulePlan {
    base: JoinPlan,
    focused: Vec<(usize, JoinPlan)>,
    head: HeadPlan,
    /// Analysis proved the rule can never fire: matching is a no-op.
    dead: bool,
}

impl RulePlan {
    /// Compile every variant of `rule`.
    pub fn compile(rule: &Rule) -> Result<RulePlan, EngineError> {
        RulePlan::compile_typed(rule, &RuleStatics::default())
    }

    /// Compile every variant of `rule` with analysis results applied.
    /// A dead rule compiles to an empty, short-circuiting plan.
    pub fn compile_typed(rule: &Rule, statics: &RuleStatics) -> Result<RulePlan, EngineError> {
        if statics.dead {
            return Ok(RulePlan {
                base: JoinPlan { steps: Vec::new() },
                focused: Vec::new(),
                head: HeadPlan::compile(&rule.head),
                dead: true,
            });
        }
        let base = JoinPlan::compile_typed(rule, None, statics)?;
        let mut focused = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            if matches!(lit, Literal::Pos(_)) {
                focused.push((li, JoinPlan::compile_typed(rule, Some(li), statics)?));
            }
        }
        Ok(RulePlan { base, focused, head: HeadPlan::compile(&rule.head), dead: false })
    }

    /// The compiled head.
    pub fn head(&self) -> &HeadPlan {
        &self.head
    }

    /// True when analysis proved the rule dead (plan matches nothing).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The plan variant for a given focused literal (or the base plan).
    pub fn variant(&self, focus_lit: Option<usize>) -> &JoinPlan {
        match focus_lit {
            None => &self.base,
            Some(li) => {
                &self
                    .focused
                    .iter()
                    .find(|(l, _)| *l == li)
                    .expect("focus must name a positive body literal")
                    .1
            }
        }
    }
}

/// Enumerate all satisfying bindings of `rule` by executing a compiled
/// plan. Negated atoms are tested against `neg_db` when given (the
/// Gelfond–Lifschitz reduct hook), `db` otherwise. `on_match` returning
/// `false` stops the enumeration early.
pub fn for_each_match_plan(
    db: &Database,
    neg_db: Option<&Database>,
    rule: &Rule,
    plan: &RulePlan,
    focus: Option<Focus<'_>>,
    on_match: &mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    if plan.dead {
        return Ok(());
    }
    let variant = plan.variant(focus.map(|f| f.literal));
    execute(db, neg_db, rule, variant, focus, on_match)
}

/// Execute one plan variant. `variant` must have been compiled from
/// `rule` with the same focus literal as `focus`.
pub(crate) fn execute<'a>(
    db: &'a Database,
    neg_db: Option<&'a Database>,
    rule: &'a Rule,
    variant: &'a JoinPlan,
    focus: Option<Focus<'a>>,
    on_match: &'a mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    let mut exec = Exec {
        db,
        neg_db: neg_db.unwrap_or(db),
        rule,
        steps: &variant.steps,
        focus_rows: focus.map_or(RowsView::empty(), |f| f.rows),
        preselected: None,
        bindings: Bindings::new(rule.num_vars()),
        trail: Vec::new(),
        key_buf: Vec::new(),
        val_buf: Vec::new(),
        ids_bufs: vec![Vec::new(); variant.steps.len()],
        on_match,
        stopped: false,
    };
    exec.run_step(0)
}

struct Exec<'a> {
    db: &'a Database,
    neg_db: &'a Database,
    rule: &'a Rule,
    steps: &'a [PlanStep],
    focus_rows: RowsView<'a>,
    /// `(step, ids)` when a coordinator already keyed and probed the
    /// scan at `step` (see [`split_first_scan`]): the scan iterates
    /// this id chunk instead of probing again.
    preselected: Option<(usize, &'a [u32])>,
    bindings: Bindings,
    /// Variables bound since the enclosing choice point, unwound by
    /// `rollback`.
    trail: Vec<VarId>,
    /// Scratch for encoded index keys; filled and drained within one
    /// scan step.
    key_buf: Vec<u32>,
    /// Scratch for ground negation tuples.
    val_buf: Vec<Value>,
    /// Per-step id buffers: scans reuse their own buffer across the
    /// sibling iterations of the enclosing step.
    ids_bufs: Vec<Vec<u32>>,
    on_match: &'a mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
    stopped: bool,
}

impl Exec<'_> {
    fn rollback(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.bindings.unbind(v);
        }
    }

    fn run_step(&mut self, d: usize) -> Result<(), EngineError> {
        let steps = self.steps;
        let Some(step) = steps.get(d) else {
            if !(self.on_match)(&self.bindings)? {
                self.stopped = true;
            }
            return Ok(());
        };
        let rule = self.rule;
        match step {
            PlanStep::Filter { lit } => {
                let Literal::Compare { op, lhs, rhs } = &rule.body[*lit] else {
                    unreachable!("Filter step on non-comparison");
                };
                let a = eval_expr(lhs, &self.bindings)?.expect("compiled as ground");
                let b = eval_expr(rhs, &self.bindings)?.expect("compiled as ground");
                if op.eval(a.cmp(&b)) {
                    self.run_step(d + 1)?;
                }
            }
            PlanStep::Assign { lit, bind_lhs } => {
                let Literal::Compare { lhs, rhs, .. } = &rule.body[*lit] else {
                    unreachable!("Assign step on non-comparison");
                };
                let (target, source) = if *bind_lhs { (lhs, rhs) } else { (rhs, lhs) };
                let val = eval_expr(source, &self.bindings)?.expect("compiled as ground");
                let term = target.as_bare_term().expect("compiled as assignable");
                let mark = self.trail.len();
                if match_term(term, &val, &mut self.bindings, &mut self.trail) {
                    self.run_step(d + 1)?;
                }
                self.rollback(mark);
            }
            PlanStep::NegCheck { lit } => {
                let Literal::Neg(a) = &rule.body[*lit] else {
                    unreachable!("NegCheck step on non-negation");
                };
                let neg_db = self.neg_db;
                let mut vals = std::mem::take(&mut self.val_buf);
                vals.clear();
                for t in &a.args {
                    vals.push(eval_term(t, &self.bindings).expect("compiled as ground"));
                }
                let present = neg_db.relation(a.pred).contains_values(&vals);
                self.val_buf = vals;
                if !present {
                    self.run_step(d + 1)?;
                }
            }
            PlanStep::Scan { lit, key_cols, key, match_cols, focused } => {
                let Literal::Pos(a) = &rule.body[*lit] else {
                    unreachable!("Scan step on non-positive literal");
                };
                if *focused {
                    let rows = self.focus_rows;
                    if rows.arity() == a.args.len() {
                        for i in 0..rows.len() {
                            let mark = self.trail.len();
                            let ok = a.args.iter().enumerate().all(|(c, t)| {
                                match_term_id(
                                    t,
                                    rows.cell(i, c),
                                    &mut self.bindings,
                                    &mut self.trail,
                                )
                            });
                            if ok {
                                self.run_step(d + 1)?;
                            }
                            self.rollback(mark);
                            if self.stopped {
                                break;
                            }
                        }
                    }
                } else {
                    let rel = self.db.relation(a.pred);
                    let mut ids_buf = std::mem::take(&mut self.ids_bufs[d]);
                    let ids: &[u32] = match self.preselected {
                        // The coordinator keyed and probed this scan
                        // once — exactly as a serial execution would —
                        // and handed us a contiguous chunk of the
                        // selected ids; no second probe.
                        Some((step, pre)) if step == d => pre,
                        _ => {
                            debug_assert!(self.key_buf.is_empty());
                            for part in key {
                                self.key_buf.push(key_id(part, a, &self.bindings));
                            }
                            rel.select_ids_into(key_cols, &self.key_buf, &mut ids_buf);
                            self.key_buf.clear();
                            &ids_buf
                        }
                    };
                    let view = rel.rows();
                    if view.arity() == a.args.len() {
                        for &id in ids {
                            let mark = self.trail.len();
                            let ok = match_cols.iter().all(|&c| {
                                match_term_id(
                                    &a.args[c],
                                    view.cell(id as usize, c),
                                    &mut self.bindings,
                                    &mut self.trail,
                                )
                            });
                            if ok {
                                self.run_step(d + 1)?;
                            }
                            self.rollback(mark);
                            if self.stopped {
                                break;
                            }
                        }
                    }
                    ids_buf.clear();
                    self.ids_bufs[d] = ids_buf;
                }
            }
        }
        Ok(())
    }
}

/// Where a base-plan execution can fan out, computed by
/// [`split_first_scan`]: the coordinator runs the prefix steps
/// (filters, assignments, negation checks — all deterministic and
/// counter-free) up to the first index scan, performs that scan's one
/// key build and id selection exactly as a serial execution would,
/// then hands contiguous chunks of the ids to workers.
pub(crate) enum FirstScan {
    /// A prefix step failed: the rule has no matches this round (and,
    /// as in a serial run, no index was probed).
    Dead,
    /// The plan reaches a match — or a focused scan — without ever
    /// probing an index: nothing to split. Callers run the serial
    /// path, which has consumed no probe yet.
    NoScan,
    /// The first unfocused scan sits at `step` and enumerates exactly
    /// `ids` (arena positions), selected with one probe.
    Split { step: usize, ids: Vec<u32> },
}

/// Run `variant`'s prefix up to its first unfocused [`PlanStep::Scan`]
/// and perform that scan's id selection once. Negations are tested
/// against `db` itself (the seminaive/extrema case — no reduct).
pub(crate) fn split_first_scan(
    db: &Database,
    rule: &Rule,
    variant: &JoinPlan,
) -> Result<FirstScan, EngineError> {
    let mut bindings = Bindings::new(rule.num_vars());
    let mut trail = Vec::new();
    for (d, step) in variant.steps.iter().enumerate() {
        match step {
            PlanStep::Filter { lit } => {
                let Literal::Compare { op, lhs, rhs } = &rule.body[*lit] else {
                    unreachable!("Filter step on non-comparison");
                };
                let a = eval_expr(lhs, &bindings)?.expect("compiled as ground");
                let b = eval_expr(rhs, &bindings)?.expect("compiled as ground");
                if !op.eval(a.cmp(&b)) {
                    return Ok(FirstScan::Dead);
                }
            }
            PlanStep::Assign { lit, bind_lhs } => {
                let Literal::Compare { lhs, rhs, .. } = &rule.body[*lit] else {
                    unreachable!("Assign step on non-comparison");
                };
                let (target, source) = if *bind_lhs { (lhs, rhs) } else { (rhs, lhs) };
                let val = eval_expr(source, &bindings)?.expect("compiled as ground");
                let term = target.as_bare_term().expect("compiled as assignable");
                if !match_term(term, &val, &mut bindings, &mut trail) {
                    return Ok(FirstScan::Dead);
                }
            }
            PlanStep::NegCheck { lit } => {
                let Literal::Neg(a) = &rule.body[*lit] else {
                    unreachable!("NegCheck step on non-negation");
                };
                let vals: Vec<Value> = a
                    .args
                    .iter()
                    .map(|t| eval_term(t, &bindings).expect("compiled as ground"))
                    .collect();
                if db.relation(a.pred).contains_values(&vals) {
                    return Ok(FirstScan::Dead);
                }
            }
            PlanStep::Scan { lit, key_cols, key, focused, .. } => {
                if *focused {
                    return Ok(FirstScan::NoScan);
                }
                let Literal::Pos(a) = &rule.body[*lit] else {
                    unreachable!("Scan step on non-positive literal");
                };
                let key_ids: Vec<u32> = key.iter().map(|part| key_id(part, a, &bindings)).collect();
                let mut ids = Vec::new();
                db.relation(a.pred).select_ids_into(key_cols, &key_ids, &mut ids);
                return Ok(FirstScan::Split { step: d, ids });
            }
        }
    }
    Ok(FirstScan::NoScan)
}

/// Execute `variant` with the scan at `step` fed the preselected `ids`
/// chunk instead of probing (see [`split_first_scan`]). The prefix
/// steps re-run here — they are deterministic, side-effect- and
/// counter-free — so the bindings arrive at `step` exactly as in a
/// serial execution.
pub(crate) fn execute_preselected(
    db: &Database,
    rule: &Rule,
    variant: &JoinPlan,
    step: usize,
    ids: &[u32],
    on_match: &mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    let mut exec = Exec {
        db,
        neg_db: db,
        rule,
        steps: &variant.steps,
        focus_rows: RowsView::empty(),
        preselected: Some((step, ids)),
        bindings: Bindings::new(rule.num_vars()),
        trail: Vec::new(),
        key_buf: Vec::new(),
        val_buf: Vec::new(),
        ids_bufs: vec![Vec::new(); variant.steps.len()],
        on_match,
        stopped: false,
    };
    exec.run_step(0)
}

/// Enumerate the matches of `rule`'s **base** (unfocused) plan with the
/// first scan fanned out over `pool`: the coordinator performs the
/// prefix and the single id selection exactly as a serial run would,
/// workers execute contiguous id chunks folding matches into one `A`
/// per chunk, and the chunks come back in order — concatenating them
/// reproduces the serial enumeration order byte for byte.
///
/// Returns `None` when the plan has no unfocused scan to split (the
/// caller should run the serial path; no probe has been consumed), and
/// `Some(vec![])` when a prefix step already failed. A failing chunk
/// surfaces the error of the earliest chunk, which is the error a
/// serial run would hit first.
pub(crate) fn execute_base_chunked<A>(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    pool: &WorkerPool,
    obs: FanoutObs<'_>,
    fold: &(dyn Fn(&Bindings, &mut A) -> Result<(), EngineError> + Sync),
) -> Result<Option<Vec<A>>, EngineError>
where
    A: Default + Send,
{
    if plan.dead {
        return Ok(Some(Vec::new()));
    }
    let variant = plan.variant(None);
    let (step, ids) = match split_first_scan(db, rule, variant)? {
        FirstScan::NoScan => return Ok(None),
        FirstScan::Dead => return Ok(Some(Vec::new())),
        FirstScan::Split { step, ids } => (step, ids),
    };
    let ranges = pool.chunk_ranges(ids.len());
    let profiler = obs.profiler;
    if let Some(st) = obs.stats {
        if ranges.len() > 1 {
            for &(lo, hi) in &ranges {
                st.record_chunk((hi - lo) as u64);
            }
        }
    }
    let results =
        pool.run_stats(ranges.len(), obs.stats.filter(|_| ranges.len() > 1), |ci, worker| {
            if ranges.len() > 1 {
                // Fan-out workers collect frames only; interning stays
                // on the coordinator (debug-only determinism guard).
                gbc_storage::dictionary::forbid_intern_on_this_thread(true);
            }
            let t0 = profiler.and_then(RuleProfiler::lane_start);
            let t_chunk = obs.trace.map(|_| Instant::now());
            let (lo, hi) = ranges[ci];
            let mut acc = A::default();
            let res = execute_preselected(db, rule, variant, step, &ids[lo..hi], &mut |b| {
                fold(b, &mut acc)?;
                Ok(true)
            });
            if let (Some(p), Some(t0)) = (profiler, t0) {
                p.record_lane(worker, t0.elapsed());
            }
            if let Some(t0) = t_chunk {
                if ranges.len() > 1 {
                    obs.chunk_event(worker, (hi - lo) as u64, t0.elapsed().as_micros() as u64);
                }
            }
            res.map(|()| acc)
        });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(Some(out))
}

/// One operand of a columnar feed comparison: either a cell of the
/// current source row or a dictionary id baked at plan-compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedOperand {
    /// Read `args[col]`'s id straight from the arena row.
    Col(usize),
    /// A ground expression, evaluated and interned once when the spec
    /// is built (the feed-kernel analogue of [`KeyPart::Const`]).
    Const(u32),
}

/// One per-row check of the bindings-free feed kernel, compiled against
/// the source atom's column layout. A row of the source relation feeds
/// the queue iff every check holds; no `Bindings` frame, no decoding,
/// no per-row interning — ids compare directly because interning makes
/// id equality ⇔ value equality, and [`dictionary::cmp_ids`] reproduces
/// the decoded `Value` order that the frame-based path's
/// `op.eval(a.cmp(&b))` would see.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedCheck {
    /// `args[col]` repeats a variable first bound at `args[prev]`.
    ColEqCol { col: usize, prev: usize },
    /// `args[col]` is a ground term with this dictionary id.
    ColEqConst { col: usize, id: u32 },
    /// A pre-check comparison `lhs op rhs` over resolved operands.
    Cmp { op: CmpOp, lhs: FeedOperand, rhs: FeedOperand },
}

impl FeedCheck {
    /// Evaluate against one source row; `cell(col)` reads the row's id
    /// at `col`.
    #[inline]
    pub fn eval(&self, cell: &impl Fn(usize) -> u32) -> bool {
        let id_of = |o: &FeedOperand| match *o {
            FeedOperand::Col(c) => cell(c),
            FeedOperand::Const(id) => id,
        };
        match self {
            FeedCheck::ColEqCol { col, prev } => cell(*col) == cell(*prev),
            FeedCheck::ColEqConst { col, id } => cell(*col) == *id,
            FeedCheck::Cmp { op, lhs, rhs } => op.eval(dictionary::cmp_ids(id_of(lhs), id_of(rhs))),
        }
    }
}

/// Compile the source atom `args` and the rule's stage-free pre-check
/// comparisons into a columnar [`FeedCheck`] sequence, or `None` when
/// some argument or comparison needs a real binding frame (non-ground
/// compound terms, arithmetic over source variables). Ground sides are
/// evaluated and interned here, once — callers run this at plan-build
/// time on the coordinator regardless of whether the fast path is
/// enabled, so dictionary counters cannot differ between modes.
///
/// The returned checks are ordered args-first then pre-checks in body
/// order, matching the frame-based path's match-then-filter order.
pub fn columnar_feed_spec(args: &[Term], pre_checks: &[Literal]) -> Option<Vec<FeedCheck>> {
    let empty = Bindings::new(0);
    // First-occurrence column of each source variable.
    let mut first_col: Vec<(VarId, usize)> = Vec::new();
    let mut checks = Vec::new();
    for (col, t) in args.iter().enumerate() {
        match t {
            Term::Var(v) => match first_col.iter().find(|(w, _)| w == v) {
                None => first_col.push((*v, col)),
                Some(&(_, prev)) => checks.push(FeedCheck::ColEqCol { col, prev }),
            },
            t => {
                let id = dictionary::encode(&eval_term(t, &empty)?);
                checks.push(FeedCheck::ColEqConst { col, id });
            }
        }
    }
    let operand = |e: &Expr| -> Option<FeedOperand> {
        if let Some(Term::Var(v)) = e.as_bare_term() {
            let &(_, col) = first_col.iter().find(|(w, _)| w == v)?;
            return Some(FeedOperand::Col(col));
        }
        if e.vars().is_empty() {
            let v = eval_expr(e, &empty).ok()??;
            return Some(FeedOperand::Const(dictionary::encode(&v)));
        }
        None
    };
    for lit in pre_checks {
        let Literal::Compare { op, lhs, rhs } = lit else { return None };
        checks.push(FeedCheck::Cmp { op: *op, lhs: operand(lhs)?, rhs: operand(rhs)? });
    }
    Some(checks)
}

/// A lazily compiled, slot-per-rule plan store. Owners size it to
/// their rule list once and index it with the rule's position; the
/// first use of a slot compiles, later uses are counted as
/// `plan_cache_hits`.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    slots: Vec<Option<Arc<RulePlan>>>,
}

impl PlanCache {
    /// A cache with `n` empty slots.
    pub fn new(n: usize) -> PlanCache {
        PlanCache { slots: vec![None; n] }
    }

    /// Is slot `i` already compiled? (The next `get_or_compile` on it
    /// will be a cache hit.)
    pub fn is_cached(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(Option::is_some)
    }

    /// The plan for slot `i`, compiling `rule` on first use.
    pub fn get_or_compile(
        &mut self,
        i: usize,
        rule: &Rule,
        metrics: Option<&Metrics>,
    ) -> Result<Arc<RulePlan>, EngineError> {
        self.get_or_compile_typed(i, rule, &RuleStatics::default(), metrics)
    }

    /// [`PlanCache::get_or_compile`] with analysis results applied on
    /// the compiling (first) use. Later uses return the cached plan —
    /// callers must pass the same statics for a given slot.
    pub fn get_or_compile_typed(
        &mut self,
        i: usize,
        rule: &Rule,
        statics: &RuleStatics,
        metrics: Option<&Metrics>,
    ) -> Result<Arc<RulePlan>, EngineError> {
        match &self.slots[i] {
            Some(plan) => {
                if let Some(m) = metrics {
                    m.plan_cache_hits.inc();
                }
                Ok(Arc::clone(plan))
            }
            None => {
                let plan = Arc::new(RulePlan::compile_typed(rule, statics)?);
                self.slots[i] = Some(Arc::clone(&plan));
                Ok(plan)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_rule_plain, instantiate_head};
    use gbc_ast::term::ArithOp;
    use gbc_ast::Atom;
    use gbc_storage::Row;

    fn db_edges(edges: &[(&str, &str, i64)]) -> Database {
        let mut db = Database::new();
        for &(x, y, c) in edges {
            db.insert_values("g", vec![Value::sym(x), Value::sym(y), Value::int(c)]);
        }
        db
    }

    /// The rule used across the eval tests: path(X, Z) <- g(X,Y,_), g(Y,Z,_).
    fn chain_rule() -> Rule {
        Rule::new(
            Atom::new("path", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(3)]),
                Literal::pos("g", vec![Term::var(1), Term::var(2), Term::var(4)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into(), "_".into(), "_2".into()],
        )
    }

    #[test]
    fn feed_spec_compiles_repeats_constants_and_prechecks() {
        // g(X, Y, X, 7) with pre-checks Y != 0, X < 9.
        let args = vec![Term::var(0), Term::var(1), Term::var(0), Term::int(7)];
        let pre = vec![
            Literal::cmp(CmpOp::Ne, Expr::Term(Term::var(1)), Expr::Term(Term::int(0))),
            Literal::cmp(CmpOp::Lt, Expr::Term(Term::var(0)), Expr::Term(Term::int(9))),
        ];
        let checks = columnar_feed_spec(&args, &pre).unwrap();
        assert_eq!(checks.len(), 4);
        assert_eq!(checks[0], FeedCheck::ColEqCol { col: 2, prev: 0 });
        assert_eq!(
            checks[1],
            FeedCheck::ColEqConst { col: 3, id: dictionary::encode(&Value::int(7)) }
        );
        // Row [3, 5, 3, 7] passes; flipping any constraint fails.
        let enc = |vals: &[i64]| -> Vec<u32> {
            vals.iter().map(|&v| dictionary::encode(&Value::int(v))).collect()
        };
        let pass = enc(&[3, 5, 3, 7]);
        assert!(checks.iter().all(|c| c.eval(&|col| pass[col])));
        let repeat_broken = enc(&[3, 5, 4, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| repeat_broken[col])));
        let zero_y = enc(&[3, 0, 3, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| zero_y[col])));
        let big_x = enc(&[12, 5, 12, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| big_x[col])));
    }

    #[test]
    fn feed_spec_rejects_frames_only_shapes() {
        // Arithmetic over a source variable needs a frame.
        let args = vec![Term::var(0), Term::var(1)];
        let pre = vec![Literal::cmp(
            CmpOp::Lt,
            Expr::Binary(
                ArithOp::Add,
                Box::new(Expr::Term(Term::var(0))),
                Box::new(Expr::Term(Term::int(1))),
            ),
            Expr::Term(Term::int(9)),
        )];
        assert!(columnar_feed_spec(&args, &pre).is_none());
        // A comparison over a variable the source does not bind.
        let stray =
            vec![Literal::cmp(CmpOp::Eq, Expr::Term(Term::var(5)), Expr::Term(Term::int(0)))];
        assert!(columnar_feed_spec(&args, &stray).is_none());
        // Non-ground compound argument.
        let func_args = vec![Term::Func("f".into(), vec![Term::var(0)])];
        assert!(columnar_feed_spec(&func_args, &[]).is_none());
    }

    #[test]
    fn cached_plan_agrees_with_one_shot_eval() {
        let rule = chain_rule();
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("b", "d", 3)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut via_plan = Vec::new();
        for_each_match_plan(&db, None, &rule, &plan, None, &mut |b| {
            via_plan.push(instantiate_head(&rule, b).unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(via_plan, eval_rule_plain(&db, &rule, None).unwrap());
    }

    #[test]
    fn focused_variant_restricts_the_occurrence() {
        let rule = chain_rule();
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut delta = gbc_storage::ColumnBuf::new();
        delta.push_values(&[Value::sym("b"), Value::sym("c"), Value::int(2)]);
        let mut out = Vec::new();
        for (li, expect) in [(0, vec![("b", "d")]), (1, vec![("a", "c")])] {
            out.clear();
            for_each_match_plan(
                &db,
                None,
                &rule,
                &plan,
                Some(Focus { literal: li, rows: delta.view() }),
                &mut |b| {
                    out.push(instantiate_head(&rule, b).unwrap());
                    Ok(true)
                },
            )
            .unwrap();
            let expect: Vec<Row> =
                expect.iter().map(|&(x, z)| Row::new(vec![Value::sym(x), Value::sym(z)])).collect();
            assert_eq!(out, expect, "focus on literal {li}");
        }
    }

    #[test]
    fn constant_prefilters_are_baked_into_the_key() {
        // p(X) <- g(a, X, 1).  Both constants land in the index key.
        let rule = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::sym("a"), Term::var(0), Term::int(1)])],
            vec!["X".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("a", "c", 2), ("b", "d", 1)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut out = Vec::new();
        for_each_match_plan(&db, None, &rule, &plan, None, &mut |b| {
            out.push(instantiate_head(&rule, b).unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::sym("b")])]);
    }

    #[test]
    fn compile_rejects_unexpanded_next_and_stuck_rules() {
        let next_rule = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::Next { var: VarId(0) }],
            vec!["I".into()],
        );
        assert!(matches!(RulePlan::compile(&next_rule), Err(EngineError::UnexpandedNext { .. })));
        // X < Y with neither bound can never be scheduled.
        let stuck = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::cmp(CmpOp::Lt, Expr::var(0), Expr::var(1))],
            vec!["X".into(), "Y".into()],
        );
        assert!(matches!(RulePlan::compile(&stuck), Err(EngineError::NoEvaluableLiteral { .. })));
    }

    #[test]
    fn plan_cache_counts_hits() {
        let m = Metrics::new();
        let rule = chain_rule();
        let mut cache = PlanCache::new(1);
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // compile
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // hit
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // hit
        assert_eq!(m.snapshot().plan_cache_hits, 2);
    }

    #[test]
    fn chunked_base_execution_matches_serial_order() {
        let rule = chain_rule();
        let mut db = Database::new();
        for i in 0..300i64 {
            db.insert_values(
                "g",
                vec![Value::int(i % 17), Value::int((i + 1) % 17), Value::int(i)],
            );
        }
        let plan = RulePlan::compile(&rule).unwrap();
        let mut serial = Vec::new();
        for_each_match_plan(&db, None, &rule, &plan, None, &mut |b| {
            serial.push(instantiate_head(&rule, b).unwrap());
            Ok(true)
        })
        .unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let chunks = execute_base_chunked::<Vec<Row>>(
                &db,
                &rule,
                &plan,
                &pool,
                FanoutObs::default(),
                &|b, acc| {
                    acc.push(instantiate_head(&rule, b)?);
                    Ok(())
                },
            )
            .unwrap()
            .expect("chain rule starts with a scan");
            let merged: Vec<Row> = chunks.into_iter().flatten().collect();
            assert_eq!(merged, serial, "threads {threads}");
        }
    }

    #[test]
    fn split_reports_dead_and_noscan_plans() {
        let db = db_edges(&[("a", "b", 1)]);
        // 1 < 0 is a ground filter scheduled before any scan: dead.
        let dead = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(CmpOp::Lt, Expr::int(1), Expr::int(0)),
            ],
            vec!["X".into(), "Y".into(), "C".into()],
        );
        let plan = RulePlan::compile(&dead).unwrap();
        assert!(matches!(
            split_first_scan(&db, &dead, plan.variant(None)).unwrap(),
            FirstScan::Dead
        ));
        let pool = WorkerPool::new(4);
        let chunks = execute_base_chunked::<Vec<Row>>(
            &db,
            &dead,
            &plan,
            &pool,
            FanoutObs::default(),
            &|b, acc| {
                acc.push(instantiate_head(&dead, b)?);
                Ok(())
            },
        )
        .unwrap()
        .expect("dead plans still split");
        assert!(chunks.is_empty());
        // A body of one assignment never scans.
        let noscan = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::cmp(CmpOp::Eq, Expr::var(0), Expr::int(7))],
            vec!["X".into()],
        );
        let plan = RulePlan::compile(&noscan).unwrap();
        assert!(matches!(
            split_first_scan(&db, &noscan, plan.variant(None)).unwrap(),
            FirstScan::NoScan
        ));
    }

    #[test]
    fn dead_statics_short_circuit_matching() {
        let rule = chain_rule();
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2)]);
        let plan =
            RulePlan::compile_typed(&rule, &RuleStatics { dead: true, const_true_lits: vec![] })
                .unwrap();
        assert!(plan.is_dead());
        let mut hits = 0;
        for_each_match_plan(&db, None, &rule, &plan, None, &mut |_| {
            hits += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(hits, 0);
    }

    #[test]
    fn const_true_literals_are_folded_out_without_changing_matches() {
        // path(X, Z) <- g(X,Y,_), g(Y,Z,_), 1 < 2.
        let mut rule = chain_rule();
        rule.body.push(Literal::cmp(CmpOp::Lt, Expr::int(1), Expr::int(2)));
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("b", "d", 3)]);
        let untyped = RulePlan::compile(&rule).unwrap();
        let typed =
            RulePlan::compile_typed(&rule, &RuleStatics { dead: false, const_true_lits: vec![2] })
                .unwrap();
        assert!(typed.variant(None).steps.len() < untyped.variant(None).steps.len());
        let collect = |plan: &RulePlan| {
            let mut out = Vec::new();
            for_each_match_plan(&db, None, &rule, plan, None, &mut |b| {
                out.push(instantiate_head(&rule, b).unwrap());
                Ok(true)
            })
            .unwrap();
            out
        };
        assert_eq!(collect(&typed), collect(&untyped));
    }

    #[test]
    fn assignment_step_errors_surface_at_execution() {
        // p(Y) <- q(X), Y = X / 0 — the division errors once X is bound.
        let rule = Rule::new(
            Atom::new("p", vec![Term::var(1)]),
            vec![
                Literal::pos("q", vec![Term::var(0)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(1),
                    Expr::binary(ArithOp::Div, Expr::var(0), Expr::int(0)),
                ),
            ],
            vec!["X".into(), "Y".into()],
        );
        let mut db = Database::new();
        db.insert_values("q", vec![Value::int(4)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let r = for_each_match_plan(&db, None, &rule, &plan, None, &mut |_| Ok(true));
        assert_eq!(r, Err(EngineError::DivideByZero));
    }
}
