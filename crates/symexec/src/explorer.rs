//! The symbolic-execution engine: DFS path exploration with sibling
//! merging, concolic treatment of irrelevant data, and loop summarization.
//!
//! This module plays the role JPF + Symbolic PathFinder play in the paper
//! (§III-B): it executes a [`Program`] with symbolic inputs, forks at
//! branches whose condition is genuinely symbolic, prunes infeasible paths
//! through the [`Solver`], and assembles the [`Profile`] tree. Three
//! optimizations — individually switchable for the Table I ablation — keep
//! the state space manageable:
//!
//! * **relevance** (`ExplorerConfig::relevance`): concretize irrelevant
//!   inputs and store reads so conditions over them never fork;
//! * **merge** (`ExplorerConfig::merge`): after exploring both sides of a
//!   fork depth-first, collapse them when they produced identical subtrees
//!   (the paper's "redundant path" pruning);
//! * **loop summarization** (`ExplorerConfig::summarize_loops`): replace a
//!   uniform input-bounded loop by a single symbolic [`RwsEntry::Range`]
//!   instead of unrolling it (how `newOrder` yields one key-set).

use crate::profile::{Profile, ProfileNode};
use crate::relevance::{self, Relevance};
use crate::rws::{RwsEntry, RwsTemplate};
use crate::solver::{Sat, Solver};
use crate::sym::{KeyTemplate, LoopVarId, PivotId, SymExpr};
use prognosticator_txir::{
    EvalError, Expr, InputBound, Program, Stmt, UnOp, Value, VarId,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration of one analysis run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplorerConfig {
    /// Concolic irrelevant-variable optimization (paper: Soot pre-pass).
    pub relevance: bool,
    /// Sibling-subtree pruning after DFS returns (paper: merging).
    pub merge: bool,
    /// Summarize uniform symbolic-bound loops into `Range` entries.
    pub summarize_loops: bool,
    /// Abort exploration after this many symbolic states. The paper caps
    /// analysis time the same way and falls back to reconnaissance.
    pub max_states: u64,
    /// Abort exploration after this wall-clock budget.
    pub time_budget: Duration,
    /// Maximum iterations a concretely-bounded loop may unroll.
    pub max_concrete_iters: i64,
    /// Maximum path-constraint depth (bounds DFS recursion; exceeding it
    /// aborts the analysis like the state cap — relevant for unoptimized
    /// runs where pivot-bounded loops fork without limit).
    pub max_path_depth: u32,
    /// Enumeration limit handed to the solver.
    pub solver_enum_limit: u128,
    /// When > 0, a summarized loop whose *end bound* depends on a pivot is
    /// **widened**: the pivot-dependent bound is replaced by this constant
    /// hull, so the `Range` template predicts the full static span and
    /// drops its pivot dependency (the paper's §III-B over-approximation —
    /// a state-bounded scan becomes an independent transaction at the
    /// price of a loose RWS). Sound only when the dynamic trip count never
    /// exceeds the hull: the RWS-soundness oracle checks that empirically,
    /// and the engine's execution scope check turns a violation into a
    /// deterministic failure. `0` (the default) disables widening.
    pub widen_loop_hull: i64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            relevance: true,
            merge: true,
            summarize_loops: true,
            max_states: 1 << 22,
            time_budget: Duration::from_secs(60),
            max_concrete_iters: 4096,
            max_path_depth: 4096,
            solver_enum_limit: crate::solver::DEFAULT_ENUM_LIMIT,
            widen_loop_hull: 0,
        }
    }
}

impl ExplorerConfig {
    /// All optimizations enabled (the paper's "optimized" column).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// All optimizations disabled (the paper's "unoptimized" column):
    /// every store read is symbolic, every symbolic branch forks, loops
    /// unroll, and nothing is merged.
    pub fn unoptimized() -> Self {
        ExplorerConfig {
            relevance: false,
            merge: false,
            summarize_loops: false,
            ..Self::default()
        }
    }
}

/// Statistics of one analysis run (the raw material of Table I).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Symbolic states created (initial + 2 per fork + summarization
    /// trials).
    pub states_explored: u64,
    /// Execution-path partitions before merging.
    pub paths: u64,
    /// Sibling subtrees collapsed by merging.
    pub merged: u64,
    /// Maximum path-constraint depth reached.
    pub max_depth: u32,
    /// Loops summarized into `Range` entries.
    pub loop_summarizations: u64,
    /// Summarized loops whose pivot-dependent end bound was widened to the
    /// configured static hull (`ExplorerConfig::widen_loop_hull`).
    pub loops_widened: u64,
    /// Infeasible branches pruned by the solver.
    pub pruned_infeasible: u64,
    /// Peak estimated bytes of live symbolic states during DFS.
    pub peak_live_bytes: usize,
    /// Estimated bytes of the final profile.
    pub profile_bytes: usize,
    /// Wall-clock analysis time.
    pub duration: Duration,
}

/// The outcome of a successful analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The transaction profile.
    pub profile: Profile,
    /// Run statistics.
    pub stats: AnalysisStats,
}

/// Errors aborting an analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// The state cap was exceeded; per the paper the transaction should be
    /// treated as dependent and key-sets obtained by reconnaissance.
    StateLimit(u64),
    /// The wall-clock budget was exceeded (same fallback as `StateLimit`).
    TimeBudget(Duration),
    /// A loop exceeded the concrete unrolling cap.
    LoopTooLong(i64),
    /// The path-constraint depth cap was exceeded (same reconnaissance
    /// fallback as `StateLimit`).
    DepthLimit(u32),
    /// The program used a construct the engine does not support
    /// symbolically (e.g. a symbolic loop *start*).
    Unsupported(&'static str),
    /// Evaluation failed (malformed program).
    Eval(EvalError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimit(n) => write!(f, "state limit exceeded ({n} states)"),
            ExploreError::TimeBudget(d) => write!(f, "time budget exceeded ({d:?})"),
            ExploreError::LoopTooLong(n) => write!(f, "concrete loop exceeds {n} iterations"),
            ExploreError::DepthLimit(d) => write!(f, "path depth limit exceeded ({d})"),
            ExploreError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            ExploreError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for ExploreError {
    fn from(e: EvalError) -> Self {
        ExploreError::Eval(e)
    }
}

/// Analyzes `program` with `config`, producing its profile and stats.
///
/// # Errors
/// See [`ExploreError`]; on `StateLimit`/`TimeBudget` the caller should
/// fall back to reconnaissance (the paper does the same).
pub fn analyze(program: &Program, config: &ExplorerConfig) -> Result<Analysis, ExploreError> {
    let start = Instant::now();
    let relevance = if config.relevance { Some(relevance::analyze(program)) } else { None };
    let bounds: Vec<InputBound> = program.inputs().iter().map(|s| s.bound.clone()).collect();
    let solver = Solver::new(bounds.clone()).with_enum_limit(config.solver_enum_limit);
    let mut ctx = Ctx {
        config,
        relevance,
        solver,
        bounds,
        pivot_ids: HashMap::new(),
        pivots: Vec::new(),
        loop_sites: HashMap::new(),
        stats: AnalysisStats::default(),
        live_bytes: 0,
        deadline: start + config.time_budget,
    };
    let machine = Machine {
        frames: vec![CFrame::Block { stmts: program.body(), idx: 0 }],
        vars: vec![SymExpr::Const(Value::Unit); program.var_count()],
        path: Vec::new(),
        reads: Vec::new(),
        writes: Vec::new(),
    };
    ctx.stats.states_explored = 1;
    let root = run(machine, &mut ctx)?;
    let mut stats = ctx.stats;
    let profile = Profile::new(program.name().to_owned(), root, ctx.pivots);
    stats.profile_bytes = profile.approx_size();
    stats.duration = start.elapsed();
    Ok(Analysis { profile, stats })
}

/// Convenience: analyze with all optimizations on.
///
/// # Errors
/// See [`analyze`].
pub fn profile_program(program: &Program) -> Result<Analysis, ExploreError> {
    analyze(program, &ExplorerConfig::optimized())
}

struct Ctx<'p> {
    config: &'p ExplorerConfig,
    relevance: Option<Relevance>,
    solver: Solver,
    bounds: Vec<InputBound>,
    /// Dedup: pivot key template → id (stable across paths).
    pivot_ids: HashMap<KeyTemplate, PivotId>,
    pivots: Vec<KeyTemplate>,
    /// Stable loop-variable ids per loop site (keyed by stmt address).
    loop_sites: HashMap<usize, LoopVarId>,
    stats: AnalysisStats,
    live_bytes: usize,
    deadline: Instant,
}

impl<'p> Ctx<'p> {
    fn pivot_for(&mut self, kt: &KeyTemplate) -> PivotId {
        if let Some(id) = self.pivot_ids.get(kt) {
            return *id;
        }
        let id = PivotId(self.pivots.len() as u32);
        self.pivot_ids.insert(kt.clone(), id);
        self.pivots.push(kt.clone());
        id
    }

    fn loop_var_for(&mut self, site: &Stmt) -> LoopVarId {
        let key = site as *const Stmt as usize;
        let next = LoopVarId(self.loop_sites.len() as u32);
        *self.loop_sites.entry(key).or_insert(next)
    }

    fn input_is_relevant(&self, i: usize) -> bool {
        self.relevance.as_ref().is_none_or(|r| r.input_is_relevant(i))
    }

    fn var_is_relevant(&self, v: VarId) -> bool {
        self.relevance.as_ref().is_none_or(|r| r.var_is_relevant(v))
    }

    fn check_budget(&self) -> Result<(), ExploreError> {
        if self.stats.states_explored > self.config.max_states {
            return Err(ExploreError::StateLimit(self.stats.states_explored));
        }
        if Instant::now() > self.deadline {
            return Err(ExploreError::TimeBudget(self.config.time_budget));
        }
        Ok(())
    }

    fn check_depth(&self, depth: usize) -> Result<(), ExploreError> {
        if depth as u32 > self.config.max_path_depth {
            return Err(ExploreError::DepthLimit(self.config.max_path_depth));
        }
        Ok(())
    }

    /// Deterministic concrete representative of an irrelevant input.
    fn representative(&self, i: usize) -> Value {
        match &self.bounds[i] {
            InputBound::Int { lo, .. } => Value::Int(*lo),
            InputBound::Choice(vs) => vs.first().cloned().unwrap_or(Value::Unit),
            InputBound::IntList { len_lo, elem_lo, .. } => {
                Value::list(vec![Value::Int(*elem_lo); *len_lo])
            }
            InputBound::Str => Value::str(""),
        }
    }
}

/// A control frame of a symbolic machine.
#[derive(Debug, Clone)]
enum CFrame<'p> {
    /// Executing a statement block.
    Block { stmts: &'p [Stmt], idx: usize },
    /// A loop with concrete bounds, unrolled iteration by iteration.
    ConcreteLoop { var: VarId, next: i64, end: i64, body: &'p [Stmt] },
    /// A loop with a symbolic end bound, forked on the guard each
    /// iteration (the unoptimized fallback).
    GuardLoop { var: VarId, next: i64, to: SymExpr, body: &'p [Stmt] },
}

/// One symbolic state: control stack + symbolic store + path constraint +
/// accumulated RWS.
#[derive(Debug, Clone)]
struct Machine<'p> {
    frames: Vec<CFrame<'p>>,
    vars: Vec<SymExpr>,
    path: Vec<SymExpr>,
    reads: Vec<RwsEntry>,
    writes: Vec<RwsEntry>,
}

impl<'p> Machine<'p> {
    fn approx_size(&self) -> usize {
        self.vars.iter().map(SymExpr::approx_size).sum::<usize>()
            + self.path.iter().map(SymExpr::approx_size).sum::<usize>()
            + self.reads.iter().map(RwsEntry::approx_size).sum::<usize>()
            + self.writes.iter().map(RwsEntry::approx_size).sum::<usize>()
            + self.frames.len() * std::mem::size_of::<CFrame<'_>>()
    }

    fn push_read(&mut self, e: RwsEntry) {
        if !self.reads.contains(&e) {
            self.reads.push(e);
        }
    }

    fn push_write(&mut self, e: RwsEntry) {
        if !self.writes.contains(&e) {
            self.writes.push(e);
        }
    }

    fn finish(self) -> RwsTemplate {
        RwsTemplate { reads: self.reads, writes: self.writes }
    }
}

enum Step<'p> {
    /// Keep stepping this machine.
    Continue,
    /// The machine finished one execution path.
    Done,
    /// The machine forked on `cond`. The machines are boxed so the
    /// no-data `Continue`/`Done` steps (the common case) stay small.
    Fork { cond: SymExpr, then_m: Box<Machine<'p>>, else_m: Box<Machine<'p>> },
}

/// Runs a machine to completion, returning the profile subtree below it.
fn run<'p>(machine: Machine<'p>, ctx: &mut Ctx<'p>) -> Result<ProfileNode, ExploreError> {
    let my_bytes = machine.approx_size();
    ctx.live_bytes += my_bytes;
    ctx.stats.peak_live_bytes = ctx.stats.peak_live_bytes.max(ctx.live_bytes);
    let result = run_inner(machine, ctx);
    ctx.live_bytes = ctx.live_bytes.saturating_sub(my_bytes);
    result
}

fn run_inner<'p>(
    mut machine: Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<ProfileNode, ExploreError> {
    loop {
        ctx.check_budget()?;
        ctx.check_depth(machine.path.len())?;
        match step(&mut machine, ctx)? {
            Step::Continue => {}
            Step::Done => {
                ctx.stats.paths += 1;
                ctx.stats.max_depth = ctx.stats.max_depth.max(machine.path.len() as u32);
                return Ok(ProfileNode::Leaf(machine.finish()));
            }
            Step::Fork { cond, then_m, else_m } => {
                ctx.stats.states_explored += 2;
                // Depth-first: finish the then-subtree before the else one,
                // so redundant siblings can be discarded immediately.
                let then_tree = run(*then_m, ctx)?;
                let else_tree = run(*else_m, ctx)?;
                if ctx.config.merge && then_tree == else_tree {
                    ctx.stats.merged += 1;
                    return Ok(then_tree);
                }
                return Ok(ProfileNode::Branch {
                    cond,
                    then: Box::new(then_tree),
                    els: Box::new(else_tree),
                });
            }
        }
    }
}

/// Executes one statement (or loop-control action) of `machine`.
fn step<'p>(machine: &mut Machine<'p>, ctx: &mut Ctx<'p>) -> Result<Step<'p>, ExploreError> {
    let Some(frame) = machine.frames.last_mut() else { return Ok(Step::Done) };
    match frame {
        CFrame::Block { stmts, idx } => {
            if *idx >= stmts.len() {
                machine.frames.pop();
                return Ok(Step::Continue);
            }
            let stmt = &stmts[*idx];
            *idx += 1;
            exec_stmt(stmt, machine, ctx)
        }
        CFrame::ConcreteLoop { var, next, end, body } => {
            if *next < *end {
                let (var, i, body) = (*var, *next, *body);
                *next += 1;
                machine.vars[var.0] = SymExpr::int(i);
                machine.frames.push(CFrame::Block { stmts: body, idx: 0 });
            } else {
                machine.frames.pop();
            }
            Ok(Step::Continue)
        }
        CFrame::GuardLoop { var, next, to, body } => {
            let cond = SymExpr::bin(
                prognosticator_txir::BinOp::Lt,
                SymExpr::int(*next),
                to.clone(),
            );
            match cond.as_const() {
                Some(Value::Bool(true)) => {
                    let (var, i, body) = (*var, *next, *body);
                    *next += 1;
                    machine.vars[var.0] = SymExpr::int(i);
                    machine.frames.push(CFrame::Block { stmts: body, idx: 0 });
                    Ok(Step::Continue)
                }
                Some(Value::Bool(false)) => {
                    machine.frames.pop();
                    Ok(Step::Continue)
                }
                Some(other) => Err(ExploreError::Eval(EvalError::TypeMismatch {
                    expected: "bool",
                    got: other.clone(),
                })),
                None => {
                    // Fork on the guard.
                    let (var, i, body) = (*var, *next, *body);
                    fork_on(machine, ctx, cond, move |m| {
                        // then: enter the body with var = i, bump counter.
                        if let Some(CFrame::GuardLoop { next, .. }) = m.frames.last_mut() {
                            *next = i + 1;
                        }
                        m.vars[var.0] = SymExpr::int(i);
                        m.frames.push(CFrame::Block { stmts: body, idx: 0 });
                    }, |m| {
                        // else: exit the loop.
                        m.frames.pop();
                    })
                }
            }
        }
    }
}

/// Builds the fork step for `cond`, applying the continuation closures to
/// the respective machines, and pruning infeasible sides via the solver.
fn fork_on<'p>(
    machine: &mut Machine<'p>,
    ctx: &mut Ctx<'p>,
    cond: SymExpr,
    then_k: impl FnOnce(&mut Machine<'p>),
    else_k: impl FnOnce(&mut Machine<'p>),
) -> Result<Step<'p>, ExploreError> {
    let neg = SymExpr::un(UnOp::Not, cond.clone());

    let mut then_path = machine.path.clone();
    then_path.push(cond.clone());
    let then_sat = ctx.solver.check(&then_path) == Sat::Sat;

    let mut else_path = machine.path.clone();
    else_path.push(neg.clone());
    let else_sat = ctx.solver.check(&else_path) == Sat::Sat;

    match (then_sat, else_sat) {
        (true, true) => {
            let mut then_m = machine.clone();
            then_m.path = then_path;
            then_k(&mut then_m);
            let mut else_m = std::mem::replace(machine, Machine {
                frames: Vec::new(),
                vars: Vec::new(),
                path: Vec::new(),
                reads: Vec::new(),
                writes: Vec::new(),
            });
            else_m.path = else_path;
            else_k(&mut else_m);
            Ok(Step::Fork { cond, then_m: Box::new(then_m), else_m: Box::new(else_m) })
        }
        (true, false) => {
            ctx.stats.pruned_infeasible += 1;
            machine.path = then_path;
            then_k(machine);
            Ok(Step::Continue)
        }
        (false, true) => {
            ctx.stats.pruned_infeasible += 1;
            machine.path = else_path;
            else_k(machine);
            Ok(Step::Continue)
        }
        (false, false) => {
            // The whole path is infeasible (can only happen through solver
            // over-approximation upstream); treat as a dead end with an
            // empty continuation — finish the path as-is.
            ctx.stats.pruned_infeasible += 2;
            machine.frames.clear();
            Ok(Step::Continue)
        }
    }
}

fn exec_stmt<'p>(
    stmt: &'p Stmt,
    machine: &mut Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<Step<'p>, ExploreError> {
    match stmt {
        Stmt::Assign(v, e) => {
            machine.vars[v.0] = sym_eval(e, machine, ctx)?;
            Ok(Step::Continue)
        }
        Stmt::Get(v, key_expr) => {
            let kt = eval_key(key_expr, machine, ctx)?;
            machine.push_read(RwsEntry::Single(kt.clone()));
            if ctx.var_is_relevant(*v) {
                // The value read may influence keys/paths: a pivot.
                let p = ctx.pivot_for(&kt);
                machine.vars[v.0] = SymExpr::Pivot(p);
            } else {
                // Concolic: irrelevant store reads become a deterministic
                // placeholder so conditions over them never fork.
                machine.vars[v.0] = SymExpr::Const(Value::Unit);
            }
            Ok(Step::Continue)
        }
        Stmt::Put(key_expr, val_expr) => {
            let kt = eval_key(key_expr, machine, ctx)?;
            // Evaluate the value for error detection, then discard: values
            // written do not affect the RWS.
            let _ = sym_eval(val_expr, machine, ctx)?;
            machine.push_write(RwsEntry::Single(kt));
            Ok(Step::Continue)
        }
        Stmt::If(cond_expr, then_b, else_b) => {
            let cond = sym_eval(cond_expr, machine, ctx)?;
            match cond.as_const() {
                Some(Value::Bool(true)) => {
                    machine.frames.push(CFrame::Block { stmts: then_b, idx: 0 });
                    Ok(Step::Continue)
                }
                Some(Value::Bool(false)) => {
                    machine.frames.push(CFrame::Block { stmts: else_b, idx: 0 });
                    Ok(Step::Continue)
                }
                Some(other) => Err(ExploreError::Eval(EvalError::TypeMismatch {
                    expected: "bool",
                    got: other.clone(),
                })),
                None => fork_on(
                    machine,
                    ctx,
                    cond,
                    |m| m.frames.push(CFrame::Block { stmts: then_b, idx: 0 }),
                    |m| m.frames.push(CFrame::Block { stmts: else_b, idx: 0 }),
                ),
            }
        }
        Stmt::For { var, from, to, body } => {
            let from_s = sym_eval(from, machine, ctx)?;
            let to_s = sym_eval(to, machine, ctx)?;
            let Some(from_c) = from_s.as_const().and_then(Value::as_int) else {
                return Err(ExploreError::Unsupported("symbolic loop start"));
            };
            if let Some(to_c) = to_s.as_const().and_then(Value::as_int) {
                if to_c.saturating_sub(from_c) > ctx.config.max_concrete_iters {
                    return Err(ExploreError::LoopTooLong(ctx.config.max_concrete_iters));
                }
                machine.frames.push(CFrame::ConcreteLoop {
                    var: *var,
                    next: from_c,
                    end: to_c,
                    body,
                });
                return Ok(Step::Continue);
            }
            // Symbolic end bound.
            if ctx.config.summarize_loops {
                if let Some(()) = try_summarize(stmt, from_c, &to_s, machine, ctx)? {
                    return Ok(Step::Continue);
                }
            }
            machine.frames.push(CFrame::GuardLoop { var: *var, next: from_c, to: to_s, body });
            Ok(Step::Continue)
        }
        Stmt::SetField(v, field, e) => {
            let val = sym_eval(e, machine, ctx)?;
            let base = std::mem::replace(&mut machine.vars[v.0], SymExpr::Const(Value::Unit));
            machine.vars[v.0] = SymExpr::set_field(base, *field, val)?;
            Ok(Step::Continue)
        }
        Stmt::Emit(e) => {
            // Emitted values do not affect the RWS; evaluate for error
            // detection only.
            let _ = sym_eval(e, machine, ctx)?;
            Ok(Step::Continue)
        }
    }
}

/// Attempts to summarize the loop `stmt` (with concrete start `from_c` and
/// symbolic end `to_s`). Returns `Ok(Some(()))` and updates `machine` on
/// success, `Ok(None)` when the loop is not uniform.
fn try_summarize<'p>(
    stmt: &'p Stmt,
    from_c: i64,
    to_s: &SymExpr,
    machine: &mut Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<Option<()>, ExploreError> {
    let Stmt::For { var, body, .. } = stmt else { unreachable!("caller matched For") };
    let lv = ctx.loop_var_for(stmt);

    // Loop-carried safety: a variable both assigned in the body and read
    // before its (unconditional) first write carries state across
    // iterations — only safe if the trial run leaves it unchanged.
    let assigned = assigned_vars_block(body);
    let rbw = read_before_write(body);

    // Trial: symbolically execute the body once with var = LoopVar(lv).
    let mut trial = Machine {
        frames: vec![CFrame::Block { stmts: body, idx: 0 }],
        vars: machine.vars.clone(),
        path: machine.path.clone(),
        reads: Vec::new(),
        writes: Vec::new(),
    };
    trial.vars[var.0] = SymExpr::LoopVar(lv);
    let initial_vars = trial.vars.clone();
    ctx.stats.states_explored += 1;

    // The trial must collapse to a single leaf: run it through the same
    // engine; a Branch result means per-iteration control flow survives
    // and the loop is not uniform.
    let trial_result = run_trial(trial, ctx)?;
    let Some((final_vars, reads, writes)) = trial_result else { return Ok(None) };

    // Safety checks. A loop-carried variable only endangers the RWS when
    // it is *relevant* (can flow into key identities): e.g. `total +=
    // price*qty` in TPC-C newOrder is carried but value-only, so the loop
    // still summarizes (its post-loop value becomes an opaque placeholder).
    for v in &assigned {
        if *v == *var {
            continue;
        }
        let carried = rbw.contains(v);
        let changed = final_vars[v.0] != initial_vars[v.0];
        if carried && changed && ctx.var_is_relevant(*v) {
            return Ok(None); // genuine loop-carried dependency on the RWS
        }
    }
    // Variables assigned in the body whose final value references the loop
    // variable are only meaningful inside an iteration; if such a variable
    // is read later in the program and is relevant, give up.
    let later = stmts_after(machine);
    for v in &assigned {
        if final_vars[v.0].mentions_loop_var() && ctx.var_is_relevant(*v) {
            let read_later = later.iter().any(|s| stmt_reads_var(s, *v));
            if read_later {
                return Ok(None);
            }
        }
    }

    // Commit: record the Range entries and advance past the loop. A
    // pivot-dependent end bound is widened to the configured static hull
    // (over-approximating the span, dropping the pivot dependency); the
    // trip count is then the workload's responsibility to keep under the
    // hull, and the slack is locked as a pure over-approximation cost.
    let to_committed = if ctx.config.widen_loop_hull > 0 && to_s.mentions_pivot() {
        ctx.stats.loops_widened += 1;
        SymExpr::int(ctx.config.widen_loop_hull)
    } else {
        to_s.clone()
    };
    if !reads.is_empty() {
        machine.push_read(RwsEntry::Range {
            loop_var: lv,
            from: SymExpr::int(from_c),
            to: to_committed.clone(),
            entries: reads,
        });
    }
    if !writes.is_empty() {
        machine.push_write(RwsEntry::Range {
            loop_var: lv,
            from: SymExpr::int(from_c),
            to: to_committed,
            entries: writes,
        });
    }
    for v in &assigned {
        let carried = rbw.contains(v) && final_vars[v.0] != initial_vars[v.0];
        machine.vars[v.0] = if carried || final_vars[v.0].mentions_loop_var() {
            // Iteration-dependent value: opaque after the loop (it cannot
            // reach a key, per the checks above).
            SymExpr::Const(Value::Unit)
        } else {
            final_vars[v.0].clone()
        };
    }
    machine.vars[var.0] = SymExpr::Const(Value::Unit);
    ctx.stats.loop_summarizations += 1;
    Ok(Some(()))
}

/// A converged trial outcome: (final variable state, reads, writes).
type TrialState = (Vec<SymExpr>, Vec<RwsEntry>, Vec<RwsEntry>);

/// Runs a trial machine for summarization; returns the final variable
/// state and collected RWS if the body collapsed to a single leaf, `None`
/// otherwise. Forks inside the trial are explored like normal states but
/// must merge away.
fn run_trial<'p>(
    machine: Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<Option<TrialState>, ExploreError> {
    // Reuse the main engine: if the body's exploration yields a Leaf, the
    // iteration is uniform. We additionally need the final vars, which the
    // tree does not carry — so run a dedicated linear execution that fails
    // on any surviving fork.
    let mut m = machine;
    loop {
        ctx.check_budget()?;
        match step(&mut m, ctx)? {
            Step::Continue => {}
            Step::Done => return Ok(Some((m.vars, m.reads, m.writes))),
            Step::Fork { cond, then_m, else_m } => {
                // A surviving fork: only acceptable if both sides converge
                // to identical leaves *and* identical final vars; that is
                // exactly "both sides do the same thing", so explore the
                // then-side and compare with the else-side.
                let t = run_trial(*then_m, ctx)?;
                let e = run_trial(*else_m, ctx)?;
                let _ = cond;
                return match (t, e) {
                    (Some(a), Some(b)) if a == b => Ok(Some(a)),
                    _ => Ok(None),
                };
            }
        }
    }
}

fn assigned_vars_block(block: &[Stmt]) -> Vec<VarId> {
    let mut out = Vec::new();
    for s in block {
        s.visit(&mut |st| {
            let v = match st {
                Stmt::Assign(v, _) | Stmt::Get(v, _) | Stmt::SetField(v, _, _) => *v,
                Stmt::For { var, .. } => *var,
                _ => return,
            };
            if !out.contains(&v) {
                out.push(v);
            }
        });
    }
    out
}

/// Variables read before being definitely written. Writes inside nested
/// control flow are definite *within* that block (so they mask reads that
/// follow them there) but not for statements after the block, since the
/// block may not execute; a `For` additionally initializes its own
/// induction variable before its body runs.
fn read_before_write(block: &[Stmt]) -> Vec<VarId> {
    let mut rbw: Vec<VarId> = Vec::new();
    rbw_scan(block, Vec::new(), &mut rbw);
    rbw
}

/// Scans `block` with the incoming definitely-written set; returns the
/// definitely-written set after the block's straight-line statements.
fn rbw_scan(block: &[Stmt], mut written: Vec<VarId>, rbw: &mut Vec<VarId>) -> Vec<VarId> {
    let note_reads = |e: &Expr, written: &[VarId], rbw: &mut Vec<VarId>| {
        for v in e.vars() {
            if !written.contains(&v) && !rbw.contains(&v) {
                rbw.push(v);
            }
        }
    };
    for s in block {
        match s {
            Stmt::Assign(v, e) => {
                note_reads(e, &written, rbw);
                if !written.contains(v) {
                    written.push(*v);
                }
            }
            Stmt::Get(v, key) => {
                note_reads(key, &written, rbw);
                if !written.contains(v) {
                    written.push(*v);
                }
            }
            Stmt::Put(k, val) => {
                note_reads(k, &written, rbw);
                note_reads(val, &written, rbw);
            }
            Stmt::SetField(v, _, e) => {
                note_reads(e, &written, rbw);
                // SetField reads the old record value too.
                if !written.contains(v) && !rbw.contains(v) {
                    rbw.push(*v);
                }
            }
            Stmt::Emit(e) => note_reads(e, &written, rbw),
            Stmt::If(c, t, e) => {
                note_reads(c, &written, rbw);
                // Branch-local writes mask branch-local reads, but are not
                // definite for what follows the If.
                let _ = rbw_scan(t, written.clone(), rbw);
                let _ = rbw_scan(e, written.clone(), rbw);
            }
            Stmt::For { var, from, to, body } => {
                note_reads(from, &written, rbw);
                note_reads(to, &written, rbw);
                // The loop initializes its induction variable before the
                // body runs; body writes are not definite after the loop.
                let mut inner = written.clone();
                if !inner.contains(var) {
                    inner.push(*var);
                }
                let _ = rbw_scan(body, inner, rbw);
            }
        }
    }
    written
}

fn stmt_exprs(stmt: &Stmt) -> Vec<&Expr> {
    match stmt {
        Stmt::Assign(_, e) | Stmt::Emit(e) | Stmt::SetField(_, _, e) => vec![e],
        Stmt::Get(_, k) => vec![k],
        Stmt::Put(k, v) => vec![k, v],
        Stmt::If(c, _, _) => vec![c],
        Stmt::For { from, to, .. } => vec![from, to],
    }
}

fn stmt_reads_var(stmt: &Stmt, v: VarId) -> bool {
    let mut found = false;
    stmt.visit(&mut |st| {
        for e in stmt_exprs(st) {
            if e.vars().contains(&v) {
                found = true;
            }
        }
        if let Stmt::SetField(target, _, _) = st {
            if *target == v {
                found = true;
            }
        }
    });
    found
}

/// Statements remaining after the machine's current position (for
/// read-later checks). Conservative: includes every pending statement.
fn stmts_after<'p>(machine: &Machine<'p>) -> Vec<&'p Stmt> {
    let mut out = Vec::new();
    for frame in &machine.frames {
        match frame {
            CFrame::Block { stmts, idx } => out.extend(stmts.iter().skip(*idx)),
            CFrame::ConcreteLoop { body, .. } | CFrame::GuardLoop { body, .. } => {
                out.extend(body.iter())
            }
        }
    }
    out
}

fn eval_key<'p>(
    key_expr: &Expr,
    machine: &Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<KeyTemplate, ExploreError> {
    let Expr::Key(table, parts) = key_expr else {
        return Err(ExploreError::Unsupported("GET/PUT expects a key constructor"));
    };
    let mut sym_parts = Vec::with_capacity(parts.len());
    for p in parts {
        sym_parts.push(sym_eval(p, machine, ctx)?);
    }
    Ok(KeyTemplate::new(*table, sym_parts))
}

/// Symbolic expression evaluation against the machine's symbolic store.
fn sym_eval<'p>(
    expr: &Expr,
    machine: &Machine<'p>,
    ctx: &mut Ctx<'p>,
) -> Result<SymExpr, ExploreError> {
    Ok(match expr {
        Expr::Const(v) => SymExpr::Const(v.clone()),
        Expr::Input(i) => {
            if *i >= ctx.bounds.len() {
                return Err(ExploreError::Eval(EvalError::InputOutOfRange(*i)));
            }
            if ctx.input_is_relevant(*i) {
                SymExpr::Input(*i)
            } else {
                SymExpr::Const(ctx.representative(*i))
            }
        }
        Expr::Var(v) => machine.vars[v.0].clone(),
        Expr::Field(e, idx) => SymExpr::field(sym_eval(e, machine, ctx)?, *idx)?,
        Expr::Bin(op, a, b) => {
            SymExpr::bin(*op, sym_eval(a, machine, ctx)?, sym_eval(b, machine, ctx)?)
        }
        Expr::Un(op, e) => SymExpr::un(*op, sym_eval(e, machine, ctx)?),
        Expr::Key(..) => return Err(ExploreError::Unsupported("key in value position")),
        Expr::MakeRecord(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            let mut all_const = true;
            for f in fields {
                let s = sym_eval(f, machine, ctx)?;
                all_const &= s.is_const();
                out.push(s);
            }
            if all_const {
                SymExpr::Const(Value::record(
                    out.into_iter()
                        .map(|s| s.as_const().cloned().expect("checked const"))
                        .collect(),
                ))
            } else {
                SymExpr::Record(out)
            }
        }
        Expr::ListIndex(l, i) => {
            let list = sym_eval(l, machine, ctx)?;
            let idx = sym_eval(i, machine, ctx)?;
            match (&list, &idx) {
                // A concrete list during SE is always a concolic
                // *representative* of an irrelevant list input (the IR has
                // no list literals), so any element stands in for any
                // other: clamp out-of-range indices — which arise when an
                // unrolled path assumes more iterations than the
                // representative's minimum length — instead of erroring.
                (SymExpr::Const(Value::List(items)), SymExpr::Const(Value::Int(n)))
                    if !items.is_empty() =>
                {
                    let i = (*n).clamp(0, items.len() as i64 - 1) as usize;
                    SymExpr::Const(items[i].clone())
                }
                (SymExpr::Const(Value::List(items)), _) if !items.is_empty() => {
                    SymExpr::Const(items[0].clone())
                }
                (SymExpr::Input(i), _) => SymExpr::InputIndex(*i, Box::new(idx)),
                _ => return Err(ExploreError::Unsupported("indexing a non-list value")),
            }
        }
        Expr::ListLen(l) => {
            let list = sym_eval(l, machine, ctx)?;
            match &list {
                SymExpr::Const(Value::List(items)) => SymExpr::int(items.len() as i64),
                SymExpr::Input(i) => SymExpr::InputLen(*i),
                _ => return Err(ExploreError::Unsupported("length of a non-list value")),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rws::TxClass;
    use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId};

    #[test]
    fn straight_line_independent_tx() {
        let mut b = ProgramBuilder::new("simple");
        let t = b.table("t");
        let id = b.input("id", InputBound::int(0, 9));
        let amt = b.input("amt", InputBound::int(0, 100));
        let v = b.var("v");
        let key = Expr::key(t, vec![Expr::input(id)]);
        b.get(v, key.clone());
        b.put(key, Expr::var(v).add(Expr::input(amt)));
        let p = b.build();

        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.class(), TxClass::Independent);
        assert_eq!(a.profile.partition_count(), 1);
        assert_eq!(a.profile.unique_key_sets(), 1);
        let pred = a.profile.predict_direct(&[Value::Int(4), Value::Int(10)]).unwrap();
        assert_eq!(pred.reads, vec![Key::of_ints(TableId(0), &[4])]);
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(0), &[4])]);
    }

    #[test]
    fn branch_on_relevant_input_forks() {
        let mut b = ProgramBuilder::new("branchy");
        let t = b.table("t");
        let x = b.input("x", InputBound::int(0, 10));
        b.if_(
            Expr::input(x).gt(Expr::lit(5)),
            |b| b.put(Expr::key(t, vec![Expr::lit(1)]), Expr::lit(0)),
            |b| b.put(Expr::key(t, vec![Expr::lit(2)]), Expr::lit(0)),
        );
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.partition_count(), 2);
        assert_eq!(a.profile.unique_key_sets(), 2);
        assert_eq!(a.profile.depth(), 1);
        let pred = a.profile.predict_direct(&[Value::Int(6)]).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(0), &[1])]);
        let pred = a.profile.predict_direct(&[Value::Int(5)]).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(0), &[2])]);
    }

    #[test]
    fn same_rws_branches_merge() {
        // newOrder pattern: both arms write the same key.
        let mut b = ProgramBuilder::new("mergy");
        let t = b.table("t");
        let x = b.input("x", InputBound::int(0, 10));
        let key = Expr::key(t, vec![Expr::lit(1)]);
        b.if_(
            Expr::input(x).gt(Expr::lit(5)),
            |b| b.put(key.clone(), Expr::lit(0)),
            |b| b.put(key.clone(), Expr::lit(1)),
        );
        let p = b.build();
        // Even with relevance disabled, merging collapses the two paths.
        let cfg = ExplorerConfig { relevance: false, ..ExplorerConfig::optimized() };
        let a = analyze(&p, &cfg).unwrap();
        assert_eq!(a.profile.partition_count(), 1);
        assert_eq!(a.stats.merged, 1);
        // With relevance, the branch never forks at all.
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.partition_count(), 1);
        assert_eq!(a.stats.states_explored, 1);
    }

    #[test]
    fn infeasible_branch_pruned() {
        let mut b = ProgramBuilder::new("infeasible");
        let t = b.table("t");
        let x = b.input("x", InputBound::int(0, 5));
        b.if_(
            Expr::input(x).gt(Expr::lit(10)), // never true for x ∈ [0,5]
            |b| b.put(Expr::key(t, vec![Expr::lit(1)]), Expr::lit(0)),
            |b| b.put(Expr::key(t, vec![Expr::lit(2)]), Expr::lit(0)),
        );
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.partition_count(), 1);
        assert!(a.stats.pruned_infeasible >= 1);
        let pred = a.profile.predict_direct(&[Value::Int(0)]).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(0), &[2])]);
    }

    #[test]
    fn pivot_detected_for_state_dependent_key() {
        // v = GET(t(id)); PUT(u(v.0 + 1), 0) — dependent transaction.
        let mut b = ProgramBuilder::new("dep");
        let t = b.table("t");
        let u = b.table("u");
        let id = b.input("id", InputBound::int(0, 9));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(u, vec![Expr::var(v).field(0).add(Expr::lit(1))]), Expr::lit(0));
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.class(), TxClass::Dependent);
        assert_eq!(a.profile.pivot_specs().len(), 1);
        assert_eq!(a.profile.indirect_keys(), 1);

        let mut resolver = |k: &Key| {
            assert_eq!(k, &Key::of_ints(TableId(0), &[3]));
            Value::record(vec![Value::Int(41)])
        };
        let pred = a.profile.predict(&[Value::Int(3)], Some(&mut resolver)).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(1), &[42])]);
        assert_eq!(pred.pivot_observations.len(), 1);
    }

    #[test]
    fn concrete_loop_unrolls() {
        let mut b = ProgramBuilder::new("cloop");
        let t = b.table("t");
        let i = b.var("i");
        b.for_(i, Expr::lit(0), Expr::lit(3), |b| {
            b.put(Expr::key(t, vec![Expr::var(i)]), Expr::lit(0));
        });
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.partition_count(), 1);
        let pred = a.profile.predict_direct(&[]).unwrap();
        assert_eq!(pred.writes.len(), 3);
    }

    #[test]
    fn symbolic_loop_summarizes() {
        // for i in 0..n { PUT(t(xs[i])) } — the newOrder shape.
        let mut b = ProgramBuilder::new("sloop");
        let t = b.table("t");
        let n = b.input("n", InputBound::int(1, 5));
        let xs = b.input("xs", InputBound::int_list(1, 5, 0, 100));
        let i = b.var("i");
        b.for_(i, Expr::lit(0), Expr::input(n), |b| {
            b.put(Expr::key(t, vec![Expr::input(xs).index(Expr::var(i))]), Expr::lit(0));
        });
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.stats.loop_summarizations, 1);
        assert_eq!(a.profile.partition_count(), 1);
        assert_eq!(a.profile.class(), TxClass::Independent);

        let xs_v = Value::list(vec![Value::Int(7), Value::Int(9), Value::Int(11)]);
        let pred = a.profile.predict_direct(&[Value::Int(3), xs_v]).unwrap();
        assert_eq!(
            pred.writes,
            vec![
                Key::of_ints(TableId(0), &[7]),
                Key::of_ints(TableId(0), &[9]),
                Key::of_ints(TableId(0), &[11]),
            ]
        );
    }

    #[test]
    fn pivot_bounded_loop_widens_to_static_hull() {
        // w = GET(ctrl(0)); for i in 0..w.0 { r = GET(t(i)); PUT(t(i), r.0+1) }
        // — a watermark-bounded scan. Without widening the summarized
        // Range's end bound mentions the watermark pivot (DT); with
        // widening the bound becomes the static hull, the pivot
        // dependency disappears, and the scan classifies as IT with a
        // full-span (over-approximating) prediction.
        let build = || {
            let mut b = ProgramBuilder::new("scan");
            let ctrl = b.table("ctrl");
            let t = b.table("t");
            let w = b.var("w");
            let r = b.var("r");
            let i = b.var("i");
            b.get(w, Expr::key(ctrl, vec![Expr::lit(0)]));
            b.for_(i, Expr::lit(0), Expr::var(w).field(0), |b| {
                b.get(r, Expr::key(t, vec![Expr::var(i)]));
                b.put(
                    Expr::key(t, vec![Expr::var(i)]),
                    Expr::var(r).field(0).add(Expr::lit(1)),
                );
            });
            b.build()
        };

        let exact = analyze(&build(), &ExplorerConfig::optimized()).unwrap();
        assert_eq!(exact.profile.class(), TxClass::Dependent);
        assert_eq!(exact.stats.loops_widened, 0);

        let cfg = ExplorerConfig { widen_loop_hull: 8, ..ExplorerConfig::optimized() };
        let wide = analyze(&build(), &cfg).unwrap();
        assert_eq!(wide.stats.loops_widened, 1);
        assert_eq!(wide.stats.loop_summarizations, 1);
        assert_eq!(wide.profile.class(), TxClass::Independent);
        let pred = wide.profile.predict_direct(&[]).unwrap();
        assert_eq!(pred.writes.len(), 8, "writes cover the full hull");
        assert_eq!(pred.reads.len(), 9, "ctrl read plus the full hull");
    }

    #[test]
    fn symbolic_loop_without_summarization_forks() {
        let mut b = ProgramBuilder::new("sloop2");
        let t = b.table("t");
        let n = b.input("n", InputBound::int(1, 3));
        let i = b.var("i");
        b.for_(i, Expr::lit(0), Expr::input(n), |b| {
            b.put(Expr::key(t, vec![Expr::var(i)]), Expr::lit(0));
        });
        let p = b.build();
        let cfg = ExplorerConfig { summarize_loops: false, merge: false, ..Default::default() };
        let a = analyze(&p, &cfg).unwrap();
        // n ∈ {1,2,3} → three distinct paths (plus pruned guard exits).
        assert_eq!(a.profile.partition_count(), 3);
        // Each path predicts the right number of writes.
        let pred = a.profile.predict_direct(&[Value::Int(2)]).unwrap();
        assert_eq!(pred.writes.len(), 2);
    }

    #[test]
    fn accumulator_loop_does_not_summarize() {
        // acc += i is loop-carried; with a store access keyed by acc the
        // loop must not summarize (and the key depends on the iteration).
        let mut b = ProgramBuilder::new("acc");
        let t = b.table("t");
        let n = b.input("n", InputBound::int(1, 3));
        let i = b.var("i");
        let acc = b.var("acc");
        b.assign(acc, Expr::lit(0));
        b.for_(i, Expr::lit(0), Expr::input(n), |b| {
            b.assign(acc, Expr::var(acc).add(Expr::lit(1)));
        });
        b.put(Expr::key(t, vec![Expr::var(acc)]), Expr::lit(0));
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.stats.loop_summarizations, 0);
        // Unrolled: keys t(1), t(2), t(3) depending on n.
        assert_eq!(a.profile.partition_count(), 3);
        let pred = a.profile.predict_direct(&[Value::Int(2)]).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(0), &[2])]);
    }

    #[test]
    fn state_limit_enforced() {
        let mut b = ProgramBuilder::new("boom");
        let t = b.table("t");
        let mut last = b.input("x0", InputBound::int(0, 1));
        // 12 independent branches, each writing a distinct key → 2^12 paths.
        for k in 1..12 {
            let x = b.input(&format!("x{k}"), InputBound::int(0, 1));
            last = x;
        }
        for k in 0..12usize {
            b.if_(
                Expr::input(k).eq(Expr::lit(1)),
                |bb| bb.put(Expr::key(t, vec![Expr::lit(2 * k as i64)]), Expr::lit(0)),
                |bb| bb.put(Expr::key(t, vec![Expr::lit(2 * k as i64 + 1)]), Expr::lit(0)),
            );
        }
        let _ = last;
        let p = b.build();
        let cfg = ExplorerConfig { max_states: 100, ..Default::default() };
        let err = analyze(&p, &cfg).unwrap_err();
        assert!(matches!(err, ExploreError::StateLimit(_)));
        // With an adequate budget it completes with 4096 partitions.
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.partition_count(), 1 << 12);
    }

    #[test]
    fn unoptimized_explores_more_states() {
        let mut b = ProgramBuilder::new("cmp");
        let t = b.table("t");
        let id = b.input("id", InputBound::int(0, 9));
        let qty = b.input("qty", InputBound::int(0, 9));
        let item = b.var("item");
        let key = Expr::key(t, vec![Expr::input(id)]);
        b.get(item, key.clone());
        b.if_(
            Expr::var(item).field(0).le(Expr::input(qty)),
            |b| b.put(key.clone(), Expr::lit(1)),
            |b| b.put(key.clone(), Expr::lit(2)),
        );
        let p = b.build();
        let opt = analyze(&p, &ExplorerConfig::optimized()).unwrap();
        let unopt = analyze(&p, &ExplorerConfig::unoptimized()).unwrap();
        assert!(unopt.stats.states_explored > opt.stats.states_explored);
        assert_eq!(opt.profile.partition_count(), 1);
        // Unoptimized: the pivot condition forks and nothing merges.
        assert_eq!(unopt.profile.partition_count(), 2);
        // Both still classify correctly w.r.t. writes.
        assert_eq!(opt.profile.class(), TxClass::Independent);
    }

    #[test]
    fn read_only_classification() {
        let mut b = ProgramBuilder::new("rot");
        let t = b.table("t");
        let id = b.input("id", InputBound::int(0, 9));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.emit(Expr::var(v));
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.class(), TxClass::ReadOnly);
    }

    #[test]
    fn pivot_branch_condition_profiles() {
        // delivery pattern: branch on a value read from the store.
        let mut b = ProgramBuilder::new("dlv");
        let t = b.table("cursor");
        let u = b.table("orders");
        let id = b.input("id", InputBound::int(0, 9));
        let c = b.var("c");
        b.get(c, Expr::key(t, vec![Expr::input(id)]));
        b.if_(
            Expr::var(c).field(0).ne(Expr::lit(0)),
            |b| b.put(Expr::key(u, vec![Expr::var(c).field(0)]), Expr::lit(0)),
            |_| {},
        );
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.profile.class(), TxClass::Dependent);
        assert_eq!(a.profile.partition_count(), 2);
        assert!(a.profile.root().has_pivot_condition());

        // Prediction with a resolver returning a non-zero cursor.
        let mut resolver = |k: &Key| {
            if k.table == TableId(0) {
                Value::record(vec![Value::Int(42)])
            } else {
                Value::Unit
            }
        };
        let pred = a.profile.predict(&[Value::Int(1)], Some(&mut resolver)).unwrap();
        assert_eq!(pred.writes, vec![Key::of_ints(TableId(1), &[42])]);
        // And with a zero cursor: no writes.
        let mut resolver = |_: &Key| Value::record(vec![Value::Int(0)]);
        let pred = a.profile.predict(&[Value::Int(1)], Some(&mut resolver)).unwrap();
        assert!(pred.writes.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let mut b = ProgramBuilder::new("stats");
        let t = b.table("t");
        let x = b.input("x", InputBound::int(0, 1));
        b.if_(
            Expr::input(x).eq(Expr::lit(0)),
            |b| b.put(Expr::key(t, vec![Expr::lit(0)]), Expr::lit(0)),
            |b| b.put(Expr::key(t, vec![Expr::lit(1)]), Expr::lit(0)),
        );
        let p = b.build();
        let a = profile_program(&p).unwrap();
        assert_eq!(a.stats.states_explored, 3); // root + 2 fork children
        assert_eq!(a.stats.paths, 2);
        assert!(a.stats.peak_live_bytes > 0);
        assert!(a.stats.profile_bytes > 0);
        assert_eq!(a.stats.max_depth, 1);
    }
}
