//! Property-based tests of the paper's core soundness claims, driven by
//! randomly generated transaction programs:
//!
//! 1. **Profile soundness** — for any program, inputs and database state,
//!    the symbolic profile's prediction covers exactly the keys a concrete
//!    execution touches (when the prediction is made against the state the
//!    transaction runs on).
//! 2. **Determinism** — feeding the same batches to independent replicas
//!    yields identical states, for every scheduling variant.
//! 3. **Optimization transparency** — the relevance/merging/summarization
//!    optimizations change the analysis cost, never the predictions.

use proptest::prelude::*;
use prognosticator::core::{baselines, Catalog, FaultPlan, Replica, SchedulerConfig, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::symexec::{analyze, ExplorerConfig, TxClass};
use prognosticator::txir::{
    Expr, InputBound, Interpreter, Key, Program, ProgramBuilder, TableId, Value,
};
use std::sync::Arc;

const TABLES: u16 = 3;
const KEYSPACE: i64 = 8;
const INPUTS: usize = 2;
const VARS: usize = 4;

/// A recipe for one randomly generated statement.
#[derive(Debug, Clone)]
enum StmtGen {
    Assign { var: usize, expr: ExprGen },
    Get { var: usize, table: u16, key: ExprGen },
    Put { table: u16, key: ExprGen, value: ExprGen },
    If { cond: (ExprGen, u8, ExprGen), then: Vec<StmtGen>, els: Vec<StmtGen> },
    For { var: usize, iters: u8, body: Vec<StmtGen> },
}

/// A recipe for a small integer expression.
#[derive(Debug, Clone)]
enum ExprGen {
    Const(i64),
    Input(usize),
    Var(usize),
    Add(Box<ExprGen>, Box<ExprGen>),
    Sub(Box<ExprGen>, Box<ExprGen>),
}

fn expr_strategy() -> impl Strategy<Value = ExprGen> {
    let leaf = prop_oneof![
        (0..KEYSPACE).prop_map(ExprGen::Const),
        (0..INPUTS).prop_map(ExprGen::Input),
        (0..VARS).prop_map(ExprGen::Var),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ExprGen::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner)
                .prop_map(|(a, b)| ExprGen::Sub(Box::new(a), Box::new(b))),
        ]
    })
}

fn stmt_strategy(depth: u32) -> BoxedStrategy<StmtGen> {
    let assign = (0..VARS, expr_strategy())
        .prop_map(|(var, expr)| StmtGen::Assign { var, expr });
    let get = (0..VARS, 0..TABLES, expr_strategy())
        .prop_map(|(var, table, key)| StmtGen::Get { var, table, key });
    let put = (0..TABLES, expr_strategy(), expr_strategy())
        .prop_map(|(table, key, value)| StmtGen::Put { table, key, value });
    if depth == 0 {
        return prop_oneof![assign, get, put].boxed();
    }
    let block = prop::collection::vec(stmt_strategy(depth - 1), 1..3);
    let iff = (
        expr_strategy(),
        0..6u8,
        expr_strategy(),
        block.clone(),
        prop::collection::vec(stmt_strategy(depth - 1), 0..2),
    )
        .prop_map(|(a, op, b, then, els)| StmtGen::If { cond: (a, op, b), then, els });
    let forr = (0..VARS, 1..3u8, block)
        .prop_map(|(var, iters, body)| StmtGen::For { var, iters, body });
    prop_oneof![3 => assign, 3 => get, 3 => put, 2 => iff, 1 => forr].boxed()
}

fn program_strategy() -> impl Strategy<Value = Vec<StmtGen>> {
    prop::collection::vec(stmt_strategy(2), 1..6)
}

fn build_expr(g: &ExprGen, vars: &[prognosticator::txir::VarId]) -> Expr {
    match g {
        ExprGen::Const(c) => Expr::lit(*c),
        ExprGen::Input(i) => Expr::input(*i),
        ExprGen::Var(v) => Expr::var(vars[*v]),
        ExprGen::Add(a, b) => build_expr(a, vars).add(build_expr(b, vars)),
        ExprGen::Sub(a, b) => build_expr(a, vars).sub(build_expr(b, vars)),
    }
}

/// Keys are always reduced into the populated key space so generated
/// programs never error and always hit populated rows.
fn build_key(table: u16, key: &ExprGen, vars: &[prognosticator::txir::VarId]) -> Expr {
    Expr::key(
        TableId(table),
        vec![build_expr(key, vars).rem(Expr::lit(KEYSPACE))],
    )
}

fn build_block(
    b: &mut ProgramBuilder,
    block: &[StmtGen],
    vars: &[prognosticator::txir::VarId],
) {
    for stmt in block {
        match stmt {
            StmtGen::Assign { var, expr } => b.assign(vars[*var], build_expr(expr, vars)),
            StmtGen::Get { var, table, key } => {
                b.get(vars[*var], build_key(*table, key, vars))
            }
            StmtGen::Put { table, key, value } => {
                b.put(build_key(*table, key, vars), build_expr(value, vars))
            }
            StmtGen::If { cond, then, els } => {
                let (a, op, bb) = cond;
                let lhs = build_expr(a, vars);
                let rhs = build_expr(bb, vars);
                let c = match op % 6 {
                    0 => lhs.eq(rhs),
                    1 => lhs.ne(rhs),
                    2 => lhs.lt(rhs),
                    3 => lhs.le(rhs),
                    4 => lhs.gt(rhs),
                    _ => lhs.ge(rhs),
                };
                // Closure-based builder needs the blocks captured by ref.
                let then = then.clone();
                let els = els.clone();
                let vars2 = vars.to_vec();
                b.if_(
                    c,
                    |b| build_block(b, &then, &vars2),
                    |b| build_block(b, &els, &vars2),
                );
            }
            StmtGen::For { var, iters, body } => {
                let body = body.clone();
                let vars2 = vars.to_vec();
                b.for_(vars[*var], Expr::lit(0), Expr::lit(i64::from(*iters)), |b| {
                    build_block(b, &body, &vars2)
                });
            }
        }
    }
}

fn build_program(block: &[StmtGen]) -> Program {
    let mut b = ProgramBuilder::new("generated");
    for t in 0..TABLES {
        b.table(&format!("t{t}"));
    }
    for i in 0..INPUTS {
        b.input(&format!("in{i}"), InputBound::int(0, KEYSPACE - 1));
    }
    let vars: Vec<_> = (0..VARS).map(|v| b.var(&format!("v{v}"))).collect();
    // Vars start as Unit; initialize them to ints so arithmetic is total.
    for v in &vars {
        b.assign(*v, Expr::lit(1));
    }
    build_block(&mut b, block, &vars);
    b.build()
}

fn populated_store() -> EpochStore {
    let store = EpochStore::new();
    for t in 0..TABLES {
        for k in 0..KEYSPACE {
            store.insert_initial(
                Key::of_ints(TableId(t), &[k]),
                Value::Int(i64::from(t) * 100 + k),
            );
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Profile predictions match concrete traces exactly, for any program,
    /// inputs and (fresh) state.
    #[test]
    fn profile_predictions_are_exact(
        block in program_strategy(),
        in0 in 0..KEYSPACE,
        in1 in 0..KEYSPACE,
    ) {
        let program = build_program(&block);
        let analysis = match analyze(&program, &ExplorerConfig::optimized()) {
            Ok(a) => a,
            Err(_) => return Ok(()), // capped: reconnaissance fallback, fine
        };
        let store = populated_store();
        store.advance_epoch();
        let inputs = vec![Value::Int(in0), Value::Int(in1)];

        let snapshot = store.snapshot_epoch();
        let mut resolver = |k: &Key| store.get_at(k, snapshot).unwrap_or(Value::Unit);
        let prediction = analysis
            .profile
            .predict(&inputs, Some(&mut resolver))
            .expect("prediction succeeds");

        let mut view = store.live();
        let out = Interpreter::new().run(&program, &inputs, &mut view).expect("runs");

        let mut predicted_reads = prediction.reads.clone();
        predicted_reads.sort();
        predicted_reads.dedup();
        let mut actual_reads = out.trace.reads.clone();
        actual_reads.sort();
        actual_reads.dedup();
        prop_assert_eq!(predicted_reads, actual_reads, "read-set mismatch");

        let mut predicted_writes = prediction.writes.clone();
        predicted_writes.sort();
        predicted_writes.dedup();
        let mut actual_writes = out.trace.writes.clone();
        actual_writes.sort();
        actual_writes.dedup();
        prop_assert_eq!(predicted_writes, actual_writes, "write-set mismatch");
    }

    /// The optimizations never change what is predicted — only how much it
    /// costs to compute the profile.
    #[test]
    fn optimizations_preserve_predictions(
        block in program_strategy(),
        in0 in 0..KEYSPACE,
        in1 in 0..KEYSPACE,
    ) {
        let program = build_program(&block);
        let opt = analyze(&program, &ExplorerConfig::optimized());
        let unopt = analyze(&program, &ExplorerConfig {
            max_states: 100_000,
            ..ExplorerConfig::unoptimized()
        });
        let (Ok(opt), Ok(unopt)) = (opt, unopt) else { return Ok(()) };
        // Merging may *legitimately* drop a pivot-dependent branch whose
        // two sides produce the same RWS, downgrading DT → IT/ROT (that is
        // the optimization's point: fewer dependent transactions). The
        // optimized classification must only ever be *less* dependent.
        let rank = |c: TxClass| match c {
            TxClass::ReadOnly => 0,
            TxClass::Independent => 1,
            TxClass::Dependent => 2,
        };
        prop_assert!(
            rank(opt.profile.class()) <= rank(unopt.profile.class()),
            "optimizations made the profile *more* dependent: {:?} vs {:?}",
            opt.profile.class(),
            unopt.profile.class()
        );

        let store = populated_store();
        store.advance_epoch();
        let inputs = vec![Value::Int(in0), Value::Int(in1)];
        let snapshot = store.snapshot_epoch();
        let mut r1 = |k: &Key| store.get_at(k, snapshot).unwrap_or(Value::Unit);
        let p1 = opt.profile.predict(&inputs, Some(&mut r1)).expect("opt prediction");
        let mut r2 = |k: &Key| store.get_at(k, snapshot).unwrap_or(Value::Unit);
        let p2 = unopt.profile.predict(&inputs, Some(&mut r2)).expect("unopt prediction");
        let mut k1 = p1.key_set();
        k1.sort();
        let mut k2 = p2.key_set();
        k2.sort();
        prop_assert_eq!(k1, k2, "optimizations changed the predicted key-set");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Two replicas fed the same randomly generated batches converge, for
    /// a random scheduling variant, quiet and under injected worker
    /// panics. Replica `a` garbage-collects every batch and `b` never
    /// does, so GC is shown not to change the state.
    #[test]
    fn random_programs_schedule_deterministically(
        blocks in prop::collection::vec(program_strategy(), 2..4),
        seed in 0..1000u64,
        variant in 0..4usize,
    ) {
        let mut catalog = Catalog::new();
        let mut ids = Vec::new();
        for block in &blocks {
            let program = build_program(block);
            ids.push(catalog.register(program).expect("registers"));
        }
        let catalog = Arc::new(catalog);
        let config = match variant {
            0 => baselines::mq_mf(2),
            1 => baselines::mq_sf(2),
            2 => baselines::nodo(2),
            _ => baselines::mq_sf_r(2),
        };

        for plan in [None, Some(FaultPlan::quiet(seed).with_worker_panics(150))] {
            let make = |gc_keep_epochs| {
                let store = Arc::new(populated_store());
                let config = SchedulerConfig { gc_keep_epochs, ..config.clone() };
                let mut replica = Replica::with_store(config, Arc::clone(&catalog), store);
                replica.set_fault_plan(plan.clone());
                replica
            };
            let mut a = make(Some(1));
            let mut b = make(None);
            // Deterministic LCG over the seed for batch composition.
            let mut state = seed as i64 + 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33).abs()
            };
            for _ in 0..3 {
                let batch: Vec<TxRequest> = (0..12)
                    .map(|_| {
                        let p = ids[(next() as usize) % ids.len()];
                        TxRequest::new(
                            p,
                            vec![Value::Int(next() % KEYSPACE), Value::Int(next() % KEYSPACE)],
                        )
                    })
                    .collect();
                let oa = a.execute_batch(batch.clone());
                let ob = b.execute_batch(batch);
                prop_assert_eq!(&oa.outcomes, &ob.outcomes);
                prop_assert_eq!(a.state_digest(), b.state_digest());
            }
            prop_assert!(a.store().version_count() <= b.store().version_count());
            a.shutdown();
            b.shutdown();
        }
    }
}

/// Deterministic smoke check that generated DT programs do appear (the
/// generator covers the interesting classes).
#[test]
fn generator_produces_all_classes() {
    // get v0 <- t0[in0]; put t1[v0] — dependent.
    let dep = vec![
        StmtGen::Get { var: 0, table: 0, key: ExprGen::Input(0) },
        StmtGen::Put { table: 1, key: ExprGen::Var(0), value: ExprGen::Const(1) },
    ];
    let p = build_program(&dep);
    let a = analyze(&p, &ExplorerConfig::optimized()).expect("analyzes");
    assert_eq!(a.profile.class(), TxClass::Dependent);

    // put t0[in0] — independent.
    let it = vec![StmtGen::Put { table: 0, key: ExprGen::Input(0), value: ExprGen::Const(1) }];
    let p = build_program(&it);
    let a = analyze(&p, &ExplorerConfig::optimized()).expect("analyzes");
    assert_eq!(a.profile.class(), TxClass::Independent);

    // get v0 <- t0[in0] — read-only.
    let rot = vec![StmtGen::Get { var: 0, table: 0, key: ExprGen::Input(0) }];
    let p = build_program(&rot);
    let a = analyze(&p, &ExplorerConfig::optimized()).expect("analyzes");
    assert_eq!(a.profile.class(), TxClass::ReadOnly);
}
