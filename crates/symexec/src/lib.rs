#![warn(missing_docs)]
//! Symbolic execution of transaction IR programs into *transaction
//! profiles* — the offline half of Prognosticator (paper §II–III.B).
//!
//! The entry point is [`analyze`] (or [`profile_program`] with default
//! optimizations): it explores every feasible execution path of a
//! [`prognosticator_txir::Program`] with symbolic inputs and produces a
//! [`Profile`] — a tree of path-set conditions whose leaves carry
//! read/write-set templates — plus [`AnalysisStats`] matching the columns
//! of the paper's Table I.
//!
//! ```
//! use prognosticator_txir::{ProgramBuilder, InputBound, Expr};
//! use prognosticator_symexec::{profile_program, TxClass};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new("transfer");
//! let acct = b.table("accounts");
//! let from = b.input("from", InputBound::int(0, 999));
//! let to = b.input("to", InputBound::int(0, 999));
//! let bal = b.var("bal");
//! b.get(bal, Expr::key(acct, vec![Expr::input(from)]));
//! b.put(Expr::key(acct, vec![Expr::input(from)]), Expr::var(bal).sub(Expr::lit(1)));
//! b.put(Expr::key(acct, vec![Expr::input(to)]), Expr::lit(1));
//! let program = b.build();
//!
//! let analysis = profile_program(&program)?;
//! assert_eq!(analysis.profile.class(), TxClass::Independent);
//! # Ok(())
//! # }
//! ```

pub mod explorer;
pub mod profile;
pub mod relevance;
pub mod rws;
pub mod solver;
pub mod sym;

pub use explorer::{
    analyze, profile_program, Analysis, AnalysisStats, ExploreError, ExplorerConfig,
};
pub use profile::{PredictError, Profile, ProfileNode};
pub use relevance::Relevance;
pub use rws::{PivotResolver, Prediction, RwsEntry, RwsTemplate, TxClass};
pub use solver::{Sat, Solver};
pub use sym::{ConcreteEnv, KeyTemplate, LoopVarId, PivotId, SymExpr};
