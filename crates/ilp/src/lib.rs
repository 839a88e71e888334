//! An exact branch-and-bound solver for linear constraint and optimisation
//! problems over bounded integer (and binary) variables.
//!
//! The MSMR paper computes its optimal pairwise priority assignment (OPT,
//! §V-A) with a commercial MILP solver (Gurobi). This crate is the
//! self-contained substitute used by the `msmr-sched` crate: it provides
//!
//! * a [`Problem`] builder for bounded integer variables, linear
//!   constraints (`≤`, `≥`, `=`) and an optional linear objective,
//! * a deterministic depth-first [`Solver`] combining bounds-consistency
//!   propagation with branch-and-bound, and
//! * a [`SolverConfig`] node budget so callers can trade completeness for
//!   run time on large instances (exhausting the budget is reported
//!   explicitly, never silently treated as infeasible).
//!
//! The solver is exact: on instances solved within the budget it returns
//! either a provably optimal solution or a proof of infeasibility, which is
//! all the pairwise-priority feasibility encoding of the paper requires.
//!
//! Propagation is event-driven. Each variable has a watch list of the
//! constraints that mention it; the root propagates every constraint, and
//! a child node, whose parent's domains are already a fixpoint, starts from
//! the watch list of the one variable its branch bounded. A constraint that
//! moves a bound re-queues that variable's watchers. Every constraint's
//! narrowing is monotone and only tightens, so the fixpoint reached does
//! not depend on the queue order: it is the one a full sweep of all
//! constraints would reach, and the search tree, node count and solution
//! are the same as with such a sweep.
//!
//! # Example
//!
//! A tiny knapsack: maximise `6x + 5y + 4z` subject to
//! `3x + 2y + 2z ≤ 4`.
//!
//! ```
//! use msmr_ilp::{LinExpr, Problem, Solver};
//!
//! # fn main() -> Result<(), msmr_ilp::IlpError> {
//! let mut problem = Problem::new();
//! let x = problem.binary("x");
//! let y = problem.binary("y");
//! let z = problem.binary("z");
//! problem.less_equal(
//!     LinExpr::new().term(x, 3).term(y, 2).term(z, 2),
//!     4,
//! );
//! problem.maximize(LinExpr::new().term(x, 6).term(y, 5).term(z, 4));
//!
//! let outcome = Solver::new().solve(&problem)?;
//! let solution = outcome.solution().expect("feasible");
//! assert_eq!(outcome.objective(), Some(9)); // y + z
//! assert_eq!(solution.value(x), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod problem;
mod propagate;
mod solver;

pub use error::IlpError;
pub use expr::LinExpr;
pub use problem::{CmpOp, Constraint, Problem, VarId, Variable};
pub use solver::{Outcome, Solution, Solver, SolverConfig, SolverStats};
