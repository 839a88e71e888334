//! Depth-first branch-and-bound search.

use std::time::{Duration, Instant};

use crate::problem::Objective;
use crate::propagate::{
    normalize, propagate, watch_lists, Domains, LeConstraint, Propagation, Worklist,
};
use crate::{IlpError, LinExpr, Problem, VarId};

/// Tuning knobs of the [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of search nodes (branching decisions) explored before
    /// the search is truncated. Exhausting the budget yields
    /// [`Outcome::Feasible`] (incumbent found) or [`Outcome::Unknown`] (no
    /// incumbent), never a silent "infeasible".
    pub node_limit: u64,
    /// Optional wall-clock budget; exceeding it truncates the search the
    /// same way the node limit does (checked every few thousand nodes).
    pub time_limit: Option<Duration>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 10_000_000,
            time_limit: None,
        }
    }
}

/// How many search nodes are explored between wall-clock deadline checks.
const DEADLINE_CHECK_INTERVAL: u64 = 4_096;

/// Search statistics reported by [`Solver::solve_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of search nodes explored.
    pub nodes: u64,
    /// Number of feasible solutions encountered.
    pub solutions: u64,
    /// Whether the node budget truncated the search.
    pub truncated: bool,
}

/// A feasible assignment found by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    values: Vec<i64>,
    objective: Option<i64>,
}

impl Solution {
    /// Value assigned to a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to the solved problem.
    #[must_use]
    pub fn value(&self, var: VarId) -> i64 {
        self.values[var.index()]
    }

    /// The full assignment, indexed by variable id.
    #[must_use]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Objective value of this solution (`None` for feasibility problems).
    #[must_use]
    pub fn objective(&self) -> Option<i64> {
        self.objective
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A provably optimal solution (for feasibility problems: any feasible
    /// solution, since all are equivalent).
    Optimal(Solution),
    /// A feasible solution was found, but the node budget ran out before
    /// optimality could be proven.
    Feasible(Solution),
    /// The problem is proven infeasible.
    Infeasible,
    /// The node budget ran out before a solution or an infeasibility proof
    /// was found.
    Unknown,
}

impl Outcome {
    /// The best solution found, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal(s) | Outcome::Feasible(s) => Some(s),
            Outcome::Infeasible | Outcome::Unknown => None,
        }
    }

    /// Objective value of the best solution, if any.
    #[must_use]
    pub fn objective(&self) -> Option<i64> {
        self.solution().and_then(Solution::objective)
    }

    /// `true` if a feasible solution was found.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.solution().is_some()
    }

    /// `true` if the search answered the question definitively (optimal
    /// solution or infeasibility proof), `false` if the node budget
    /// truncated it.
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        matches!(self, Outcome::Optimal(_) | Outcome::Infeasible)
    }
}

/// Exact depth-first branch-and-bound solver.
///
/// See the crate-level documentation for an example. The search is
/// deterministic: identical problems always yield identical outcomes and
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with an explicit configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] if a constraint or the
    /// objective references a variable that does not belong to `problem`.
    pub fn solve(&self, problem: &Problem) -> Result<Outcome, IlpError> {
        self.solve_with_stats(problem).map(|(outcome, _)| outcome)
    }

    /// Solves the problem and also reports search statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Solver::solve`].
    pub fn solve_with_stats(&self, problem: &Problem) -> Result<(Outcome, SolverStats), IlpError> {
        problem.validate()?;
        // Internally everything is a minimisation problem.
        let minimise: Option<LinExpr> = match &problem.objective {
            Objective::None => None,
            Objective::Minimize(e) => Some(e.clone()),
            Objective::Maximize(e) => Some(e.clone().scaled(-1)),
        };
        let constraints = normalize(problem);
        let watches = watch_lists(&constraints, problem.num_variables());
        let mut search = Search {
            constraints: &constraints,
            watches: &watches,
            worklist: Worklist::new(constraints.len()),
            minimise: minimise.as_ref(),
            node_limit: self.config.node_limit,
            deadline: self.config.time_limit.map(|limit| Instant::now() + limit),
            stats: SolverStats::default(),
            incumbent: None,
            incumbent_cost: i128::MAX,
        };
        let domains = Domains::from_problem(problem);
        let every_constraint: Vec<usize> = (0..constraints.len()).collect();
        search.explore(domains, &every_constraint);

        let stats = search.stats;
        let outcome = match (search.incumbent, stats.truncated) {
            (Some(values), truncated) => {
                let objective = match &problem.objective {
                    Objective::None => None,
                    _ => problem.objective_value(&values),
                };
                let solution = Solution { values, objective };
                if truncated {
                    Outcome::Feasible(solution)
                } else {
                    Outcome::Optimal(solution)
                }
            }
            (None, true) => Outcome::Unknown,
            (None, false) => Outcome::Infeasible,
        };
        Ok((outcome, stats))
    }
}

/// Mutable state of one search run.
struct Search<'a> {
    constraints: &'a [LeConstraint],
    /// `watches[var]`: the constraints that mention `var`.
    watches: &'a [Vec<usize>],
    /// Propagation queue, reused by every node.
    worklist: Worklist,
    minimise: Option<&'a LinExpr>,
    node_limit: u64,
    deadline: Option<Instant>,
    stats: SolverStats,
    incumbent: Option<Vec<i64>>,
    incumbent_cost: i128,
}

impl Search<'_> {
    /// Lower bound of the (minimisation) objective under the current
    /// domains.
    fn objective_lower_bound(&self, domains: &Domains) -> i128 {
        let Some(expr) = self.minimise else {
            return i128::MIN;
        };
        let mut bound = i128::from(expr.constant_term());
        for (var, coef) in expr.terms() {
            let value = if coef > 0 {
                domains.lower(var.index())
            } else {
                domains.upper(var.index())
            };
            bound += i128::from(coef) * i128::from(value);
        }
        bound
    }

    fn objective_of(&self, values: &[i64]) -> i128 {
        self.minimise
            .map(|expr| i128::from(expr.evaluate(values)))
            .unwrap_or(i128::MIN)
    }

    /// Depth-first exploration. `seeds` are the constraints propagation
    /// starts from: every constraint at the root, and at a child the ones
    /// watching the variable its branch bounded (the parent's domains are
    /// already a fixpoint of all the others). Returns `true` if the search
    /// should stop entirely (feasibility problem solved, or node budget
    /// exhausted).
    fn explore(&mut self, mut domains: Domains, seeds: &[usize]) -> bool {
        if self.stats.nodes >= self.node_limit {
            self.stats.truncated = true;
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.stats.nodes.is_multiple_of(DEADLINE_CHECK_INTERVAL)
                && Instant::now() >= deadline
            {
                self.stats.truncated = true;
                return true;
            }
        }
        self.stats.nodes += 1;

        self.worklist.extend(seeds.iter().copied());
        if propagate(
            self.constraints,
            self.watches,
            &mut self.worklist,
            &mut domains,
        ) == Propagation::Infeasible
        {
            return false;
        }
        // Prune nodes that cannot improve on the incumbent.
        if self.minimise.is_some() && self.objective_lower_bound(&domains) >= self.incumbent_cost {
            return false;
        }

        if domains.all_fixed() {
            let values = domains.assignment();
            let cost = self.objective_of(&values);
            self.stats.solutions += 1;
            if self.minimise.is_none() {
                self.incumbent = Some(values);
                return true; // pure feasibility: first solution wins
            }
            if cost < self.incumbent_cost {
                self.incumbent_cost = cost;
                self.incumbent = Some(values);
            }
            return false;
        }

        // Branch on the unfixed variable with the smallest domain
        // ("first fail"), splitting the domain at its midpoint.
        let var = (0..domains.len())
            .filter(|&v| !domains.is_fixed(v))
            .min_by_key(|&v| domains.width(v))
            .expect("at least one unfixed variable");
        let lower = domains.lower(var);
        let upper = domains.upper(var);
        let mid = lower + (upper - lower) / 2;

        let watching = &self.watches[var];
        let mut left = domains.clone();
        left.set_upper(var, mid);
        if self.explore(left, watching) {
            return true;
        }
        let mut right = domains;
        right.set_lower(var, mid + 1);
        self.explore(right, watching)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_optimum() {
        // maximise 6x + 5y + 4z s.t. 3x + 2y + 2z <= 4.
        let mut p = Problem::new();
        let x = p.binary("x");
        let y = p.binary("y");
        let z = p.binary("z");
        p.less_equal(LinExpr::new().term(x, 3).term(y, 2).term(z, 2), 4);
        p.maximize(LinExpr::new().term(x, 6).term(y, 5).term(z, 4));
        let outcome = Solver::new().solve(&p).unwrap();
        assert!(outcome.is_conclusive());
        assert_eq!(outcome.objective(), Some(9));
        let s = outcome.solution().unwrap();
        assert_eq!(s.value(x), 0);
        assert_eq!(s.value(y), 1);
        assert_eq!(s.value(z), 1);
        assert_eq!(s.values(), &[0, 1, 1]);
    }

    #[test]
    fn minimisation_with_integer_variables() {
        // minimise 3a + 2b s.t. a + b >= 5, a <= 3, 0 <= a,b <= 10.
        let mut p = Problem::new();
        let a = p.int_var("a", 0, 10).unwrap();
        let b = p.int_var("b", 0, 10).unwrap();
        p.greater_equal(LinExpr::new().term(a, 1).term(b, 1), 5);
        p.less_equal(LinExpr::from(a), 3);
        p.minimize(LinExpr::new().term(a, 3).term(b, 2));
        let outcome = Solver::new().solve(&p).unwrap();
        // Best is a = 0, b = 5 with cost 10.
        assert_eq!(outcome.objective(), Some(10));
        let s = outcome.solution().unwrap();
        assert_eq!(s.value(a), 0);
        assert_eq!(s.value(b), 5);
        assert_eq!(s.objective(), Some(10));
    }

    #[test]
    fn feasibility_problem_returns_first_solution() {
        let mut p = Problem::new();
        let x = p.binary("x");
        let y = p.binary("y");
        p.equal(LinExpr::new().term(x, 1).term(y, 1), 1);
        let (outcome, stats) = Solver::new().solve_with_stats(&p).unwrap();
        assert!(matches!(outcome, Outcome::Optimal(_)));
        assert_eq!(outcome.objective(), None);
        assert!(stats.solutions >= 1);
        assert!(!stats.truncated);
        let s = outcome.solution().unwrap();
        assert_eq!(s.value(x) + s.value(y), 1);
    }

    #[test]
    fn infeasible_problem_is_proven() {
        let mut p = Problem::new();
        let x = p.binary("x");
        let y = p.binary("y");
        p.greater_equal(LinExpr::new().term(x, 1).term(y, 1), 3);
        let outcome = Solver::new().solve(&p).unwrap();
        assert_eq!(outcome, Outcome::Infeasible);
        assert!(!outcome.is_feasible());
        assert!(outcome.is_conclusive());
        assert!(outcome.solution().is_none());
    }

    #[test]
    fn equality_and_negative_coefficients() {
        // x - y = 2, x + y = 6  ⇒  x = 4, y = 2.
        let mut p = Problem::new();
        let x = p.int_var("x", -10, 10).unwrap();
        let y = p.int_var("y", -10, 10).unwrap();
        p.equal(LinExpr::new().term(x, 1).term(y, -1), 2);
        p.equal(LinExpr::new().term(x, 1).term(y, 1), 6);
        let outcome = Solver::new().solve(&p).unwrap();
        let s = outcome.solution().unwrap();
        assert_eq!(s.value(x), 4);
        assert_eq!(s.value(y), 2);
    }

    #[test]
    fn big_m_max_encoding() {
        // theta = max(a, b) for fixed a = 4, b = 9, using the same
        // indicator encoding as the paper's Eq. 9: theta >= a, theta >= b,
        // theta <= a + (1 - s_a)·M, theta <= b + (1 - s_b)·M, s_a + s_b = 1.
        let m = 100;
        let mut p = Problem::new();
        let theta = p.int_var("theta", 0, m).unwrap();
        let sa = p.binary("sa");
        let sb = p.binary("sb");
        let (a, b) = (4, 9);
        p.greater_equal(LinExpr::from(theta), a);
        p.greater_equal(LinExpr::from(theta), b);
        p.less_equal(LinExpr::new().term(theta, 1).term(sa, m), a + m);
        p.less_equal(LinExpr::new().term(theta, 1).term(sb, m), b + m);
        p.equal(LinExpr::new().term(sa, 1).term(sb, 1), 1);
        p.minimize(LinExpr::from(theta));
        let outcome = Solver::new().solve(&p).unwrap();
        assert_eq!(outcome.objective(), Some(9));
        assert_eq!(outcome.solution().unwrap().value(sb), 1);
    }

    #[test]
    fn zero_time_limit_truncates_the_search() {
        let mut problem = Problem::new();
        let mut sum = LinExpr::new();
        for i in 0..18 {
            let v = problem.binary(format!("b{i}"));
            sum.add_term(v, 1);
        }
        problem.equal(sum, 9);
        let solver = Solver::with_config(SolverConfig {
            time_limit: Some(std::time::Duration::ZERO),
            ..SolverConfig::default()
        });
        let (outcome, stats) = solver.solve_with_stats(&problem).unwrap();
        assert!(stats.truncated);
        // Truncation must never be reported as infeasibility.
        assert!(!matches!(outcome, Outcome::Infeasible));
    }

    #[test]
    fn node_limit_yields_unknown_or_feasible() {
        // A problem with a large search space and a tiny node budget.
        let mut p = Problem::new();
        let vars: Vec<VarId> = (0..30).map(|i| p.binary(format!("x{i}"))).collect();
        let mut sum = LinExpr::new();
        for &v in &vars {
            sum.add_term(v, 1);
        }
        p.equal(sum, 15);
        let solver = Solver::with_config(SolverConfig {
            node_limit: 1,
            ..SolverConfig::default()
        });
        let (outcome, stats) = solver.solve_with_stats(&p).unwrap();
        assert!(stats.truncated);
        assert!(!outcome.is_conclusive());
        assert!(matches!(outcome, Outcome::Unknown | Outcome::Feasible(_)));
    }

    #[test]
    fn validation_error_is_propagated() {
        let mut p = Problem::new();
        p.less_equal(LinExpr::new().term(VarId::new(3), 1), 1);
        assert!(matches!(
            Solver::new().solve(&p),
            Err(IlpError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn unconstrained_objective_uses_variable_bounds() {
        let mut p = Problem::new();
        let x = p.int_var("x", -4, 7).unwrap();
        p.maximize(LinExpr::from(x));
        let outcome = Solver::new().solve(&p).unwrap();
        assert_eq!(outcome.objective(), Some(7));
        p.minimize(LinExpr::from(x));
        let outcome = Solver::new().solve(&p).unwrap();
        assert_eq!(outcome.objective(), Some(-4));
    }

    #[test]
    fn solver_accessors() {
        let solver = Solver::with_config(SolverConfig {
            node_limit: 42,
            ..SolverConfig::default()
        });
        assert_eq!(solver.config().node_limit, 42);
        assert_eq!(SolverConfig::default().node_limit, 10_000_000);
    }

    #[test]
    fn optimum_respects_all_constraints() {
        // Small production-planning style model with mixed constraints.
        let mut p = Problem::new();
        let a = p.int_var("a", 0, 20).unwrap();
        let b = p.int_var("b", 0, 20).unwrap();
        let c = p.binary("c");
        p.less_equal(LinExpr::new().term(a, 2).term(b, 3), 24);
        p.less_equal(LinExpr::new().term(a, 1).term(c, -20), 0); // a <= 20·c
        p.greater_equal(LinExpr::new().term(b, 1), 2);
        p.maximize(LinExpr::new().term(a, 5).term(b, 4).term(c, -7));
        let outcome = Solver::new().solve(&p).unwrap();
        let s = outcome.solution().unwrap().clone();
        // Verify feasibility independently.
        assert!(p.is_feasible(s.values()));
        // a = 9, b = 2, c = 1 gives 5·9 + 4·2 - 7 = 46.
        assert_eq!(outcome.objective(), Some(46));
    }
}
