//! Domain store and event-driven bounds-consistency propagation for linear
//! constraints.
//!
//! Every constraint is normalised to `Σ a_j x_j ≤ b` and narrows the
//! bounds of its variables with one rule ([`narrow`]): against the
//! constraint's minimum activity, each term may tighten the bound that
//! activity does *not* read (the upper bound for `a_j > 0`, the lower bound
//! for `a_j < 0`), and an empty domain means the node is infeasible.
//!
//! [`propagate`] drives that rule with a worklist instead of sweeping every
//! constraint until nothing changes. The caller seeds the [`Worklist`]
//! (the search root seeds every constraint, a child only the watch list of
//! the variable its branch bounded); each popped constraint is narrowed,
//! and every variable whose bound moved re-queues the constraints that
//! watch it. A search node therefore re-checks only what its branch can
//! have affected, because its parent's domains were already a fixpoint.
//!
//! The order in which the queue is drained does not matter for the
//! result. Each constraint's narrowing is monotone (tighter input bounds
//! never give looser output bounds) and contracting (it only tightens), so
//! chaotic iteration in any fair order converges to the same greatest
//! common fixpoint, the one the full sweep reaches, and runs into an empty
//! domain exactly when that fixpoint is empty. The domains after
//! propagation, and with them first-fail branching and the node count of
//! the search, are identical to the sweep's at every node.

use std::collections::VecDeque;

use crate::{CmpOp, Problem};

/// Current lower/upper bounds of every variable during search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Domains {
    lower: Vec<i64>,
    upper: Vec<i64>,
}

impl Domains {
    /// Initial domains straight from the variable declarations.
    pub(crate) fn from_problem(problem: &Problem) -> Self {
        let mut lower = Vec::with_capacity(problem.num_variables());
        let mut upper = Vec::with_capacity(problem.num_variables());
        for (_, var) in problem.variables() {
            lower.push(var.lower());
            upper.push(var.upper());
        }
        Domains { lower, upper }
    }

    pub(crate) fn lower(&self, var: usize) -> i64 {
        self.lower[var]
    }

    pub(crate) fn upper(&self, var: usize) -> i64 {
        self.upper[var]
    }

    pub(crate) fn is_fixed(&self, var: usize) -> bool {
        self.lower[var] == self.upper[var]
    }

    pub(crate) fn width(&self, var: usize) -> i64 {
        self.upper[var] - self.lower[var]
    }

    pub(crate) fn len(&self) -> usize {
        self.lower.len()
    }

    pub(crate) fn all_fixed(&self) -> bool {
        (0..self.len()).all(|v| self.is_fixed(v))
    }

    /// The assignment formed by the lower bounds; only meaningful when all
    /// variables are fixed.
    pub(crate) fn assignment(&self) -> Vec<i64> {
        self.lower.clone()
    }

    pub(crate) fn set_lower(&mut self, var: usize, value: i64) {
        self.lower[var] = value;
    }

    pub(crate) fn set_upper(&mut self, var: usize, value: i64) {
        self.upper[var] = value;
    }
}

/// A constraint normalised to the form `Σ a_j x_j ≤ b`.
#[derive(Debug, Clone)]
pub(crate) struct LeConstraint {
    pub(crate) terms: Vec<(usize, i64)>,
    pub(crate) rhs: i64,
}

impl LeConstraint {
    /// Minimum possible activity of the left-hand side under the current
    /// domains.
    fn min_activity(&self, domains: &Domains) -> i128 {
        self.terms
            .iter()
            .map(|&(var, coef)| {
                let bound = if coef > 0 {
                    domains.lower(var)
                } else {
                    domains.upper(var)
                };
                i128::from(coef) * i128::from(bound)
            })
            .sum()
    }
}

/// Normalises all problem constraints to `≤` form (a `=` constraint becomes
/// two inequalities, a `≥` constraint is negated).
pub(crate) fn normalize(problem: &Problem) -> Vec<LeConstraint> {
    let mut out = Vec::new();
    for c in problem.constraints() {
        let terms: Vec<(usize, i64)> = c
            .expr()
            .terms()
            .map(|(var, coef)| (var.index(), coef))
            .collect();
        let rhs = c.rhs() - c.expr().constant_term();
        match c.op() {
            CmpOp::Le => out.push(LeConstraint {
                terms: terms.clone(),
                rhs,
            }),
            CmpOp::Ge => out.push(negated(&terms, rhs)),
            CmpOp::Eq => {
                out.push(LeConstraint {
                    terms: terms.clone(),
                    rhs,
                });
                out.push(negated(&terms, rhs));
            }
        }
    }
    out
}

fn negated(terms: &[(usize, i64)], rhs: i64) -> LeConstraint {
    LeConstraint {
        terms: terms.iter().map(|&(v, c)| (v, -c)).collect(),
        rhs: -rhs,
    }
}

/// Watch lists of normalised constraints: entry `var` holds the indices
/// of the constraints whose terms mention `var`, in constraint order.
pub(crate) fn watch_lists(constraints: &[LeConstraint], num_vars: usize) -> Vec<Vec<usize>> {
    let mut watches = vec![Vec::new(); num_vars];
    for (index, c) in constraints.iter().enumerate() {
        for &(var, _) in &c.terms {
            watches[var].push(index);
        }
    }
    watches
}

/// FIFO of constraints awaiting a (re)visit. The membership flags keep a
/// constraint in the queue at most once; both buffers are sized once per
/// solve and reused by every node.
#[derive(Debug)]
pub(crate) struct Worklist {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    /// An empty worklist over `constraints` normalised constraints.
    pub(crate) fn new(constraints: usize) -> Self {
        Worklist {
            queue: VecDeque::with_capacity(constraints),
            queued: vec![false; constraints],
        }
    }

    /// Queues every constraint of `constraints` that is not queued yet.
    pub(crate) fn extend(&mut self, constraints: impl IntoIterator<Item = usize>) {
        for c in constraints {
            if !self.queued[c] {
                self.queued[c] = true;
                self.queue.push_back(c);
            }
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let c = self.queue.pop_front()?;
        self.queued[c] = false;
        Some(c)
    }

    fn clear(&mut self) {
        for c in self.queue.drain(..) {
            self.queued[c] = false;
        }
    }
}

/// Result of a propagation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Propagation {
    /// Domains are (bounds-)consistent with every constraint.
    Consistent,
    /// Some constraint cannot be satisfied under the current domains.
    Infeasible,
}

/// Runs bounds-consistency propagation to a fixpoint, starting from the
/// constraints already in `worklist`. The caller must have queued every
/// constraint of which `domains` are not already a fixpoint.
///
/// The worklist is empty again when this returns, on either outcome.
pub(crate) fn propagate(
    constraints: &[LeConstraint],
    watches: &[Vec<usize>],
    worklist: &mut Worklist,
    domains: &mut Domains,
) -> Propagation {
    while let Some(c) = worklist.pop() {
        let moved = |var: usize| worklist.extend(watches[var].iter().copied());
        if narrow(&constraints[c], domains, moved) == Propagation::Infeasible {
            worklist.clear();
            return Propagation::Infeasible;
        }
    }
    Propagation::Consistent
}

/// Applies one constraint's bound rule once, calling `moved` with every
/// variable whose bound it tightened.
fn narrow(c: &LeConstraint, domains: &mut Domains, mut moved: impl FnMut(usize)) -> Propagation {
    let min_activity = c.min_activity(domains);
    if min_activity > i128::from(c.rhs) {
        return Propagation::Infeasible;
    }
    for &(var, coef) in &c.terms {
        if coef == 0 {
            continue;
        }
        let own_min = if coef > 0 {
            i128::from(coef) * i128::from(domains.lower(var))
        } else {
            i128::from(coef) * i128::from(domains.upper(var))
        };
        let slack = i128::from(c.rhs) - (min_activity - own_min);
        if coef > 0 {
            // coef · x ≤ slack  ⇒  x ≤ ⌊slack / coef⌋
            let new_upper = div_floor(slack, i128::from(coef));
            if new_upper < i128::from(domains.lower(var)) {
                return Propagation::Infeasible;
            }
            if new_upper < i128::from(domains.upper(var)) {
                domains.set_upper(var, new_upper as i64);
                moved(var);
            }
        } else {
            // coef · x ≤ slack with coef < 0  ⇒  x ≥ ⌈slack / coef⌉
            let new_lower = div_ceil(slack, i128::from(coef));
            if new_lower > i128::from(domains.upper(var)) {
                return Propagation::Infeasible;
            }
            if new_lower > i128::from(domains.lower(var)) {
                domains.set_lower(var, new_lower as i64);
                moved(var);
            }
        }
    }
    Propagation::Consistent
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinExpr, VarId};
    use proptest::prelude::*;

    /// The propagation loop the worklist replaced: sweep every constraint
    /// until a whole sweep changes nothing. Kept as the oracle the worklist
    /// must agree with.
    fn sweep(constraints: &[LeConstraint], domains: &mut Domains) -> Propagation {
        loop {
            let mut changed = false;
            for c in constraints {
                if narrow(c, domains, |_| changed = true) == Propagation::Infeasible {
                    return Propagation::Infeasible;
                }
            }
            if !changed {
                return Propagation::Consistent;
            }
        }
    }

    /// Worklist propagation seeded with every constraint, as at the root of
    /// a search.
    fn propagate_root(constraints: &[LeConstraint], domains: &mut Domains) -> Propagation {
        let watches = watch_lists(constraints, domains.len());
        let mut worklist = Worklist::new(constraints.len());
        worklist.extend(0..constraints.len());
        propagate(constraints, &watches, &mut worklist, domains)
    }

    #[test]
    fn div_helpers() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_floor(-7, -2), 3);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, -2), -3);
        assert_eq!(div_ceil(-7, -2), 4);
        assert_eq!(div_floor(6, 3), 2);
        assert_eq!(div_ceil(6, 3), 2);
    }

    #[test]
    fn propagation_tightens_upper_bounds() {
        let mut p = Problem::new();
        let x = p.int_var("x", 0, 10).unwrap();
        let y = p.int_var("y", 2, 10).unwrap();
        // x + y <= 6 with y >= 2 forces x <= 4.
        p.less_equal(LinExpr::new().term(x, 1).term(y, 1), 6);
        let constraints = normalize(&p);
        let mut domains = Domains::from_problem(&p);
        assert_eq!(
            propagate_root(&constraints, &mut domains),
            Propagation::Consistent
        );
        assert_eq!(domains.upper(x.index()), 4);
        assert_eq!(domains.upper(y.index()), 6);
    }

    #[test]
    fn propagation_tightens_lower_bounds_via_ge() {
        let mut p = Problem::new();
        let x = p.int_var("x", 0, 10).unwrap();
        let y = p.int_var("y", 0, 3).unwrap();
        // x + y >= 8 with y <= 3 forces x >= 5.
        p.greater_equal(LinExpr::new().term(x, 1).term(y, 1), 8);
        let constraints = normalize(&p);
        let mut domains = Domains::from_problem(&p);
        assert_eq!(
            propagate_root(&constraints, &mut domains),
            Propagation::Consistent
        );
        assert_eq!(domains.lower(x.index()), 5);
    }

    #[test]
    fn equality_fixes_variables() {
        let mut p = Problem::new();
        let x = p.binary("x");
        let y = p.binary("y");
        // x + y = 2 fixes both to 1.
        p.equal(LinExpr::new().term(x, 1).term(y, 1), 2);
        let constraints = normalize(&p);
        let mut domains = Domains::from_problem(&p);
        assert_eq!(
            propagate_root(&constraints, &mut domains),
            Propagation::Consistent
        );
        assert!(domains.all_fixed());
        assert_eq!(domains.assignment(), vec![1, 1]);
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = Problem::new();
        let x = p.binary("x");
        p.greater_equal(LinExpr::new().term(x, 1), 2);
        let constraints = normalize(&p);
        let mut domains = Domains::from_problem(&p);
        assert_eq!(
            propagate_root(&constraints, &mut domains),
            Propagation::Infeasible
        );
    }

    #[test]
    fn negative_coefficients_and_constants() {
        let mut p = Problem::new();
        let x = p.int_var("x", -5, 5).unwrap();
        // -2x + 1 <= -5  ⇒  x >= 3.
        p.less_equal(LinExpr::new().term(x, -2).constant(1), -5);
        let constraints = normalize(&p);
        let mut domains = Domains::from_problem(&p);
        assert_eq!(
            propagate_root(&constraints, &mut domains),
            Propagation::Consistent
        );
        assert_eq!(domains.lower(x.index()), 3);
        assert_eq!(domains.upper(x.index()), 5);
    }

    #[test]
    fn domain_accessors() {
        let mut p = Problem::new();
        let x = p.int_var("x", 1, 4).unwrap();
        let domains = Domains::from_problem(&p);
        assert_eq!(domains.len(), 1);
        assert_eq!(domains.width(x.index()), 3);
        assert!(!domains.is_fixed(x.index()));
        assert!(!domains.all_fixed());
    }

    /// A random problem plus one bound tightening to apply after the root
    /// fixpoint.
    #[derive(Debug, Clone)]
    struct RandomProblem {
        /// Per-variable inclusive bounds.
        bounds: Vec<(i64, i64)>,
        /// Constraints as (coefficients, op, rhs).
        constraints: Vec<(Vec<i64>, u8, i64)>,
        /// (variable, value pick within its domain, tighten the upper
        /// bound rather than the lower one).
        tightening: (usize, i64, bool),
    }

    impl RandomProblem {
        fn build(&self) -> Problem {
            let mut p = Problem::new();
            let vars: Vec<VarId> = self
                .bounds
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| p.int_var(format!("x{i}"), lo, hi).expect("valid bounds"))
                .collect();
            for (coeffs, op, rhs) in &self.constraints {
                let mut expr = LinExpr::new();
                for (v, &c) in vars.iter().zip(coeffs) {
                    expr.add_term(*v, c);
                }
                let op = match op % 3 {
                    0 => CmpOp::Le,
                    1 => CmpOp::Ge,
                    _ => CmpOp::Eq,
                };
                p.add_constraint(Constraint::new(expr, op, *rhs));
            }
            p
        }
    }

    fn random_problem() -> impl Strategy<Value = RandomProblem> {
        let bounds = prop::collection::vec(
            (-6i64..=3).prop_flat_map(|lo| (Just(lo), lo..=lo + 8)),
            1..=7,
        );
        bounds.prop_flat_map(|bounds| {
            let n = bounds.len();
            let constraints = prop::collection::vec(
                (prop::collection::vec(-5i64..=5, n), 0u8..3, -12i64..=12),
                0..=7,
            );
            let tightening = (0..n, 0i64..=8, proptest::bool::ANY);
            (Just(bounds), constraints, tightening).prop_map(|(bounds, constraints, tightening)| {
                RandomProblem {
                    bounds,
                    constraints,
                    tightening,
                }
            })
        })
    }

    /// Runs the worklist (seeded with `seeds`) and the sweep from the same
    /// domains and asserts the same outcome and, when consistent, the same
    /// domains.
    fn assert_worklist_matches_sweep(
        constraints: &[LeConstraint],
        watches: &[Vec<usize>],
        seeds: impl IntoIterator<Item = usize>,
        domains: &Domains,
    ) -> (Propagation, Domains) {
        let mut worklist = Worklist::new(constraints.len());
        worklist.extend(seeds);
        let mut by_worklist = domains.clone();
        let outcome = propagate(constraints, watches, &mut worklist, &mut by_worklist);
        assert!(worklist.queue.is_empty() && worklist.queued.iter().all(|&q| !q));
        let mut by_sweep = domains.clone();
        assert_eq!(outcome, sweep(constraints, &mut by_sweep));
        if outcome == Propagation::Consistent {
            assert_eq!(by_worklist, by_sweep);
        }
        (outcome, by_sweep)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// From the root domains with every constraint seeded, and again
        /// after one bound tightening seeded with only that variable's
        /// watch list, the worklist reaches the sweep's fixpoint.
        #[test]
        fn worklist_reaches_the_sweep_fixpoint(rp in random_problem()) {
            let problem = rp.build();
            let constraints = normalize(&problem);
            let watches = watch_lists(&constraints, problem.num_variables());
            let root = Domains::from_problem(&problem);
            let (outcome, mut domains) =
                assert_worklist_matches_sweep(&constraints, &watches, 0..constraints.len(), &root);
            if outcome == Propagation::Infeasible {
                return Ok(());
            }
            let (var, pick, upper) = rp.tightening;
            let (lo, hi) = (domains.lower(var), domains.upper(var));
            let value = lo + pick % (hi - lo + 1);
            if upper {
                domains.set_upper(var, value);
            } else {
                domains.set_lower(var, value);
            }
            assert_worklist_matches_sweep(
                &constraints,
                &watches,
                watches[var].iter().copied(),
                &domains,
            );
        }
    }
}
