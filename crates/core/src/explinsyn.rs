//! **ExpLinSyn** (§5.2): the sound and *complete* synthesis of exponential
//! upper bounds `θ(ℓ, v) = exp(a_ℓ·v + b_ℓ)` on the assertion-violation
//! probability of affine PTSs.
//!
//! Pipeline, matching the paper's five steps:
//!
//! 1. templates per live location ([`crate::template::TemplateSpace`]);
//! 2. pre fixed-point constraints per transition;
//! 3. canonicalization to `Σ_j p_j·exp(α_j·v+β_j)·E[exp(γ_j·r)] ≤ 1` over
//!    `Ψ` ([`crate::canonical`]);
//! 4. quantifier elimination via the Minkowski decomposition `Ψ = Q + C`
//!    (Theorem 5.3 / Proposition 1): the recession-cone condition (D1)
//!    becomes linear rows `α_j·ray ≤ 0` (and equalities on lineality
//!    directions), the generator condition (D2) becomes one convex
//!    exp-sum constraint per vertex of `Q`;
//! 5. convex optimization of `exp(a_init·v_init + b_init)` (Theorem 5.4)
//!    with the `qava-convex` interior-point solver.
//!
//! The paper encodes (D1) through Farkas multipliers; since our double
//! description method already yields the *generators* of `C`, we impose
//! (D1) directly on rays and lines — an equivalent but smaller encoding
//! (documented deviation, see DESIGN.md).

use crate::canonical::{canonicalize_in, expand_term_at_vertex};
use crate::logprob::LogProb;
use crate::template::{SolvedTemplate, TemplateSpace, UCoef};
use qava_convex::{
    ConvexError, ConvexProblem, ExpSumConstraint, ExpTerm, SolveUntilError, SolverOptions,
    UniformMgf,
};
use qava_lp::LpSolver;
use qava_pts::Pts;

/// Errors from [`synthesize_upper_bound`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExpLinSynError {
    /// No exponential pre fixed-point with affine exponent exists (the
    /// convex program is infeasible) — completeness makes this a definitive
    /// "no such template" answer, not a solver limitation.
    NoTemplate,
    /// The initial location is absorbing; the answer is trivially 0 or 1.
    TrivialInitial,
    /// Numerical failure inside the convex solver.
    Solver(String),
    /// The session's cooperative cancellation flag was raised (a lost
    /// candidate race) or its deadline passed, before or during the convex
    /// solve.
    Cancelled,
}

impl std::fmt::Display for ExpLinSynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpLinSynError::NoTemplate =>

                write!(f, "no exponential pre fixed-point with affine exponent exists"),
            ExpLinSynError::TrivialInitial => {
                write!(f, "initial location is absorbing; the bound is trivial")
            }
            ExpLinSynError::Solver(m) => write!(f, "convex solver failed: {m}"),
            ExpLinSynError::Cancelled => {
                write!(f, "cancelled or past its deadline before the convex solve finished")
            }
        }
    }
}

impl std::error::Error for ExpLinSynError {}

/// A synthesized exponential upper bound.
#[derive(Debug, Clone)]
pub struct ExpLinSynResult {
    /// Certified upper bound on the violation probability from the initial
    /// state, `exp(a_init·v_init + b_init)`, clamped to `[0, 1]`.
    pub bound: LogProb,
    /// The synthesized template (for the paper's symbolic Table 4).
    pub template: SolvedTemplate,
    /// Raw solution vector over the template unknowns.
    pub solution: Vec<f64>,
    /// `true` when the objective hit the solver floor — the bound is then
    /// "essentially zero" rather than the exact optimum.
    pub floored: bool,
    /// Newton iterations of the interior-point solver's phase II (see
    /// [`qava_convex::ConvexSolution::newton_iterations`]).
    pub newton_iterations: usize,
    /// Newton iterations of its phase I, the feasible-point search.
    pub phase_one_iterations: usize,
    /// Rejected line-search candidates across both phases.
    pub backtracks: usize,
}

/// Runs ExpLinSyn with default solver options.
///
/// Deprecated shim over [`synthesize_upper_bound_in`] with a private
/// throwaway session; new code goes through the engine API
/// (`explinsyn` in an [`crate::engine::EngineRegistry`]) or threads an
/// explicit session.
///
/// # Errors
///
/// See [`ExpLinSynError`].
#[deprecated(note = "use the `explinsyn` engine via `qava_core::engine`, \
                     or `synthesize_upper_bound_in` with an explicit \
                     `LpSolver` session")]
pub fn synthesize_upper_bound(pts: &Pts) -> Result<ExpLinSynResult, ExpLinSynError> {
    synthesize_upper_bound_with_in(pts, &SolverOptions::default(), &mut LpSolver::new())
}

/// Runs ExpLinSyn with default convex-solver options, threading the
/// canonicalization emptiness-probe LPs through the given session. (The
/// convex program itself is solved by the interior-point method in
/// `qava-convex`, not by an LP backend.)
///
/// # Errors
///
/// See [`ExpLinSynError`].
pub fn synthesize_upper_bound_in(
    pts: &Pts,
    solver: &mut LpSolver,
) -> Result<ExpLinSynResult, ExpLinSynError> {
    synthesize_upper_bound_with_in(pts, &SolverOptions::default(), solver)
}

/// Runs ExpLinSyn with explicit solver options.
///
/// Deprecated shim; see [`synthesize_upper_bound`].
///
/// # Errors
///
/// See [`ExpLinSynError`].
#[deprecated(note = "use the engine API (`qava_core::engine`, with convex \
                     options on the `AnalysisRequest`) or \
                     `synthesize_upper_bound_with_in`")]
pub fn synthesize_upper_bound_with(
    pts: &Pts,
    opts: &SolverOptions,
) -> Result<ExpLinSynResult, ExpLinSynError> {
    synthesize_upper_bound_with_in(pts, opts, &mut LpSolver::new())
}

/// [`synthesize_upper_bound_with`] inside an explicit LP session.
///
/// # Errors
///
/// See [`ExpLinSynError`].
pub fn synthesize_upper_bound_with_in(
    pts: &Pts,
    opts: &SolverOptions,
    solver: &mut LpSolver,
) -> Result<ExpLinSynResult, ExpLinSynError> {
    let init = pts.initial_state();
    if pts.is_absorbing(init.loc) {
        return Err(ExpLinSynError::TrivialInitial);
    }
    let space = TemplateSpace::new(pts, false);
    let problem = build_convex_program_in(pts, &space, solver)?;

    // The interior-point solve is this algorithm's one long phase and it
    // runs outside the LP session, so it polls the session's cancel flag
    // (a lost candidate race) and deadline itself, once per Newton step.
    let stop = || solver.is_cancelled() || solver.deadline_expired();
    let sol = match problem.solve_until(opts, &stop) {
        Ok(s) => s,
        Err(SolveUntilError::Cancelled) => return Err(ExpLinSynError::Cancelled),
        Err(SolveUntilError::Solver(ConvexError::Infeasible)) => {
            return Err(ExpLinSynError::NoTemplate)
        }
        Err(SolveUntilError::Solver(ConvexError::NumericalFailure(m))) => {
            return Err(ExpLinSynError::Solver(m))
        }
    };

    let bound = LogProb::from_ln(sol.objective).clamp_to_unit();
    Ok(ExpLinSynResult {
        bound,
        template: SolvedTemplate::from_solution(pts, &space, &sol.x),
        solution: sol.x,
        floored: sol.floored,
        newton_iterations: sol.newton_iterations,
        phase_one_iterations: sol.phase_one_iterations,
        backtracks: sol.backtracks,
    })
}

/// Steps 2–4: the convex program Θ of the paper. Public for diagnostics
/// (the `tables` harness and tests inspect the generated constraints).
pub fn build_convex_program(
    pts: &Pts,
    space: &TemplateSpace,
) -> Result<ConvexProblem, ExpLinSynError> {
    build_convex_program_in(pts, space, &mut LpSolver::new())
}

/// [`build_convex_program`] with the canonicalization emptiness probes
/// threaded through an explicit LP session.
pub fn build_convex_program_in(
    pts: &Pts,
    space: &TemplateSpace,
    solver: &mut LpSolver,
) -> Result<ConvexProblem, ExpLinSynError> {
    let n = space.len();
    let mut problem = ConvexProblem::new(n);

    // Step 5's objective: minimize a_init·v_init + b_init (the log of the
    // reported bound — exp is monotone).
    let init = pts.initial_state();
    let obj = space.eta_at(init.loc, &init.vals);
    problem.set_objective(obj.lin);

    for con in canonicalize_in(pts, space, solver) {
        if con.terms.is_empty() {
            continue; // all mass to ℓ_t: the constraint is `0 ≤ 1`.
        }
        let Some((vertices, cone)) = con.guard.minkowski_decompose() else {
            continue; // empty Ψ (canonicalize already filters, but be safe)
        };

        // (D1): α_j · r ≤ 0 for every recession ray, α_j · l = 0 for every
        // lineality direction, for every fork j.
        for term in &con.terms {
            for ray in &cone.rays {
                let mut row = UCoef::zero(n);
                for (a, &rk) in term.alpha.iter().zip(ray) {
                    row.add_scaled(a, rk);
                }
                if !row.is_zero() {
                    problem.add_constraint(
                        ExpSumConstraint::linear(row.lin, -row.constant)
                            .labeled(format!("D1 ray (transition {})", con.transition_index)),
                    );
                }
            }
            for line in &cone.lines {
                let mut row = UCoef::zero(n);
                for (a, &lk) in term.alpha.iter().zip(line) {
                    row.add_scaled(a, lk);
                }
                if !row.is_zero() {
                    problem.add_equality(row.lin, -row.constant);
                }
            }
        }

        // (D2): the canonical inequality instantiated at every generator
        // vertex of Q, expanded over discrete sampling supports.
        for vertex in &vertices {
            let mut terms = Vec::new();
            for term in &con.terms {
                let (summands, uniforms) = expand_term_at_vertex(term, vertex, n);
                for (weight, expo) in summands {
                    let mut t = ExpTerm::exp_affine(weight, expo.lin, expo.constant);
                    for (lo, hi, gamma) in &uniforms {
                        t = t.with_uniform_factor(
                            UniformMgf::new(*lo, *hi),
                            gamma.lin.clone(),
                            gamma.constant,
                        );
                    }
                    terms.push(t);
                }
            }
            problem.add_constraint(ExpSumConstraint::new(terms).labeled(format!(
                "D2 vertex {:?} (transition {})",
                vertex, con.transition_index
            )));
        }
    }
    Ok(problem)
}

#[cfg(test)]
// The deprecated session-less shims keep their behavioral coverage here
// until they are removed.
#[allow(deprecated)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn race_src() -> &'static str {
        r"
            param start = 40;
            x := start; y := 0;
            while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
                if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
            }
            assert x >= 100;
        "
    }

    #[test]
    fn race_bound_matches_paper() {
        // §3.1: the optimal bound is ≈ exp(−15.697) ≈ 1.52e-7.
        let pts = qava_lang::compile(race_src(), &BTreeMap::new()).unwrap();
        let r = synthesize_upper_bound(&pts).unwrap();
        assert!(!r.floored);
        assert!(
            (r.bound.ln() + 15.697).abs() < 0.05,
            "expected ln ≈ −15.697, got {}",
            r.bound.ln()
        );
    }

    #[test]
    fn race_bound_monotone_in_head_start() {
        let mut bounds = Vec::new();
        for start in [35.0, 40.0, 45.0] {
            let mut params = BTreeMap::new();
            params.insert("start".to_string(), start);
            let pts = qava_lang::compile(race_src(), &params).unwrap();
            bounds.push(synthesize_upper_bound(&pts).unwrap().bound);
        }
        assert!(bounds[0] > bounds[1], "a smaller head start helps the hare");
        assert!(bounds[1] > bounds[2]);
    }

    #[test]
    fn certain_violation_gives_bound_one() {
        let pts = qava_lang::compile("x := 0; assert false;", &BTreeMap::new()).unwrap();
        let r = synthesize_upper_bound(&pts);
        // The initial location is ℓ_f itself after lowering.
        assert!(matches!(r, Err(ExpLinSynError::TrivialInitial)));
    }

    #[test]
    fn unreachable_violation_floors_to_zero() {
        // x stays 0 forever until exit; assertion never violated. The bound
        // objective is unbounded below -> floored, bound ~ 0.
        let src = r"
            x := 0;
            while x <= 9 invariant x <= 10 { x := x + 1; }
            assert x >= 0;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let r = synthesize_upper_bound(&pts).unwrap();
        assert!(r.floored);
        assert!(r.bound.ln() < -1e3);
    }

    #[test]
    fn coin_flip_gets_exact_probability() {
        // Violates with probability exactly 0.3.
        let src = r"
            x := 0;
            if prob(0.3) { assert false; } else { exit; }
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let r = synthesize_upper_bound(&pts).unwrap();
        assert!(
            (r.bound.to_f64() - 0.3).abs() < 1e-3,
            "expected 0.3, got {}",
            r.bound.to_f64()
        );
    }

    #[test]
    fn template_is_pre_fixed_point_numerically() {
        let pts = qava_lang::compile(race_src(), &BTreeMap::new()).unwrap();
        let r = synthesize_upper_bound(&pts).unwrap();
        let report = crate::verify::check_pre_fixed_point(&pts, &r.solution, 500, 7);
        assert!(report.is_ok(), "violations: {report:?}");
    }
}
