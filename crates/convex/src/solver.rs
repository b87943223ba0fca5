//! Log-barrier path-following with equality-constrained Newton centering.

use crate::{
    ConvexError, ConvexProblem, ConvexSolution, ExpSumConstraint, ExpTerm, SolveUntilError,
    SolverOptions,
};
use qava_linalg::{vecops, Matrix};

/// Maximum outer (barrier-parameter) iterations.
const MAX_OUTER: usize = 120;
/// Newton decrement threshold (λ²/2) for declaring a centering step done.
const NEWTON_TOL: f64 = 1e-10;
/// Armijo sufficient-decrease coefficient for the backtracking line search.
const ARMIJO: f64 = 0.01;

pub(crate) fn solve(
    p: &ConvexProblem,
    opts: &SolverOptions,
    stop: &dyn Fn() -> bool,
) -> Result<ConvexSolution, SolveUntilError> {
    let (scaled, col_scale) = rescale_columns(&presolve(p)?);
    let mut sol = solve_scaled(&scaled, opts, stop)?;
    for (xj, s) in sol.x.iter_mut().zip(&col_scale) {
        *xj *= s;
    }
    Ok(sol)
}

/// Substitutes `x_j = s_j·x'_j` with `s_j = 1/max|coef_j|`, so every affine
/// row of the scaled problem has coefficients of order 1. Quantifier
/// elimination instantiates templates at invariant vertices with
/// coordinates in the hundreds or thousands; without this, the barrier
/// Hessian mixes curvatures across ~6 orders of magnitude and Newton
/// centering stalls far from the central path.
fn rescale_columns(p: &ConvexProblem) -> (ConvexProblem, Vec<f64>) {
    let n = p.num_vars();
    let mut maxcoef = vec![0.0f64; n];
    let mut track = |lin: &[f64]| {
        for (m, &c) in maxcoef.iter_mut().zip(lin) {
            *m = m.max(c.abs());
        }
    };
    for c in p.constraints_ref() {
        for t in &c.terms {
            track(&t.lin);
            for f in &t.uniform_factors {
                track(&f.lin);
            }
        }
    }
    for (row, _) in p.equalities_ref() {
        track(row);
    }
    let col_scale: Vec<f64> = maxcoef
        .iter()
        .map(|&m| if m > 4.0 || (m > 0.0 && m < 0.25) { 1.0 / m } else { 1.0 })
        .collect();
    if col_scale.iter().all(|&s| s == 1.0) {
        return (p.clone(), col_scale);
    }

    let mut out = ConvexProblem::new(n);
    let scale_row = |lin: &[f64]| -> Vec<f64> {
        lin.iter().zip(&col_scale).map(|(c, s)| c * s).collect()
    };
    out.set_objective(scale_row(p.objective_ref()));
    for (row, rhs) in p.equalities_ref() {
        out.add_equality(scale_row(row), *rhs);
    }
    for c in p.constraints_ref() {
        let terms = c
            .terms
            .iter()
            .map(|t| {
                let mut t2 = t.clone();
                t2.lin = scale_row(&t.lin);
                for f in &mut t2.uniform_factors {
                    f.lin = scale_row(&f.lin);
                }
                t2
            })
            .collect();
        out.add_constraint(ExpSumConstraint { terms, label: c.label.clone() });
    }
    (out, col_scale)
}

fn solve_scaled(
    p: &ConvexProblem,
    opts: &SolverOptions,
    stop: &dyn Fn() -> bool,
) -> Result<ConvexSolution, SolveUntilError> {
    let n = p.num_vars();

    // Point satisfying the equality constraints (least squares; exact when
    // the system is consistent — inconsistency shows up as infeasibility).
    let x_eq = if p.equalities_ref().is_empty() {
        vec![0.0; n]
    } else {
        let mut e = Matrix::zeros(0, 0);
        let mut f = Vec::new();
        for (row, rhs) in p.equalities_ref() {
            e.push_row(row);
            f.push(*rhs);
        }
        let mut x = e.least_squares(&f);
        // One step of iterative refinement counteracts the ridge bias.
        let r: Vec<f64> =
            f.iter().zip(e.mul_vec(&x)).map(|(fi, exi)| fi - exi).collect();
        vecops::axpy(1.0, &e.least_squares(&r), &mut x);
        let resid: f64 = e
            .mul_vec(&x)
            .iter()
            .zip(&f)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if resid > 1e-6 {
            return Err(ConvexError::Infeasible.into());
        }
        x
    };

    // ---- Phase I: find a strictly feasible point. ----
    let (x0, phase_one) = if p.constraints_ref().is_empty() {
        (x_eq.clone(), None)
    } else {
        let (x0, run) = phase_one(p, &x_eq, opts, stop)?;
        (x0, Some(run))
    };

    // ---- Phase II: follow the central path for the real objective. ----
    let run = barrier(p.objective_ref(), p.constraints_ref(), p.equalities_ref(), x0, opts, stop)?;
    let objective = vecops::dot(p.objective_ref(), &run.x);
    Ok(ConvexSolution {
        x: run.x,
        objective,
        floored: run.floored,
        newton_iterations: run.newton_iterations,
        phase_one_iterations: phase_one.as_ref().map_or(0, |r| r.newton_iterations),
        backtracks: run.backtracks + phase_one.map_or(0, |r| r.backtracks),
    })
}

/// Implicit-equality detection (standard presolve): two opposite linear
/// rows `c·x ≤ d` and `−c·x ≤ −d` have an empty strict interior, which
/// would make the barrier's phase I report a perfectly feasible problem as
/// infeasible. The pair is rewritten as the equality `c·x = d`, which the
/// barrier handles exactly through its nullspace reduction. Quantifier
/// elimination produces such pairs routinely — e.g. the (D1) rows of two
/// transitions that chain two locations in both directions pin the
/// templates to be equal.
///
/// # Errors
///
/// [`ConvexError::Infeasible`] when an opposite pair is contradictory
/// (`c·x ≤ d` and `c·x ≥ d'` with `d' > d`).
fn presolve(p: &ConvexProblem) -> Result<ConvexProblem, ConvexError> {
    // A linear row is a single exp-affine term without MGF factors:
    // w·exp(c·x + k) ≤ 1  ⇔  c·x ≤ −k − ln w.
    let as_linear = |c: &ExpSumConstraint| -> Option<(Vec<f64>, f64)> {
        if c.terms.len() != 1 || !c.terms[0].uniform_factors.is_empty() {
            return None;
        }
        let t = &c.terms[0];
        Some((t.lin.clone(), -t.constant - t.weight.ln()))
    };

    let mut out = ConvexProblem::new(p.num_vars());
    out.set_objective(p.objective_ref().to_vec());
    for (row, rhs) in p.equalities_ref() {
        out.add_equality(row.clone(), *rhs);
    }

    // Normalize every linear row to max-norm 1 with a sign-canonical
    // direction (first nonzero component positive). The row then reads
    // `dir·x ≤ rhs` (upper) or `dir·x ≥ rhs` (lower, when the original
    // direction was flipped).
    struct NormRow {
        index: usize,
        dir: Vec<f64>,
        rhs: f64,
        upper: bool,
    }
    let mut rows: Vec<NormRow> = Vec::new();
    let mut keep = vec![true; p.constraints_ref().len()];
    for (i, c) in p.constraints_ref().iter().enumerate() {
        let Some((lin, d)) = as_linear(c) else { continue };
        let s = lin.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if s == 0.0 {
            // 0·x ≤ d: vacuous or plainly infeasible.
            if d < -1e-12 {
                return Err(ConvexError::Infeasible);
            }
            keep[i] = false;
            continue;
        }
        let mut dir: Vec<f64> = lin.iter().map(|v| v / s).collect();
        let mut rhs = d / s;
        let mut upper = true;
        if let Some(first) = dir.iter().find(|v| v.abs() > 0.0) {
            if *first < 0.0 {
                for v in &mut dir {
                    *v = -*v;
                }
                rhs = -rhs;
                upper = false;
            }
        }
        rows.push(NormRow { index: i, dir, rhs, upper });
    }

    // Group rows by direction; each group is an interval constraint
    // `lo ≤ dir·x ≤ hi` represented by at most two surviving rows — or an
    // equality when the interval collapses.
    let mut grouped = vec![false; rows.len()];
    for i in 0..rows.len() {
        if grouped[i] {
            continue;
        }
        let mut members = vec![i];
        for j in i + 1..rows.len() {
            if grouped[j] {
                continue;
            }
            let parallel = rows[i]
                .dir
                .iter()
                .zip(&rows[j].dir)
                .all(|(a, b)| (a - b).abs() <= 1e-12);
            if parallel {
                members.push(j);
            }
        }
        let mut hi = f64::INFINITY;
        let mut lo = f64::NEG_INFINITY;
        let mut hi_row: Option<usize> = None;
        let mut lo_row: Option<usize> = None;
        for &m in &members {
            grouped[m] = true;
            if rows[m].upper {
                if rows[m].rhs < hi {
                    hi = rows[m].rhs;
                    hi_row = Some(rows[m].index);
                }
            } else if rows[m].rhs > lo {
                lo = rows[m].rhs;
                lo_row = Some(rows[m].index);
            }
        }
        if lo > hi + 1e-9 {
            return Err(ConvexError::Infeasible);
        }
        for &m in &members {
            keep[rows[m].index] = false;
        }
        if lo >= hi - 1e-12 {
            out.add_equality(rows[i].dir.clone(), hi);
        } else {
            if let Some(r) = hi_row {
                keep[r] = true;
            }
            if let Some(r) = lo_row {
                keep[r] = true;
            }
        }
    }

    for (i, c) in p.constraints_ref().iter().enumerate() {
        if keep[i] {
            out.add_constraint(c.clone());
        }
    }
    Ok(out)
}

/// Finds a strictly feasible point by minimizing the shift `s` in
/// `g_i(x)·e^{-s} ≤ 1`, starting from an `s` large enough to be interior.
/// Returns the point with the phase-I central path's run.
fn phase_one(
    p: &ConvexProblem,
    x_eq: &[f64],
    opts: &SolverOptions,
    stop: &dyn Fn() -> bool,
) -> Result<(Vec<f64>, BarrierRun), SolveUntilError> {
    let n = p.num_vars();
    let mut shifted: Vec<ExpSumConstraint> = Vec::with_capacity(p.num_constraints() + 1);
    let mut worst_log = f64::NEG_INFINITY;
    for c in p.constraints_ref() {
        let mut terms = Vec::with_capacity(c.terms.len());
        for t in &c.terms {
            let mut t2 = t.clone();
            t2.lin.push(-1.0);
            for f in &mut t2.uniform_factors {
                f.lin.push(0.0);
            }
            terms.push(t2);
        }
        // Track how infeasible the equality-feasible start is.
        let v = c.eval(x_eq);
        let lg = if v.is_finite() && v > 0.0 {
            v.ln()
        } else if v == 0.0 {
            f64::NEG_INFINITY
        } else {
            // Overflowed: recompute a safe upper estimate from term logs.
            c.terms.iter().map(|t| t.log_value(x_eq)).fold(f64::NEG_INFINITY, f64::max)
                + (c.terms.len() as f64).ln()
        };
        worst_log = worst_log.max(lg);
        shifted.push(ExpSumConstraint { terms, label: c.label.clone() });
    }
    // Keep phase I bounded: s ≥ −1 (written as −s ≤ 1).
    let mut cap_row = vec![0.0; n + 1];
    cap_row[n] = -1.0;
    shifted.push(ExpSumConstraint::linear(cap_row, 1.0));

    let mut z0 = x_eq.to_vec();
    z0.push(worst_log.max(0.0) + 1.0);

    let mut obj = vec![0.0; n + 1];
    obj[n] = 1.0;

    let eq: Vec<(Vec<f64>, f64)> = p
        .equalities_ref()
        .iter()
        .map(|(row, rhs)| {
            let mut r = row.clone();
            r.push(0.0);
            (r, *rhs)
        })
        .collect();

    let mut p1_opts = opts.clone();
    p1_opts.obj_floor = -0.9; // any strictly negative s suffices
    p1_opts.tol = 1e-6;
    let run = barrier(&obj, &shifted, &eq, z0, &p1_opts, stop)?;
    let s = run.x[n];
    if s < -1e-6 {
        Ok((run.x[..n].to_vec(), run))
    } else {
        Err(ConvexError::Infeasible.into())
    }
}

struct BarrierRun {
    x: Vec<f64>,
    floored: bool,
    newton_iterations: usize,
    backtracks: usize,
}

/// One term of a constraint as the barrier loop reads it: `ln w` is taken
/// once per central path instead of at every evaluation.
struct Term<'a> {
    ln_w: f64,
    term: &'a ExpTerm,
}

/// The constraints of one central path, term by term.
fn barrier_view(constraints: &[ExpSumConstraint]) -> Vec<Vec<Term<'_>>> {
    constraints
        .iter()
        .map(|c| c.terms.iter().map(|term| Term { ln_w: term.weight.ln(), term }).collect())
        .collect()
}

/// `Σ_m term_m(x)`, `+∞` if any exponent overflows — the operations of
/// [`ExpSumConstraint::eval`].
fn eval(terms: &[Term<'_>], x: &[f64]) -> f64 {
    terms
        .iter()
        .map(|t| {
            let rho = t.term.log_value_with(t.ln_w, x);
            if rho > 700.0 {
                f64::INFINITY
            } else {
                rho.exp()
            }
        })
        .sum()
}

/// The barrier value `t·c·x − Σ ln(1 − g_i(x))`, or `None` when `x` is not
/// strictly feasible. One pass: each constraint is evaluated once, and the
/// first one at or past the boundary ends it.
fn barrier_value(t: f64, objective: &[f64], constraints: &[Vec<Term<'_>>], x: &[f64]) -> Option<f64> {
    let mut v = t * vecops::dot(objective, x);
    for c in constraints {
        let g = eval(c, x);
        if g < 1.0 - 1e-12 {
            v -= (1.0 - g).ln();
        } else {
            return None; // at or past the boundary, or NaN
        }
    }
    Some(v)
}

/// Buffers of one central path, sized once and overwritten at every
/// Newton step.
struct Workspace {
    /// Barrier gradient.
    grad: Vec<f64>,
    /// Barrier Hessian.
    hess: Matrix,
    /// Gradient of the current constraint's `g`.
    dg: Vec<f64>,
    /// Arguments `t_k(x)` of the current term's MGF factors.
    args: Vec<f64>,
    /// Rank-one pieces of the current constraint's `∇²g`: weights, and
    /// their directions laid end to end, `n` entries each.
    piece_weights: Vec<f64>,
    piece_dirs: Vec<f64>,
    /// Augmented reduced Newton system `[ZᵀHZ + ridge | −Zᵀ∇]`.
    aug: Matrix,
    /// Newton direction.
    dx: Vec<f64>,
    /// Line-search candidate.
    cand: Vec<f64>,
}

impl Workspace {
    fn new(n: usize, k: usize) -> Self {
        Workspace {
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            dg: vec![0.0; n],
            args: Vec::new(),
            piece_weights: Vec::new(),
            piece_dirs: Vec::new(),
            aug: Matrix::zeros(k, k + 1),
            dx: vec![0.0; n],
            cand: vec![0.0; n],
        }
    }
}

/// A basis `Z` of `null(E)` for equality rows `E`, with the buffers of
/// the products through it.
struct Nullspace {
    z: Matrix,
    zt: Matrix,
    /// `Zᵀ·∇`.
    grad_u: Vec<f64>,
    /// `H·Z`.
    hz: Matrix,
    /// `Zᵀ·H·Z`.
    hu: Matrix,
    /// Reduced step `du`, with `dx = Z·du`.
    du: Vec<f64>,
}

impl Nullspace {
    fn new(equalities: &[(Vec<f64>, f64)], n: usize) -> Self {
        let mut e = Matrix::zeros(0, 0);
        for (row, _) in equalities {
            e.push_row(row);
        }
        let basis = e.nullspace();
        let k = basis.len();
        let mut z = Matrix::zeros(n, k);
        for (j, v) in basis.iter().enumerate() {
            for i in 0..n {
                z[(i, j)] = v[i];
            }
        }
        Nullspace {
            zt: z.transpose(),
            z,
            grad_u: vec![0.0; k],
            hz: Matrix::zeros(n, k),
            hu: Matrix::zeros(k, k),
            du: vec![0.0; k],
        }
    }
}

/// One full central path: minimize `t·c·x − Σ ln(1 − g_i(x))` for growing
/// `t`, polling `stop` once per Newton step.
fn barrier(
    objective: &[f64],
    constraints: &[ExpSumConstraint],
    equalities: &[(Vec<f64>, f64)],
    mut x: Vec<f64>,
    opts: &SolverOptions,
    stop: &dyn Fn() -> bool,
) -> Result<BarrierRun, SolveUntilError> {
    let n = x.len();
    let m = constraints.len().max(1);
    let cons = barrier_view(constraints);
    let mut t = 1.0;
    let mut newton_total = 0usize;
    let mut backtracks = 0usize;
    let mut floored = false;

    debug_assert!(
        barrier_value(t, objective, &cons, &x).is_some(),
        "barrier started outside the interior"
    );

    // Reduced-space handling of equalities: steps live in null(E), i.e.
    // dx = Z·du, which keeps E·x = f satisfied exactly — no KKT drift.
    // Without equality rows Z is the identity and is never formed.
    let mut null = (!equalities.is_empty()).then(|| Nullspace::new(equalities, n));
    let k = null.as_ref().map_or(n, |ns| ns.z.cols());
    if k == 0 {
        // Equalities pin x completely; the start point is the only candidate.
        return Ok(BarrierRun { x, floored: false, newton_iterations: 0, backtracks: 0 });
    }
    let mut ws = Workspace::new(n, k);

    for _outer in 0..MAX_OUTER {
        // ---- Newton centering for the current t. ----
        for _ in 0..opts.max_newton {
            if stop() {
                return Err(SolveUntilError::Cancelled);
            }
            newton_total += 1;
            let val = barrier_derivatives(t, objective, &cons, &x, &mut ws);
            reduced_newton_step(null.as_mut(), &mut ws)?;
            let decrement = -vecops::dot(&ws.grad, &ws.dx);
            if decrement / 2.0 < NEWTON_TOL {
                break;
            }
            // Backtracking line search: stay strictly feasible, decrease B.
            let mut step = 1.0;
            let mut moved = false;
            while step > 1e-13 {
                ws.cand.copy_from_slice(&x);
                vecops::axpy(step, &ws.dx, &mut ws.cand);
                if let Some(cand_val) = barrier_value(t, objective, &cons, &ws.cand) {
                    if cand_val <= val - ARMIJO * step * decrement {
                        std::mem::swap(&mut x, &mut ws.cand);
                        moved = true;
                        break;
                    }
                }
                backtracks += 1;
                step *= 0.5;
            }
            if !moved {
                break; // stalled: accept current center
            }
            if vecops::dot(objective, &x) < opts.obj_floor {
                floored = true;
                break;
            }
        }

        if floored || vecops::dot(objective, &x) < opts.obj_floor {
            return Ok(BarrierRun { x, floored: true, newton_iterations: newton_total, backtracks });
        }
        if m as f64 / t < opts.tol {
            return Ok(BarrierRun { x, floored: false, newton_iterations: newton_total, backtracks });
        }
        t *= opts.mu;
    }
    Ok(BarrierRun { x, floored, newton_iterations: newton_total, backtracks })
}

/// Value of the barrier function at `x`, with its gradient and Hessian
/// written to `ws.grad` and `ws.hess`.
fn barrier_derivatives(
    t: f64,
    objective: &[f64],
    constraints: &[Vec<Term<'_>>],
    x: &[f64],
    ws: &mut Workspace,
) -> f64 {
    let n = x.len();
    ws.grad.copy_from_slice(objective);
    vecops::scale_in_place(t, &mut ws.grad);
    for i in 0..n {
        ws.hess.row_mut(i).fill(0.0);
    }
    let mut value = t * vecops::dot(objective, x);

    for c in constraints {
        let mut g = 0.0;
        ws.dg.fill(0.0);
        // The Hessian of g is accumulated into `hess` after scaling by the
        // slack, so gather its rank-one pieces first.
        ws.piece_weights.clear();
        ws.piece_dirs.clear();
        for &Term { ln_w, term } in c {
            let factors = &term.uniform_factors;
            ws.args.clear();
            ws.args.extend(factors.iter().map(|f| vecops::dot(&f.lin, x) + f.constant));
            let mut rho = ln_w + vecops::dot(&term.lin, x) + term.constant;
            for (f, &arg) in factors.iter().zip(&ws.args) {
                rho += f.mgf.log_value(arg);
            }
            if rho < -300.0 {
                continue; // numerically zero term
            }
            let tv = rho.exp();
            // Gradient of the term's log: lin + Σ_k (log φ_k)'·lin_k.
            let start = ws.piece_dirs.len();
            ws.piece_dirs.extend_from_slice(&term.lin);
            let lg = &mut ws.piece_dirs[start..];
            for (f, &arg) in factors.iter().zip(&ws.args) {
                vecops::axpy(f.mgf.dlog(arg), &f.lin, lg);
            }
            g += tv;
            vecops::axpy(tv, lg, &mut ws.dg);
            ws.piece_weights.push(tv);
            // Curvature of the term's log: Σ_k (log φ_k)''·lin_k·lin_kᵀ.
            for (f, &arg) in factors.iter().zip(&ws.args) {
                let curv = f.mgf.d2log(arg);
                if curv > 0.0 {
                    ws.piece_weights.push(tv * curv);
                    ws.piece_dirs.extend_from_slice(&f.lin);
                }
            }
        }
        let slack = 1.0 - g;
        debug_assert!(slack > 0.0, "derivative evaluation outside interior");
        value -= slack.ln();
        // ∇(−ln(1−g)) = ∇g / (1−g)
        vecops::axpy(1.0 / slack, &ws.dg, &mut ws.grad);
        // ∇² = ∇g∇gᵀ/(1−g)² + ∇²g/(1−g)
        rank_one_update(&mut ws.hess, 1.0 / (slack * slack), &ws.dg);
        for (w, dir) in ws.piece_weights.iter().zip(ws.piece_dirs.chunks_exact(n)) {
            rank_one_update(&mut ws.hess, w / slack, dir);
        }
    }
    value
}

/// `h += w · v·vᵀ`.
fn rank_one_update(h: &mut Matrix, w: f64, v: &[f64]) {
    if w == 0.0 {
        return;
    }
    for (i, &vi) in v.iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        let wi = w * vi;
        for (hij, &vj) in h.row_mut(i).iter_mut().zip(v) {
            *hij += wi * vj;
        }
    }
}

/// Newton step in the reduced space: solve `(ZᵀHZ + ridge)·du = −Zᵀ∇`
/// and write `dx = Z·du` to `ws.dx`, escalating regularization until the
/// step is a descent direction. With no equality rows (`Z = I`) the
/// products through `Z` are skipped: they would multiply by 0 and 1 only,
/// which is exact, so the step is the same to the bit.
fn reduced_newton_step(null: Option<&mut Nullspace>, ws: &mut Workspace) -> Result<(), ConvexError> {
    let (hu, grad_u, mut z_du) = match null {
        Some(Nullspace { z, zt, grad_u, hz, hu, du }) => {
            grad_u.fill(0.0);
            for (i, &gi) in ws.grad.iter().enumerate() {
                vecops::axpy(gi, z.row(i), grad_u);
            }
            ws.hess.mul_into(z, hz);
            zt.mul_into(hz, hu);
            (&*hu, grad_u.as_slice(), Some((&*z, du)))
        }
        None => (&ws.hess, ws.grad.as_slice(), None),
    };
    let k = hu.cols();
    let scale = (0..k).map(|i| hu[(i, i)].abs()).fold(1.0, f64::max);
    for attempt in 0..8 {
        let ridge = 1e-9 * 10f64.powi(attempt * 2);
        for i in 0..k {
            let row = ws.aug.row_mut(i);
            row[..k].copy_from_slice(hu.row(i));
            row[i] += ridge * scale;
            row[k] = -grad_u[i];
        }
        if ws.aug.row_echelon().len() < k {
            continue;
        }
        match &mut z_du {
            Some((z, du)) => {
                for (i, d) in du.iter_mut().enumerate() {
                    *d = ws.aug[(i, k)];
                }
                for (i, d) in ws.dx.iter_mut().enumerate() {
                    *d = vecops::dot(z.row(i), du);
                }
            }
            None => {
                for (i, d) in ws.dx.iter_mut().enumerate() {
                    *d = ws.aug[(i, k)];
                }
            }
        }
        // The step must be a descent direction; otherwise re-regularize.
        if vecops::dot(&ws.grad, &ws.dx) <= 0.0 {
            return Ok(());
        }
    }
    Err(ConvexError::NumericalFailure("reduced Newton system unsolvable".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpTerm, UniformMgf};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn single_exponential_bound() {
        // minimize -a s.t. 2 e^a <= 1 -> a* = -ln 2.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(2.0, vec![1.0], 0.0)]));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] + 2.0f64.ln()).abs() < 1e-5, "got {}", sol.x[0]);
        assert!(!sol.floored);
    }

    #[test]
    fn asymmetric_walk_optimal_tilt() {
        // minimize a s.t. 0.75 e^a + 0.25 e^{-a} <= 1 -> a* = ln(1/3).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(0.75, vec![1.0], 0.0),
            ExpTerm::exp_affine(0.25, vec![-1.0], 0.0),
        ]));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - (1.0f64 / 3.0).ln()).abs() < 1e-5, "got {}", sol.x[0]);
    }

    #[test]
    fn linear_rows_via_exp_encoding() {
        // minimize x s.t. x >= 3 (i.e. -x <= -3).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0], -3.0));
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-4, "got {}", sol.x[0]);
    }

    #[test]
    fn equality_constraint_respected() {
        // maximize y s.t. x - y = 1, e^{x-1} <= 1  =>  x <= 1, y = x-1, y* = 0.
        let mut p = ConvexProblem::new(2);
        p.set_objective(vec![0.0, -1.0]);
        p.add_equality(vec![1.0, -1.0], 1.0);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(
            1.0,
            vec![1.0, 0.0],
            -1.0,
        )]));
        let sol = p.solve(&opts()).unwrap();
        assert!(sol.x[1].abs() < 1e-4, "got y = {}", sol.x[1]);
        assert!((sol.x[0] - sol.x[1] - 1.0).abs() < 1e-7, "equality violated");
    }

    #[test]
    fn infeasible_reported() {
        // e^x + e^{-x} <= 1 is impossible (minimum value 2).
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(1.0, vec![1.0], 0.0),
            ExpTerm::exp_affine(1.0, vec![-1.0], 0.0),
        ]));
        assert_eq!(p.solve(&opts()).unwrap_err(), ConvexError::Infeasible);
    }

    #[test]
    fn unbounded_objective_floors() {
        // minimize x s.t. e^x <= 1 (x <= 0): unbounded below.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(1.0, vec![1.0], 0.0)]));
        let mut o = opts();
        o.obj_floor = -100.0;
        let sol = p.solve(&o).unwrap();
        assert!(sol.floored);
        assert!(sol.objective <= -100.0);
    }

    #[test]
    fn uniform_factor_constraint() {
        // minimize a s.t. e^{a}·φ_{U[0,1]}(a) <= 1.
        // log constraint: a + logφ(a) <= 0. At a = 0 it's 0 (boundary);
        // feasible for a < 0. The optimum is unbounded below -> floored,
        // so instead maximize a: optimum a* = 0.
        let mut p = ConvexProblem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(1.0, vec![1.0], 0.0)
            .with_uniform_factor(UniformMgf::new(0.0, 1.0), vec![1.0], 0.0)]));
        let sol = p.solve(&opts()).unwrap();
        // a + logφ(a) = 0 at a = 0 only.
        assert!(sol.x[0].abs() < 1e-4, "got {}", sol.x[0]);
    }

    /// The tortoise-hare loop constraint at the generator (99,99) with
    /// objective 40·a1 + c (Section 3.1 of the paper), but collapsed to
    /// the one-location form: minimize 40 a1 + 0 a2 + c subject to
    ///   0.5 e^{a1 + 2 a2} + 0.5 e^{a1} <= 1      (loop body)
    ///   e^{-(99 a1 + 100 a2 + c)} <= 1           (violation transition)
    ///   a1 <= 0, a2 >= 0 handled by recession-cone rows:
    ///   a1 <= 0 and -a2 <= 0 as linear rows.
    fn race_loop_problem() -> ConvexProblem {
        let mut p = ConvexProblem::new(3);
        p.set_objective(vec![40.0, 0.0, 1.0]);
        p.add_constraint(ExpSumConstraint::new(vec![
            ExpTerm::exp_affine(0.5, vec![1.0, 2.0, 0.0], 0.0),
            ExpTerm::exp_affine(0.5, vec![1.0, 0.0, 0.0], 0.0),
        ]));
        p.add_constraint(ExpSumConstraint::new(vec![ExpTerm::exp_affine(
            1.0,
            vec![-99.0, -100.0, -1.0],
            0.0,
        )]));
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, 0.0, 0.0], 0.0));
        p.add_constraint(ExpSumConstraint::linear(vec![0.0, -1.0, 0.0], 0.0));
        p
    }

    #[test]
    fn race_loop_constraint_shape() {
        let p = race_loop_problem();
        let sol = p.solve(&opts()).unwrap();
        assert!(p.is_feasible(&sol.x, 1e-6));
        // The optimum of this relaxation is ≈ exp(-15.7) (paper §3.1).
        assert!(
            sol.objective < -10.0 && sol.objective > -25.0,
            "objective {} outside plausible window",
            sol.objective
        );
    }

    #[test]
    fn stop_is_polled_once_per_newton_step() {
        let p = race_loop_problem();
        let plain = p.solve(&opts()).unwrap();
        let polls = std::cell::Cell::new(0usize);
        let sol = p
            .solve_until(&opts(), &|| {
                polls.set(polls.get() + 1);
                false
            })
            .unwrap();
        assert_eq!(sol.objective.to_bits(), plain.objective.to_bits());
        assert!(sol.phase_one_iterations > 0, "the origin is not strictly feasible");
        assert_eq!(polls.get(), sol.phase_one_iterations + sol.newton_iterations);
    }

    #[test]
    fn raised_stop_ends_the_solve_within_one_step() {
        let p = race_loop_problem();
        for after in [1, 5, 40] {
            let polls = std::cell::Cell::new(0usize);
            let r = p.solve_until(&opts(), &|| {
                polls.set(polls.get() + 1);
                polls.get() >= after
            });
            assert_eq!(r.unwrap_err(), SolveUntilError::Cancelled);
            assert_eq!(polls.get(), after, "no step may run after the stop condition held");
        }
    }

    #[test]
    fn opposite_linear_pair_becomes_equality() {
        // x <= 3 and -x <= -3 pin x = 3; phase I must not call this
        // infeasible (empty strict interior, handled by presolve).
        let mut p = ConvexProblem::new(2);
        p.set_objective(vec![0.0, 1.0]);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, 0.0], 3.0));
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0, 0.0], -3.0));
        p.add_constraint(ExpSumConstraint::linear(vec![1.0, -1.0], 0.0)); // y >= x
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6, "x pinned to 3, got {}", sol.x[0]);
        assert!((sol.x[1] - 3.0).abs() < 1e-4, "y -> 3, got {}", sol.x[1]);
    }

    #[test]
    fn contradictory_linear_pair_is_infeasible() {
        let mut p = ConvexProblem::new(1);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0], 1.0));
        p.add_constraint(ExpSumConstraint::linear(vec![-1.0], -2.0)); // x >= 2
        assert_eq!(p.solve(&opts()).unwrap_err(), ConvexError::Infeasible);
    }

    #[test]
    fn no_constraints_zero_objective() {
        let p = ConvexProblem::new(2);
        let sol = p.solve(&opts()).unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn feasibility_check_helper() {
        let mut p = ConvexProblem::new(1);
        p.add_constraint(ExpSumConstraint::linear(vec![1.0], 5.0));
        assert!(p.is_feasible(&[4.0], 1e-9));
        assert!(!p.is_feasible(&[6.0], 1e-9));
    }
}
