//! Golden trajectories of the ExpLinSyn convex solve on Table 1.
//!
//! For each of the 27 Table 1 rows the convex program is built with
//! `build_convex_program_in` and solved with the default options. The
//! expected values were captured before the barrier loop was rewritten to
//! reuse its buffers and skip the identity nullspace basis; that rewrite
//! changed no floating-point operation, so a change to any pinned value
//! means a change to the solver's trajectory.
//!
//! Every program except 2DWalk and 3DWalk keeps its phase-I width
//! (unknowns + 1) below `vecops::DISPATCH_MIN = 8`, so all its vector
//! kernels take the inlined scalar path under every `QAVA_KERNEL`. Those
//! rows pin the objective's bits and the phase-II Newton count exactly.
//! The 2DWalk (9 unknowns) and 3DWalk (12 unknowns) programs reach the
//! dispatched kernels, whose FMA contraction moves the trajectory, so they
//! pin the objective of the kernel that ran to the 1e-9 relative bound
//! gate. The kernels' answers differ by more than that: 3DWalk's centerings
//! stop at the Newton cap, and `(100, 100, 100)` ends 2.9e-4 apart under
//! `scalar` and `avx2`.

use qava_convex::SolverOptions;
use qava_core::explinsyn::build_convex_program_in;
use qava_core::suite::table1;
use qava_core::template::TemplateSpace;
use qava_lp::LpSolver;

/// `(name, label, objective bits, phase-II Newton iterations)`, in
/// `table1()` order, captured under `QAVA_KERNEL=scalar`.
const GOLDEN: [(&str, &str, u64, usize); 27] = [
    ("RdAdder", "Pr[X − E[X] ≥ 25]", 0xc004089151770357, 838), // -2.5041834225125217
    ("RdAdder", "Pr[X − E[X] ≥ 50]", 0xc02422b10416a947, 837), // -10.067756774679436
    ("RdAdder", "Pr[X − E[X] ≥ 75]", 0xc036d9ab583b8192, 843), // -22.85027076199328
    ("Robot", "Pr[X − E[X] ≥ 1.8]", 0xc027def740aa6c50, 844), // -11.935480137637711
    ("Robot", "Pr[X − E[X] ≥ 2]", 0xc02d78e9da9163b6, 1039), // -14.736159162757627
    ("Robot", "Pr[X − E[X] ≥ 2.2]", 0xc031ce8280ce0e54, 866), // -17.8066788199488
    ("Coupon", "Pr[T > 100]", 0xc0267ecb7e7191dd, 447), // -11.247646285403727
    ("Coupon", "Pr[T > 300]", 0xc049ba378565e1ce, 834), // -51.45481936907491
    ("Coupon", "Pr[T > 500]", 0xc057823b27365236, 641), // -94.03486042313384
    ("Prspeed", "Pr[T > 150]", 0xbff6d8aa475d0574, 644), // -1.4278967654830383
    ("Prspeed", "Pr[T > 200]", 0xc02b1440652ef4e9, 644), // -13.539553796751038
    ("Prspeed", "Pr[T > 250]", 0xc0402c482a982221, 648), // -32.34595234325776
    ("Rdwalk", "Pr[T > 400]", 0xc02f4b38fb7eb8e1, 644), // -15.646919116229073
    ("Rdwalk", "Pr[T > 500]", 0xc03b877711923a44, 643), // -27.529160593223665
    ("Rdwalk", "Pr[T > 600]", 0xc04421117c727e07, 651), // -40.25834613409466
    ("1DWalk", "x = 10", 0xc07dce183e224d2b, 448), // -476.88091863059043
    ("1DWalk", "x = 50", 0xc07c9a1e7f4ea3f9, 639), // -457.63244562834694
    ("1DWalk", "x = 100", 0xc07b192650c6107e, 640), // -433.5718543755428
    ("2DWalk", "(x, y) = (1000, 10)", 0xc09480318942b09f, 1075), // -1312.0483751697827
    ("2DWalk", "(x, y) = (500, 40)", 0xc083f2b5a8a6eba8, 1046), // -638.3387005844752
    ("2DWalk", "(x, y) = (400, 50)", 0xc07f663bc5af0f19, 1034), // -502.38959282286083
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 0xc0c2d1897f2e0c45, 1800), // -9635.074193721763
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 0xc0bdcb610f9d8cc5, 1640), // -7627.379144522541
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 0xc0b8611638a8c1a8, 1634), // -6241.086802050857
    ("Race", "(x, y) = (40, 0)", 0xc02f64f04fb30db6, 840), // -15.697145929915546
    ("Race", "(x, y) = (35, 0)", 0xc0257b515c4ce26a, 842), // -10.740855106721217
    ("Race", "(x, y) = (45, 0)", 0xc0372bcfa199fbda, 1030), // -23.171136951535892
];

/// Objective bits of the rows that reach the dispatched kernels, in
/// `GOLDEN` order, captured under `QAVA_KERNEL=avx2`.
const AVX2_OBJECTIVES: [(&str, u64); 6] = [
    ("(x, y) = (1000, 10)", 0xc09480318942af7c), // -1312.0483751697166
    ("(x, y) = (500, 40)", 0xc083f2b5a8a6eb7f), // -638.3387005844705
    ("(x, y) = (400, 50)", 0xc07f663bc5af0f02), // -502.3895928228595
    ("(x, y, z) = (100, 100, 100)", 0xc0c2d023a353511a), // -9632.278421797371
    ("(x, y, z) = (100, 150, 200)", 0xc0bdcb610f9d8824), // -7627.379144521463
    ("(x, y, z) = (300, 100, 150)", 0xc0b8611638a8b621), // -6241.086802048173
];

/// Rows whose programs reach the dispatched (possibly FMA) kernels.
fn kernel_dependent(name: &str) -> bool {
    matches!(name, "2DWalk" | "3DWalk")
}

/// The golden objective of a kernel-dependent row under the active
/// kernel; `None` for a backend without captured values (NEON).
fn kernel_objective(label: &str, scalar_bits: u64) -> Option<f64> {
    match qava_linalg::kernel::active_name() {
        "scalar" => Some(f64::from_bits(scalar_bits)),
        "avx2" => AVX2_OBJECTIVES
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, bits)| f64::from_bits(bits)),
        _ => None,
    }
}

#[test]
fn table1_convex_trajectories_match_golden() {
    let rows = table1();
    assert_eq!(rows.len(), GOLDEN.len(), "Table 1 row count changed");
    let mut mismatches = Vec::new();
    for (row, &(name, label, bits, newton)) in rows.iter().zip(&GOLDEN) {
        assert_eq!((row.name, row.label.as_str()), (name, label), "Table 1 row order changed");
        let pts = row.compile();
        let space = TemplateSpace::new(&pts, false);
        let problem = build_convex_program_in(&pts, &space, &mut LpSolver::new())
            .unwrap_or_else(|e| panic!("{name} {label}: build failed: {e}"));
        let sol = problem
            .solve(&SolverOptions::default())
            .unwrap_or_else(|e| panic!("{name} {label}: solve failed: {e}"));
        let want = f64::from_bits(bits);
        if kernel_dependent(name) {
            let Some(want) = kernel_objective(label, bits) else { continue };
            let rel = (sol.objective - want).abs() / want.abs();
            if rel > 1e-9 {
                mismatches.push(format!(
                    "{name} {label}: objective {:e} vs golden {want:e} (rel {rel:e})",
                    sol.objective
                ));
            }
        } else if sol.objective.to_bits() != bits || sol.newton_iterations != newton {
            mismatches.push(format!(
                "{name} {label}: objective {:e} ({:#018x}), {} Newton steps; \
                 golden {want:e} ({bits:#018x}), {newton}",
                sol.objective,
                sol.objective.to_bits(),
                sol.newton_iterations
            ));
        }
    }
    assert!(mismatches.is_empty(), "convex trajectories moved:\n{}", mismatches.join("\n"));
}
