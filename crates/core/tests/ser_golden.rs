//! Golden trajectories of the Ser ε search on Table 1.
//!
//! For each of the 27 Table 1 rows the `hoeffding-linear` engine runs
//! with the default request, and for the three Race rows the `azuma`
//! engine too. The expected values were captured before the Ser probes
//! began reusing one probe LP whose ε rows are patched in place; that
//! change sends every solver exactly the LPs the per-probe rebuild did,
//! so a change to any pinned value means a change to the search's
//! trajectory: the ln-bound and ε bits, the LP solves the engine reports,
//! and the simplex pivots its session spent.
//!
//! All pinned values are the same under `QAVA_KERNEL=scalar` and `avx2`,
//! so they are pinned exactly under every kernel. (Not every RepRSM run
//! is kernel-independent: `azuma` on 3DWalk `(300, 100, 150)` takes 2704
//! pivots under `avx2` and 2695 under `scalar`, so it is not pinned.)

use qava_core::engine::{AnalysisRequest, EngineRegistry};
use qava_core::suite::table1;
use qava_lp::BackendChoice;

/// `(name, label, ln-bound bits, ε bits, LP solves, pivots)` of
/// `hoeffding-linear`, in `table1()` order.
const HOEFFDING: [(&str, &str, u64, u64, usize, usize); 27] = [
    ("RdAdder", "Pr[X − E[X] ≥ 25]", 0xc003f5c7cadbb881, 0x3f998c84d0a6e0a6, 102, 126), // -2.495009980039925e0
    ("RdAdder", "Pr[X − E[X] ≥ 50]", 0xc023f5c7cadbb86a, 0x3fa98c84e28694d4, 106, 126), // -9.980039920159658e0
    ("RdAdder", "Pr[X − E[X] ≥ 75]", 0xc0367480c4372f86, 0x3fb32963aaba6040, 108, 125), // -2.2455089820359284e1
    ("Robot", "Pr[X − E[X] ≥ 1.8]", 0xbff38f95b770cd6f, 0x3f91e25d00dd3310, 100, 124), // -1.2225548902177612e0
    ("Robot", "Pr[X − E[X] ≥ 2]", 0xbff84994b1d1e016, 0x3f93ed9ad3bff506, 100, 124), // -1.517964071854299e0
    ("Robot", "Pr[X − E[X] ≥ 2.2]", 0xbffd86632136867e, 0x3f95f8d8a99d5980, 102, 124), // -1.8453093812353525e0
    ("Coupon", "Pr[T > 100]", 0xc01495622efbc895, 0x3fb4545457dfc960, 108, 301), // -5.145882352941176e0
    ("Coupon", "Pr[T > 300]", 0xc034eab4cb2c25b5, 0x3fb7d1e2d868252f, 108, 299), // -2.0916821192052982e1
    ("Coupon", "Pr[T > 500]", 0xc0426f654c699507, 0x3fb8877209ecdab6, 108, 290), // -3.6870278884462145e1
    ("Prspeed", "Pr[T > 150]", 0xbff45b5256d495ad, 0x3fa08fb81c07a19e, 104, 273), // -1.272295321637425e0
    ("Prspeed", "Pr[T > 200]", 0xc02806e65f30b8c3, 0x3fb6129663e2d806, 108, 298), // -1.201347634763477e1
    ("Prspeed", "Pr[T > 250]", 0xc03c69b50d17edf1, 0x3fbe643b92570d88, 110, 298), // -2.8412918871252206e1
    ("Rdwalk", "Pr[T > 400]", 0xc029a0a3065e3fb1, 0x3fb028c197e0ae8e, 106, 130), // -1.2813743781094532e1
    ("Rdwalk", "Pr[T > 500]", 0xc036dc5dd529d114, 0x3fb35092e3947c15, 108, 120), // -2.286080677290836e1
    ("Rdwalk", "Pr[T > 600]", 0xc040dc84ad806cde, 0x3fb56c0369185cd4, 108, 126), // -3.3722799003322265e1
    ("1DWalk", "x = 10", 0xc07b838e38c81ce9, 0x3fc5555555400b64, 108, 87), // -4.402222221199905e2
    ("1DWalk", "x = 50", 0xc07a671c71acc6fa, 0x3fc5555555400b64, 108, 90), // -4.224444443463432e2
    ("1DWalk", "x = 100", 0xc079038e38ca9b92, 0x3fc5555555400b64, 108, 90), // -4.002222221292842e2
    ("2DWalk", "(x, y) = (1000, 10)", 0xc07ef5ffffd28258, 0x3fbfffffffd019a2, 106, 501), // -4.953749998305334e2
    ("2DWalk", "(x, y) = (500, 40)", 0xc06ccbffffdc3726, 0x3fbfffffffd019a2, 106, 570), // -2.3037499993334603e2
    ("2DWalk", "(x, y) = (400, 50)", 0xc065ebffffe860a3, 0x3fbfffffffd019a2, 106, 501), // -1.7537499995599964e2
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 0xc09083cff1bf55dd, 0x3fd74004073c9e00, 112, 1453), // -1.0569530706306607e3
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 0xc0893bf1da3b54aa, 0x3fd364d9e8daba2c, 112, 7593), // -8.074930920253003e2
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 0xc084a48e420af62a, 0x3fd364d9a9e034cc, 112, 5257), // -6.605694619041799e2
    ("Race", "(x, y) = (40, 0)", 0xc02c04444444443c, 0x3fc5dddde6607632, 112, 122), // -1.4008333333333319e1
    ("Race", "(x, y) = (35, 0)", 0xc023f03f03f03f04, 0x3fc1b91b8baa457c, 110, 124), // -9.96923076923077e0
    ("Race", "(x, y) = (45, 0)", 0xc0333c8253c82539, 0x3fcac37db79b341e, 112, 121), // -1.9236363636363624e1
];

/// The same columns for `azuma` on the Race rows, in `table1()` order.
const AZUMA_RACE: [(&str, &str, u64, u64, usize, usize); 3] = [
    ("Race", "(x, y) = (40, 0)", 0xc010a4c0a237c32e, 0x3fb9faee3d5812b0, 108, 119), // -4.1608910891089135e0
    ("Race", "(x, y) = (35, 0)", 0xc009a9d260511be1, 0x3fb6cfd770f516c3, 108, 121), // -3.2079207920792077e0
    ("Race", "(x, y) = (45, 0)", 0xc014f353a4c0a239, 0x3fbd26050f865a4e, 110, 119), // -5.237623762376239e0
];

/// Runs `engine` on every Table 1 row named in `golden` (in order) and
/// returns one line per value that moved.
fn mismatches(engine: &str, golden: &[(&str, &str, u64, u64, usize, usize)]) -> Vec<String> {
    let registry = EngineRegistry::with_builtins();
    let rows: Vec<_> = table1().into_iter().filter(|r| golden.iter().any(|g| g.0 == r.name)).collect();
    assert_eq!(rows.len(), golden.len(), "Table 1 rows changed");
    let mut out = Vec::new();
    for (row, &(name, label, ln_bits, eps_bits, solves, pivots)) in rows.iter().zip(golden) {
        assert_eq!((row.name, row.label.as_str()), (name, label), "Table 1 row order changed");
        let pts = row.compile();
        let report = registry
            .run_engine(engine, &AnalysisRequest::upper(&pts), BackendChoice::Auto)
            .expect("built-in engine");
        let certified = match &report.outcome {
            Ok(c) => c,
            Err(e) => {
                out.push(format!("{engine} {name} {label}: no bound: {e}"));
                continue;
            }
        };
        let detail = |key: &str| {
            certified.details.iter().find(|d| d.0 == key).map_or(f64::NAN, |d| d.1)
        };
        let ln = certified.bound.ln();
        let eps = detail("epsilon");
        let got = (ln.to_bits(), eps.to_bits(), detail("lp_solves") as usize, report.lp.pivots);
        if got != (ln_bits, eps_bits, solves, pivots) {
            out.push(format!(
                "{engine} {name} {label}: ln {ln:e} ({:#018x}), ε {eps:e} ({:#018x}), \
                 {} solves, {} pivots; golden {ln_bits:#018x}, {eps_bits:#018x}, \
                 {solves}, {pivots}",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    out
}

#[test]
fn table1_hoeffding_ser_trajectories_match_golden() {
    let moved = mismatches("hoeffding-linear", &HOEFFDING);
    assert!(moved.is_empty(), "Ser trajectories moved:\n{}", moved.join("\n"));
}

#[test]
fn race_azuma_ser_trajectories_match_golden() {
    let moved = mismatches("azuma", &AZUMA_RACE);
    assert!(moved.is_empty(), "Ser trajectories moved:\n{}", moved.join("\n"));
}
