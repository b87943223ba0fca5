#![warn(missing_docs)]

//! # qava — Quantitative Assertion-Violation Analysis
//!
//! A Rust implementation of *“Quantitative Analysis of Assertion Violations
//! in Probabilistic Programs”* (Wang, Sun, Fu, Chatterjee, Goharshady —
//! PLDI 2021): automated synthesis of **upper and lower bounds** on the
//! probability that a probabilistic program violates an assertion.
//!
//! The facade re-exports every workspace crate under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`lang`] | `qava-lang` | surface language: parser, lowering to PTSs |
//! | [`pts`] | `qava-pts` | probabilistic transition systems, simplification |
//! | [`analysis`] | `qava-core` | the paper's three synthesis algorithms |
//! | [`sim`] | `qava-sim` | Monte-Carlo estimation of violation probability |
//! | [`polyhedra`] | `qava-polyhedra` | double description, Minkowski decomposition |
//! | [`lp`] | `qava-lp` | LU revised simplex + dense tableau, Farkas compiler |
//! | [`convex`] | `qava-convex` | log-barrier solver for exp-sum programs |
//! | [`linalg`] | `qava-linalg` | dense matrices, least squares, nullspaces |
//!
//! ## Quick start
//!
//! Bound the probability that the hare beats the tortoise (§3.1, Fig. 1):
//!
//! ```
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = r"
//!     x := 40; y := 0;
//!     while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
//!         if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
//!     }
//!     assert x >= 100;
//! ";
//! use qava::analysis::engine::{AnalysisRequest, EngineRegistry};
//!
//! let pts = qava::lang::compile(program, &BTreeMap::new())?;
//! // Every synthesis algorithm is a `BoundEngine` behind one registry.
//! let registry = EngineRegistry::with_builtins();
//! let upper = registry
//!     .run_engine("explinsyn", &AnalysisRequest::upper(&pts), Default::default())
//!     .expect("built-in engine")
//!     .outcome?;
//! // The paper derives ≈ exp(−15.697) ≈ 1.52e-7 for this program.
//! assert!((upper.bound.ln() + 15.697).abs() < 0.05);
//! # Ok(())
//! # }
//! ```
//!
//! ## The three algorithms
//!
//! * [`analysis::hoeffding`] — §5.1: sound, polynomial-time upper bounds via
//!   repulsing ranking supermartingales and Hoeffding's lemma, with the
//!   Azuma baseline of POPL'17 for comparison (Remark 2).
//! * [`analysis::explinsyn`] — §5.2: sound **and complete** upper bounds
//!   `exp(a·v + b)` via Minkowski decomposition, a dedicated quantifier
//!   elimination, and convex programming (Theorem 5.5).
//! * [`analysis::explowsyn`] — §6: sound, polynomial-time **lower** bounds
//!   via Jensen's inequality and linear programming, valid under
//!   almost-sure termination (certifiable with [`analysis::rsm`]).
//!
//! The theory behind all three is the fixed-point characterization of the
//! violation probability function (§4): pre fixed-points of the probability
//! transformer upper-bound `vpf`, and — under almost-sure termination —
//! bounded post fixed-points lower-bound it. [`analysis::fixpoint`]
//! implements the lattice and transformer directly as an executable
//! reference for finite restrictions.

pub use qava_convex as convex;
pub use qava_core as analysis;
pub use qava_lang as lang;
pub use qava_linalg as linalg;
pub use qava_lp as lp;
pub use qava_polyhedra as polyhedra;
pub use qava_pts as pts;
pub use qava_sim as sim;
