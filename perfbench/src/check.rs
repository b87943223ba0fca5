//! The correctness gate every analysis passes through.
//!
//! * Each suite (row, engine) pair has a committed expected ln-bound
//!   (`expected_bounds.json`). A bound looser than it by more than
//!   [`REL_TOL`] relative fails; a tighter one is counted, not failed.
//! * Wherever `qava_core::fixpoint` finds a finite state space, value
//!   iteration brackets the true violation probability: an upper bound
//!   below the bracket's lower end, or a lower bound above its upper
//!   end, fails.
//! * A `daemon-fresh` bound must match an in-process run of the same
//!   input ([`fresh_matches`]).

use qava_core::fixpoint::VpfOracle;
use qava_core::suite::Benchmark;
use qava_core::Direction;
use qavad::json::{obj, parse, Json};
use std::path::Path;

/// Relative tolerance of every bound comparison.
pub const REL_TOL: f64 = 1e-9;

/// State budget for value-iteration brackets; larger spaces are skipped.
const BRACKET_STATES: usize = 300_000;
/// Value-iteration rounds. Any count gives a sound bracket (the lower
/// chain rises to the truth, the upper chain falls to it); more rounds
/// only tighten it.
const BRACKET_ITERS: usize = 5_000;

/// How a bound compares with its committed expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Tighter,
    Looser,
}

/// Compares a certified ln-bound with the expected one.
pub fn judge(direction: Direction, got: f64, expected: f64) -> Verdict {
    let tol = REL_TOL * expected.abs();
    // Upper bounds get worse as they grow, lower bounds as they shrink.
    let excess = match direction {
        Direction::Upper => got - expected,
        Direction::Lower => expected - got,
    };
    if excess > tol {
        Verdict::Looser
    } else if excess < -tol {
        Verdict::Tighter
    } else {
        Verdict::Match
    }
}

/// Whether a certified ln-bound respects a value-iteration bracket
/// `(lo, hi)` of the violation probability.
pub fn within_bracket(direction: Direction, ln: f64, (lo, hi): (f64, f64)) -> bool {
    match direction {
        Direction::Upper => lo <= 0.0 || ln >= lo.ln() - REL_TOL * lo.ln().abs(),
        Direction::Lower => ln <= hi.ln() + REL_TOL * hi.ln().abs(),
    }
}

/// Whether a daemon bound matches the in-process bound of the same input.
pub fn fresh_matches(daemon: f64, inproc: f64) -> bool {
    (daemon - inproc).abs() <= REL_TOL * inproc.abs().max(1.0)
}

/// Committed expected ln-bounds, indexed `[row][engine position]`.
pub struct Expected {
    bounds: Vec<Vec<(String, f64)>>,
}

impl Expected {
    /// Loads the committed file and checks it describes exactly these
    /// rows and lineups.
    pub fn load(
        path: &Path,
        rows: &[Benchmark],
        lineup: impl Fn(&Benchmark) -> Vec<&'static str>,
    ) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text, rows, lineup).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// [`load`](Expected::load) from the file's text.
    pub fn parse(
        text: &str,
        rows: &[Benchmark],
        lineup: impl Fn(&Benchmark) -> Vec<&'static str>,
    ) -> Result<Expected, String> {
        let doc = parse(text)?;
        let entries = doc
            .get("bounds")
            .and_then(Json::as_arr)
            .ok_or("no \"bounds\" array")?;
        let mut bounds: Vec<Vec<(String, f64)>> = vec![Vec::new(); rows.len()];
        for e in entries {
            let row = e
                .get("row")
                .and_then(Json::as_usize)
                .ok_or("entry without \"row\"")?;
            let engine = e
                .get("engine")
                .and_then(Json::as_str)
                .ok_or("entry without \"engine\"")?;
            let ln = e
                .get("ln_bound")
                .and_then(Json::as_f64)
                .ok_or("entry without \"ln_bound\"")?;
            let b = rows
                .get(row)
                .ok_or_else(|| format!("expected row {row} is not a suite row"))?;
            if e.get("label").and_then(Json::as_str) != Some(b.label.as_str()) {
                return Err(format!(
                    "expected row {row} is not `{} {}`",
                    b.name, b.label
                ));
            }
            bounds[row].push((engine.to_string(), ln));
        }
        for (i, b) in rows.iter().enumerate() {
            let want: Vec<&str> = lineup(b);
            let have: Vec<&str> = bounds[i].iter().map(|(e, _)| e.as_str()).collect();
            if want != have {
                return Err(format!(
                    "row {i} ({} {}): expected bounds for {have:?}, lineup is {want:?}",
                    b.name, b.label
                ));
            }
        }
        Ok(Expected { bounds })
    }

    pub fn get(&self, row: usize, engine: &str) -> Option<f64> {
        self.bounds
            .get(row)?
            .iter()
            .find(|(e, _)| e == engine)
            .map(|&(_, ln)| ln)
    }

    /// Renders the file `load` reads, from one clean run's bounds.
    pub fn render(rows: &[Benchmark], runs: &[Vec<(&'static str, f64)>]) -> String {
        let entries = rows
            .iter()
            .zip(runs)
            .enumerate()
            .flat_map(|(i, (b, row_runs))| {
                row_runs.iter().map(move |&(engine, ln)| {
                    obj(vec![
                        ("row", Json::Num(i as f64)),
                        ("name", Json::Str(b.name.to_string())),
                        ("label", Json::Str(b.label.clone())),
                        ("engine", Json::Str(engine.to_string())),
                        ("ln_bound", Json::from_f64(ln)),
                    ])
                })
            })
            .collect();
        let mut out = obj(vec![("bounds", Json::Arr(entries))]).render();
        // One entry per line keeps the committed file reviewable.
        out = out.replace("},{", "},\n{");
        out.push('\n');
        out
    }
}

/// Value-iteration brackets of every row whose state space is finite,
/// discrete and within budget.
pub fn brackets(rows: &[Benchmark]) -> Vec<Option<(f64, f64)>> {
    rows.iter()
        .map(|b| {
            let pts = b.compile();
            VpfOracle::explore(&pts, BRACKET_STATES)
                .ok()
                .map(|o| o.interval(BRACKET_ITERS))
        })
        .collect()
}

/// [`brackets`], cached under `state` per source digest: they depend
/// only on the sources, and exploring the larger spaces takes seconds.
pub fn cached_brackets(rows: &[Benchmark], state: &Path, digest: &str) -> Vec<Option<(f64, f64)>> {
    if digest == "unknown" {
        return brackets(rows);
    }
    let path = state.join(format!("brackets-{digest}.json"));
    if let Some(cached) = read_brackets(&path, rows.len()) {
        return cached;
    }
    let computed = brackets(rows);
    let doc = Json::Arr(
        computed
            .iter()
            .map(|b| {
                b.map_or(Json::Null, |(lo, hi)| {
                    Json::Arr(vec![Json::Num(lo), Json::Num(hi)])
                })
            })
            .collect(),
    );
    // A failed write only costs the next run the recomputation.
    if std::fs::create_dir_all(state).is_ok() {
        let _ = std::fs::write(&path, doc.render());
    }
    computed
}

fn read_brackets(path: &Path, rows: usize) -> Option<Vec<Option<(f64, f64)>>> {
    let doc = parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let list: Vec<Option<(f64, f64)>> = doc
        .as_arr()?
        .iter()
        .map(|e| match e {
            Json::Null => Some(None),
            e => {
                let pair = e.as_arr()?;
                Some(Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?)))
            }
        })
        .collect::<Option<_>>()?;
    (list.len() == rows).then_some(list)
}

/// Running totals of the gate over one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Analyses that failed any check.
    pub failed: usize,
    /// Bounds tighter than expected (reported, not failed).
    pub tighter: usize,
    /// Bound checks made against a value-iteration bracket.
    pub bracket_checks: usize,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// One engine's answer inside an analysis: its name and ln-bound, or
/// why it has none.
pub type EngineAnswer = (String, Result<f64, String>);

/// Checks one suite analysis (all engines of its lineup) and records
/// the outcome; returns whether it passed.
pub fn check_suite_analysis(
    tally: &mut Tally,
    expected: &Expected,
    brackets: &[Option<(f64, f64)>],
    rows: &[Benchmark],
    row: usize,
    answers: &[EngineAnswer],
    lineup: &[&str],
) -> bool {
    let b = &rows[row];
    let names: Vec<&str> = answers.iter().map(|(e, _)| e.as_str()).collect();
    if names != lineup {
        tally.fail(format!(
            "{} {}: engines {names:?}, asked for {lineup:?}",
            b.name, b.label
        ));
        return false;
    }
    for (engine, answer) in answers {
        let ln = match answer {
            Ok(ln) => *ln,
            Err(e) => {
                tally.fail(format!("{} {} {engine}: uncertified: {e}", b.name, b.label));
                return false;
            }
        };
        let Some(want) = expected.get(row, engine) else {
            tally.fail(format!(
                "{} {} {engine}: no expected bound",
                b.name, b.label
            ));
            return false;
        };
        match judge(b.direction, ln, want) {
            Verdict::Looser => {
                tally.fail(format!(
                    "{} {} {engine}: ln-bound {ln} looser than expected {want}",
                    b.name, b.label
                ));
                return false;
            }
            Verdict::Tighter => tally.tighter += 1,
            Verdict::Match => {}
        }
        if let Some(bracket) = brackets[row] {
            tally.bracket_checks += 1;
            if !within_bracket(b.direction, ln, bracket) {
                tally.fail(format!(
                    "{} {} {engine}: ln-bound {ln} outside value-iteration bracket {bracket:?}",
                    b.name, b.label
                ));
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::suite_rows;
    use qava_core::suite::runner::default_engines;

    fn lineup(b: &Benchmark) -> Vec<&'static str> {
        default_engines(b.direction).to_vec()
    }

    #[test]
    fn looser_fails_tighter_counts() {
        assert_eq!(judge(Direction::Upper, -10.0, -10.0), Verdict::Match);
        assert_eq!(
            judge(Direction::Upper, -10.0 + 1e-12, -10.0),
            Verdict::Match
        );
        assert_eq!(judge(Direction::Upper, -9.9, -10.0), Verdict::Looser);
        assert_eq!(judge(Direction::Upper, -10.1, -10.0), Verdict::Tighter);
        assert_eq!(judge(Direction::Lower, -0.6, -0.5), Verdict::Looser);
        assert_eq!(judge(Direction::Lower, -0.4, -0.5), Verdict::Tighter);
    }

    #[test]
    fn brackets_bound_both_directions() {
        let bracket = (0.01, 0.02);
        assert!(within_bracket(Direction::Upper, 0.015f64.ln(), bracket));
        assert!(!within_bracket(Direction::Upper, 0.005f64.ln(), bracket));
        assert!(within_bracket(Direction::Upper, -1e6, (0.0, 0.5)));
        assert!(within_bracket(Direction::Lower, 0.015f64.ln(), bracket));
        assert!(!within_bracket(Direction::Lower, 0.03f64.ln(), bracket));
    }

    #[test]
    fn committed_file_covers_the_suite() {
        let rows = suite_rows();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected_bounds.json");
        let expected = Expected::load(&path, &rows, lineup).unwrap();
        assert!(expected.get(0, "hoeffding-linear").is_some());
        assert!(expected.get(35, "explowsyn").is_some());
    }

    #[test]
    fn a_wrong_expected_bound_counts_as_a_failure() {
        let rows = suite_rows();
        let row = 0;
        let lineup = default_engines(rows[row].direction);
        let truth: Vec<Vec<(&'static str, f64)>> = rows
            .iter()
            .map(|b| {
                default_engines(b.direction)
                    .iter()
                    .map(|&e| (e, -5.0))
                    .collect()
            })
            .collect();
        let answers: Vec<EngineAnswer> = lineup.iter().map(|e| (e.to_string(), Ok(-5.0))).collect();
        let brackets = vec![None; rows.len()];

        let load = |runs: &[Vec<(&'static str, f64)>]| {
            Expected::parse(&Expected::render(&rows, runs), &rows, self::lineup).unwrap()
        };

        let mut tally = Tally::default();
        assert!(check_suite_analysis(
            &mut tally,
            &load(&truth),
            &brackets,
            &rows,
            row,
            &answers,
            lineup
        ));
        assert_eq!(tally.failed, 0);

        // The committed upper bound claims more than the engine delivers:
        // the (correct) answer is now looser than expected and fails.
        let mut wrong = truth.clone();
        wrong[row][0].1 = -6.0;
        let mut tally = Tally::default();
        assert!(!check_suite_analysis(
            &mut tally,
            &load(&wrong),
            &brackets,
            &rows,
            row,
            &answers,
            lineup
        ));
        assert_eq!(tally.failed, 1);

        // An expectation the engine beats is counted, not failed.
        let mut loose = truth;
        loose[row][0].1 = -4.0;
        let mut tally = Tally::default();
        assert!(check_suite_analysis(
            &mut tally,
            &load(&loose),
            &brackets,
            &rows,
            row,
            &answers,
            lineup
        ));
        assert_eq!((tally.failed, tally.tighter), (0, 1));

        // A bracket the bound undercuts fails too.
        let mut tight_bracket = vec![None; rows.len()];
        tight_bracket[row] = Some((0.5, 0.6));
        let mut tally = Tally::default();
        let committed = load(
            &rows
                .iter()
                .map(|b| {
                    default_engines(b.direction)
                        .iter()
                        .map(|&e| (e, -5.0))
                        .collect()
                })
                .collect::<Vec<_>>(),
        );
        assert!(!check_suite_analysis(
            &mut tally,
            &committed,
            &tight_bracket,
            &rows,
            row,
            &answers,
            lineup
        ));
    }
}
