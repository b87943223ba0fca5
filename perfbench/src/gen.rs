//! Seeded request generators. The program under test only ever sees the
//! requests these produce; the same seed yields the same request
//! sequence, whichever client thread ends up sending each request.

use qava_core::suite::{table1, table2, Benchmark};
use std::collections::{BTreeMap, HashSet};

/// SplitMix64: tiny, seedable, and good enough to pick rows.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed, so the suite
    /// order and the fresh draws of a seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 36 rows of Tables 1–2, in paper order.
pub fn suite_rows() -> Vec<Benchmark> {
    table1().into_iter().chain(table2()).collect()
}

/// Seeded blocks: every block visits each of `n` items once, in a fresh
/// seeded order, so any run of whole blocks has the same mix whatever
/// the seed. Suite passes are blocks of rows; fresh draws pick their
/// program in blocks of programs.
pub struct Blocks {
    rng: Rng,
    n: usize,
    block: Vec<usize>,
}

impl Blocks {
    pub fn new(seed: u64, stream: u64, n: usize) -> Blocks {
        Blocks {
            rng: Rng::new(seed, stream),
            n,
            block: Vec::new(),
        }
    }

    /// The next item; starts a new shuffled block when one ends.
    pub fn next_item(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..self.n).collect();
            // Fisher–Yates; popped from the back.
            for i in (1..self.n).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("a block holds at least one item")
    }

    /// Whether the items handed out so far form whole blocks.
    pub fn at_boundary(&self) -> bool {
        self.block.is_empty()
    }
}

/// One `daemon-fresh` request: a Table 2 program at a parameter no
/// earlier request of the run used.
#[derive(Debug, Clone, PartialEq)]
pub struct FreshDraw {
    /// Benchmark name (`M1DWalk`, `Newton`, `Ref`).
    pub name: &'static str,
    /// Program source.
    pub source: &'static str,
    /// The program's parameters, the drawn one overridden.
    pub params: BTreeMap<String, f64>,
}

/// A program family whose paper rows vary one parameter.
struct Family {
    name: &'static str,
    source: &'static str,
    param: String,
    lo: f64,
    hi: f64,
}

/// Programs in seeded blocks; parameters drawn log-uniformly (they span
/// decades: `p` from 1e-7 to 1e-4) within the range the program's own
/// paper rows span, never repeated within a run.
pub struct FreshDraws {
    programs: Blocks,
    rng: Rng,
    families: Vec<Family>,
    seen: HashSet<(usize, u64)>,
}

impl FreshDraws {
    pub fn new(seed: u64) -> FreshDraws {
        let mut families: Vec<Family> = Vec::new();
        for row in table2() {
            let (param, &value) = row
                .params
                .iter()
                .next()
                .expect("every Table 2 row sets its parameter");
            match families.iter_mut().find(|f| f.name == row.name) {
                Some(f) => {
                    f.lo = f.lo.min(value);
                    f.hi = f.hi.max(value);
                }
                None => families.push(Family {
                    name: row.name,
                    source: row.source,
                    param: param.clone(),
                    lo: value,
                    hi: value,
                }),
            }
        }
        FreshDraws {
            programs: Blocks::new(seed, 3, families.len()),
            rng: Rng::new(seed, 4),
            families,
            seen: HashSet::new(),
        }
    }

    pub fn next_draw(&mut self) -> FreshDraw {
        let k = self.programs.next_item();
        let f = &self.families[k];
        loop {
            let value = (f.lo.ln() + self.rng.unit() * (f.hi / f.lo).ln()).exp();
            if !self.seen.insert((k, value.to_bits())) {
                continue;
            }
            let mut params = BTreeMap::new();
            params.insert(f.param.clone(), value);
            return FreshDraw {
                name: f.name,
                source: f.source,
                params,
            };
        }
    }

    pub fn at_boundary(&self) -> bool {
        self.programs.at_boundary()
    }

    /// The `(lo, hi)` parameter range of a family, for tests.
    #[cfg(test)]
    fn range(&self, name: &str) -> (f64, f64) {
        let f = self
            .families
            .iter()
            .find(|f| f.name == name)
            .expect("known family");
        (f.lo, f.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let rows = suite_rows().len();
        let pass = |seed| {
            let mut g = Blocks::new(seed, 1, rows);
            (0..100).map(|_| g.next_item()).collect::<Vec<_>>()
        };
        let fresh = |seed| {
            let mut g = FreshDraws::new(seed);
            (0..100).map(|_| g.next_draw()).collect::<Vec<_>>()
        };
        assert_eq!(pass(7), pass(7));
        assert_eq!(fresh(7), fresh(7));
        assert_ne!(pass(7), pass(8));
        assert_ne!(fresh(7), fresh(8));
    }

    #[test]
    fn blocks_visit_every_item_once() {
        let mut g = Blocks::new(3, 1, 36);
        assert!(g.at_boundary());
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..36).map(|_| g.next_item()).collect();
            assert!(g.at_boundary());
            pass.sort_unstable();
            assert_eq!(pass, (0..36).collect::<Vec<_>>());
        }
        g.next_item();
        assert!(!g.at_boundary());
    }

    #[test]
    fn fresh_draws_stay_in_range_and_never_repeat() {
        let mut g = FreshDraws::new(11);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let d = g.next_draw();
            let (lo, hi) = g.range(d.name);
            let &p = d.params.values().next().expect("one parameter");
            assert!(
                p >= lo * (1.0 - 1e-12) && p <= hi * (1.0 + 1e-12),
                "{p} outside [{lo}, {hi}]"
            );
            assert!(seen.insert((d.name, p.to_bits())), "repeated draw {d:?}");
        }
        let per_program = |name| seen.iter().filter(|(n, _)| *n == name).count();
        for name in ["M1DWalk", "Newton", "Ref"] {
            assert!(
                (666..=667).contains(&per_program(name)),
                "{name}: {}",
                per_program(name)
            );
        }
    }
}
