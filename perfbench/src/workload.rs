//! The three workloads and the inputs each one generates from `--seed`.
//!
//! Every input is a seqhide Markov database (`seqhide::data::markov_db`)
//! plus sensitive patterns drawn from that database, so the same seed
//! always gives the same bytes and no data is committed.

use seqhide::data::markov_db;
use seqhide::matching::support;
use seqhide::types::{Sequence, SequenceDb, Symbol};

/// The shape of one generated Markov database.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Number of sequences |D|.
    pub sequences: usize,
    /// Inclusive sequence-length range.
    pub len: (usize, usize),
    /// Alphabet size |Σ|.
    pub alphabet: usize,
}

/// Probability that the next symbol is a neighbour of the current one.
const LOCALITY: f64 = 0.5;

/// How sensitive patterns are drawn from a database.
#[derive(Clone, Copy, Debug)]
pub enum Draw {
    /// One window of `len` consecutive symbols of some sequence: of 32
    /// such candidates, the one whose support is nearest
    /// `support_share` × |D|. Supports of random windows spread over
    /// two orders of magnitude; picking by support keeps M1 (about
    /// support − ψ) steady from seed to seed.
    Selective { len: usize, support_share: f64 },
    /// Three overlapping patterns over the symbol ids `k..k+5` (mod |Σ|)
    /// of a symbol `k` drawn from the data: `w[0..3]`, `w[1..5]` and
    /// `w[2..5]`. The Markov chain is symmetric under rotating the ids,
    /// so every such window costs the same to hide whatever the seed.
    Overlapping,
}

/// A database shape, how its patterns are drawn, and ψ.
#[derive(Clone, Copy, Debug)]
pub struct DataSpec {
    pub shape: Shape,
    pub draw: Draw,
    pub psi: usize,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The database `seqhide hide` runs on.
    pub batch: DataSpec,
    /// Share of the measured seconds spent on CLI runs; the rest drives
    /// the server, which holds [`SERVED`].
    pub batch_share: f64,
}

/// The dataset every workload loads into `seqhide serve`: 500 short
/// sequences (~57 KB).
pub const SERVED: DataSpec = DataSpec {
    shape: Shape {
        sequences: 500,
        len: (20, 40),
        alphabet: 50,
    },
    draw: Draw::Selective {
        len: 3,
        support_share: 0.08,
    },
    psi: 2,
};

pub const WORKLOADS: [Workload; 3] = [
    // The |D| axis: many short sequences and one selective pattern, so
    // parsing, interning, rendering and writing dominate a `hide`.
    Workload {
        name: "bulk-short",
        batch: DataSpec {
            shape: Shape {
                sequences: 50_000,
                len: (20, 40),
                alphabet: 50,
            },
            draw: Draw::Selective {
                len: 4,
                support_share: 0.0124,
            },
            psi: 5,
        },
        batch_share: 0.73,
    },
    // The length axis: TRUCKS-length sequences over a small alphabet and
    // three overlapping dense patterns, so the engine dominates.
    Workload {
        name: "dense-long",
        batch: DataSpec {
            shape: Shape {
                sequences: 2_000,
                len: (200, 300),
                alphabet: 20,
            },
            draw: Draw::Overlapping,
            psi: 50,
        },
        batch_share: 0.73,
    },
    // The server: an open loop of reads, inline sanitizes and persisted
    // delta writes against one loaded dataset. Its CLI side hides the
    // served shape at 20x the size, large enough for steady timings.
    Workload {
        name: "serve-mixed",
        batch: DataSpec {
            shape: Shape {
                sequences: 10_000,
                ..SERVED.shape
            },
            draw: Draw::Selective {
                len: 3,
                support_share: 0.036,
            },
            psi: 2,
        },
        batch_share: 0.45,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated database with its drawn patterns.
pub struct Generated {
    pub text: String,
    /// Patterns as space-separated symbol names (the CLI/wire syntax).
    pub patterns: Vec<String>,
    pub psi: usize,
}

/// Derives independent sub-seeds from the run's seed.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices
/// (pattern windows, the request mix, delta ordinals).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(subseed(seed, 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        subseed(self.0, 1)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n` (`k <= n`), in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

pub fn generate(spec: &DataSpec, seed: u64) -> Generated {
    let s = spec.shape;
    let db = markov_db(seed, s.sequences, s.len, s.alphabet, LOCALITY);
    let mut rng = Rng::new(seed);
    let patterns = match spec.draw {
        Draw::Selective { len, support_share } => {
            let target = (support_share * db.len() as f64).max(1.0);
            let mut best: Option<(f64, Vec<String>)> = None;
            for _ in 0..32 {
                let w = window(&db, &mut rng, len);
                let sup = support(&db, &parse(&db, &w)).max(1) as f64;
                let miss = (sup / target).ln().abs();
                if best.as_ref().is_none_or(|(m, _)| miss < *m) {
                    best = Some((miss, w));
                }
            }
            vec![best.expect("candidates were drawn").1.join(" ")]
        }
        Draw::Overlapping => {
            let t = &db.sequences()[rng.below(db.len())];
            let k = t[rng.below(t.len())].id() as usize;
            let w: Vec<String> = (0..5)
                .map(|j| {
                    db.alphabet()
                        .render(Symbol::new(((k + j) % s.alphabet) as u32))
                        .to_string()
                })
                .collect();
            vec![w[0..3].join(" "), w[1..5].join(" "), w[2..5].join(" ")]
        }
    };
    Generated {
        text: db.to_text(),
        patterns,
        psi: spec.psi,
    }
}

/// `len` consecutive symbol names from a random sequence (every shape's
/// minimum length exceeds `len`).
fn window(db: &SequenceDb, rng: &mut Rng, len: usize) -> Vec<String> {
    let t = &db.sequences()[rng.below(db.len())];
    let start = rng.below(t.len() - len + 1);
    t.iter()
        .skip(start)
        .take(len)
        .map(|&sym| db.alphabet().render(sym).to_string())
        .collect()
}

fn parse(db: &SequenceDb, names: &[String]) -> Sequence {
    let mut alphabet = db.alphabet().clone();
    Sequence::parse(&names.join(" "), &mut alphabet)
}

/// Fresh sequences (as text lines) for the delta stream's `add` side,
/// drawn from the same shape as the dataset they join.
pub fn delta_pool(shape: &Shape, seed: u64, n: usize) -> Vec<String> {
    let db = markov_db(
        subseed(seed, 0xde17a),
        n,
        shape.len,
        shape.alphabet,
        LOCALITY,
    );
    db.to_text().lines().map(str::to_string).collect()
}
