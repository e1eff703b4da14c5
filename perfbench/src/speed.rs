//! How fast the machine is running right now, from a fixed reference
//! computation.
//!
//! On a host shared with other tenants the same `seqhide hide` on the same
//! file runs 15–30% slower for tens of seconds at a time, so run medians of
//! raw wall time move by more than any useful bound. Every CLI run is
//! therefore bracketed by two runs of [`Reference::time_ns`], and its wall
//! time is also reported scaled to a machine on which the reference takes
//! [`REFERENCE_NS`]. The reference is the benchmark's own code and input,
//! so a change to seqhide never moves it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's duration on the machine every scaled time refers to:
/// about its median on the two-vCPU x86-64 VM the benchmark was tuned
/// on, while the host was quiet.
pub const REFERENCE_NS: f64 = 15e6;

/// The reference input: 200,000 symbol names (~0.9 MB) in lines of 30,
/// the same for every run.
pub struct Reference {
    text: String,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut text = String::new();
        for i in 0..200_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            text.push('s');
            text.push_str(&(x % 50).to_string());
            text.push(if i % 30 == 29 { '\n' } else { ' ' });
        }
        Reference { text }
    }
}

impl Reference {
    /// Wall time of one pass of the reference work, in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        let start = Instant::now();
        black_box(work(black_box(&self.text)));
        start.elapsed().as_nanos() as f64
    }
}

/// The same kinds of work a `hide` does, in miniature: split and intern
/// tokens, run a subsequence-counting DP over each line, render back.
fn work(text: &str) -> u64 {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut total = 0u64;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let seq: Vec<u32> = line
            .split_ascii_whitespace()
            .map(|tok| {
                let next = ids.len() as u32;
                *ids.entry(tok).or_insert(next)
            })
            .collect();
        // Embeddings of a 4-symbol pattern as a subsequence.
        let pattern = [1u32, 2, 3, 4];
        let mut counts = [0u64; 5];
        counts[0] = 1;
        for &s in &seq {
            for k in (0..4).rev() {
                if pattern[k] == s {
                    counts[k + 1] = counts[k + 1].saturating_add(counts[k]);
                }
            }
        }
        total = total.wrapping_add(counts[4]);
        for s in &seq {
            out.push('s');
            out.push_str(&s.to_string());
            out.push(' ');
        }
        out.push('\n');
    }
    total.wrapping_add(out.len() as u64)
}
