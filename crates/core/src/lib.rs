//! # seqhide-core
//!
//! The sanitization algorithms of *Hiding Sequences* (Abul, Atzori, Bonchi,
//! Giannotti — ICDE 2007), plus every extension the paper discusses.
//!
//! ## The problem (§3.1, Problem 1)
//!
//! Given a database `D` of sequences, a set `S_h` of sensitive patterns and
//! a disclosure threshold `ψ`, produce `D'` such that every sensitive
//! pattern has `sup_{D'} ≤ ψ` while distorting the remaining patterns as
//! little as possible. Optimal sanitization is NP-hard (Theorem 1 — the
//! paper reduces from HITTING SET), so the paper pairs two polynomial
//! heuristics:
//!
//! * a **local** strategy choosing *which positions to mark* inside one
//!   sequence ([`LocalStrategy::Heuristic`]: the position involved in the
//!   most matchings, iterated until none remain);
//! * a **global** strategy choosing *which sequences to sanitize*
//!   ([`GlobalStrategy::Heuristic`]: ascending matching-set size, leaving
//!   the `ψ` most expensive untouched).
//!
//! Crossing heuristic/random at the two levels yields the paper's four
//! evaluated algorithms **HH, HR, RH, RR** ([`Sanitizer::hh`] etc.).
//!
//! ## Beyond the paper's core (§4, §5, §7, §8)
//!
//! * gap/window **occurrence constraints** flow through unchanged — they
//!   live on the patterns ([`seqhide_match::ConstraintSet`]);
//! * [`post`] — the second stage the paper describes and skips: `Δ`
//!   deletion and `Δ` replacement, with regeneration guards;
//! * [`itemset`] — §7.1's itemset sequences with the two-level
//!   hierarchical marking heuristic;
//! * [`timed`] — §7.2's real-time-tagged events with constraints in time
//!   units;
//! * [`DisclosureThresholds`] — §8's multiple per-pattern thresholds (both
//!   the trivial min-reduction and a per-pattern scheduler);
//! * [`GlobalStrategy::AutoCorrelation`] / [`GlobalStrategy::Length`] —
//!   §8's alternative sequence-selection heuristics;
//! * [`metrics`] — the distortion measures M1/M2/M3 of §6;
//! * [`attack`] — §7.3's adversary, made concrete: bigram mark-inference
//!   and pattern re-support measurement on releases;
//! * [`verify`] — hiding verification and side-effect audits.
//!
//! Every pattern class is driven by the **same** generic core: a
//! [`PatternDomain`] supplies counting, `δ`, marking, and re-verification
//! for its class, and [`Sanitizer`] runs the one local marking loop
//! ([`sanitize_victim`]), the one victim-selection implementation
//! ([`global`]), and the one bounded-memory streaming pipeline
//! ([`stream`]) over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod delta;
pub mod global;
pub mod index;
pub mod itemset;
pub mod local;
pub mod metrics;
pub mod post;
pub mod problem;
pub mod sanitizer;
pub mod stream;
pub mod timed;
pub mod verify;

pub use delta::{DeltaReport, DeltaState, SeqDelta};
pub use global::GlobalStrategy;
pub use index::SupporterIndex;
pub use local::{sanitize_victim, EngineMode, LocalStrategy};
pub use metrics::{distortion, DistortionReport};
pub use problem::{DisclosureThresholds, HidingProblem};
pub use sanitizer::{parse_algorithm, PlainVisitor, SanitizeReport, Sanitizer};
pub use seqhide_match::{PatternDomain, ScratchDomain};
pub use stream::StreamReport;
pub use timed::TimedDomain;
pub use verify::{verify_hidden, verify_hidden_domain, VerifyReport};
