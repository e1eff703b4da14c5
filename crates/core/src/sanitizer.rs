//! The two-level sanitization algorithm (§4, Algorithm 1) and its four
//! evaluated instances HH / HR / RH / RR.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seqhide_match::{
    supporters, EngineStats, MatchEngine, PatternDomain, ScratchDomain, SensitiveSet,
};
use seqhide_num::{BigCount, Sat64};
use seqhide_obs::{self as obs, Phase};
use seqhide_types::{Sequence, SequenceDb};

use crate::global::{select_victims, GlobalStrategy};
use crate::index::SupporterIndex;
use crate::local::{sanitize_victim, EngineMode, LocalStrategy};
use crate::problem::DisclosureThresholds;
use crate::verify::verify_hidden_domain;

/// Outcome of one sanitization run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Total marks introduced — the paper's distortion measure **M1**.
    pub marks_introduced: usize,
    /// Number of sequences selected and sanitized.
    pub sequences_sanitized: usize,
    /// Number of sequences that supported at least one sensitive pattern
    /// before sanitization.
    pub supporters_before: usize,
    /// Post-sanitization support of each sensitive pattern, in `S_h` order.
    pub residual_supports: Vec<usize>,
    /// Whether every sensitive pattern ended at or below its threshold.
    /// Always `true` for the algorithms here (the global rule guarantees
    /// it); reported so callers never have to take that on faith.
    pub hidden: bool,
    /// Incremental DP-table repairs the match engine performed (one per
    /// non-window pattern per repaired column — see `docs/ALGORITHMS.md`
    /// §5a "Incremental δ maintenance"). Always 0 under
    /// [`EngineMode::Scratch`], which never repairs anything.
    pub engine_repairs: usize,
    /// Buffered Lemma-5 max-window recounts the engine could not avoid
    /// (the documented fallback of `docs/ALGORITHMS.md` §5a; nonzero only
    /// when some pattern carries a `max_window` constraint). Always 0
    /// under [`EngineMode::Scratch`].
    pub fallback_recounts: usize,
}

/// Parses one of the paper's two-letter algorithm names — `hh`, `hr`,
/// `rh`, `rr` — into its (local, global) strategy pair. The first letter
/// picks the position choice inside a victim, the second the victim
/// choice across the database; `None` for anything else. Both the CLI and
/// `seqhide serve` resolve `--algorithm`/`"algorithm"` through this one
/// table so the two surfaces can never drift.
pub fn parse_algorithm(name: &str) -> Option<(LocalStrategy, GlobalStrategy)> {
    match name {
        "hh" => Some((LocalStrategy::Heuristic, GlobalStrategy::Heuristic)),
        "hr" => Some((LocalStrategy::Heuristic, GlobalStrategy::Random)),
        "rh" => Some((LocalStrategy::Random, GlobalStrategy::Heuristic)),
        "rr" => Some((LocalStrategy::Random, GlobalStrategy::Random)),
        _ => None,
    }
}

/// A computation generic over the plain-pattern domain a [`Sanitizer`]
/// selects — see [`Sanitizer::visit_plain`].
pub trait PlainVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation; `make` builds the selected domain (once per
    /// worker, where the computation fans out over threads).
    fn visit<D: PatternDomain<Seq = Sequence>>(self, make: &(dyn Fn() -> D + Sync))
        -> Self::Output;
}

/// The configurable two-level sanitizer.
///
/// ```
/// use seqhide_types::{Sequence, SequenceDb};
/// use seqhide_match::{support, SensitiveSet};
/// use seqhide_core::Sanitizer;
///
/// let mut db = SequenceDb::parse("a b c\nb a c\nc c\n");
/// let s = Sequence::parse("a c", db.alphabet_mut());
/// let sh = SensitiveSet::new(vec![s.clone()]);
/// let report = Sanitizer::hh(0).run(&mut db, &sh);
/// assert!(report.hidden);
/// assert_eq!(support(&db, &s), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Sanitizer {
    local: LocalStrategy,
    global: GlobalStrategy,
    psi: usize,
    seed: u64,
    exact: bool,
    threads: usize,
    engine: EngineMode,
}

impl Sanitizer {
    /// A sanitizer with explicit strategies and disclosure threshold `ψ`.
    pub fn new(local: LocalStrategy, global: GlobalStrategy, psi: usize) -> Self {
        Sanitizer {
            local,
            global,
            psi,
            seed: 0x5e9_41de,
            exact: false,
            threads: 1,
            engine: EngineMode::default(),
        }
    }

    /// **HH** — heuristic position choice, heuristic sequence choice
    /// (the paper's algorithm).
    pub fn hh(psi: usize) -> Self {
        Self::new(LocalStrategy::Heuristic, GlobalStrategy::Heuristic, psi)
    }

    /// **HR** — heuristic positions, random sequence subset.
    pub fn hr(psi: usize) -> Self {
        Self::new(LocalStrategy::Heuristic, GlobalStrategy::Random, psi)
    }

    /// **RH** — random positions, heuristic sequence subset.
    pub fn rh(psi: usize) -> Self {
        Self::new(LocalStrategy::Random, GlobalStrategy::Heuristic, psi)
    }

    /// **RR** — random at both levels.
    pub fn rr(psi: usize) -> Self {
        Self::new(LocalStrategy::Random, GlobalStrategy::Random, psi)
    }

    /// Seeds the RNG used by the random strategies (deterministic default).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches match counting to exact [`BigCount`] arithmetic. The
    /// default [`Sat64`] saturating counters are faster and can only differ
    /// in tie-breaking on sequences with astronomically many embeddings
    /// (> 2⁶⁴); the `ablation_delta_methods` bench quantifies the gap.
    pub fn with_exact_counts(mut self, exact: bool) -> Self {
        self.exact = exact;
        self
    }

    /// Sanitizes victim sequences on `threads` OS threads. Victims are
    /// independent (each is sanitized against the same immutable `S_h`),
    /// and every victim draws from its own seed-derived RNG, so the output
    /// is **byte-identical across any thread count** — parallelism is a
    /// pure speed knob. `0` means "one thread per available CPU".
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the counting core for the marking loop. The default
    /// [`EngineMode::Incremental`] reuses one [`MatchEngine`] per worker
    /// thread across all of its victims; [`EngineMode::Scratch`] recomputes
    /// `δ` from scratch per mark (the original path — same output, kept as
    /// an escape hatch and for A/B benchmarking).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// The configured local strategy.
    pub fn local(&self) -> LocalStrategy {
        self.local
    }

    /// The configured global strategy.
    pub fn global(&self) -> GlobalStrategy {
        self.global
    }

    /// The disclosure threshold `ψ`.
    pub fn psi(&self) -> usize {
        self.psi
    }

    /// The RNG seed ([`Sanitizer::with_seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether exact [`BigCount`] arithmetic is selected.
    pub fn exact_counts(&self) -> bool {
        self.exact
    }

    /// The configured engine mode.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// The configured thread count (0 = one per CPU).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker-thread count after resolving `0` to the CPU count.
    pub(crate) fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        }
    }

    /// Sanitizes `db` in place so that every pattern of `sh` has support
    /// `≤ ψ`, and reports the damage.
    ///
    /// Victim sequences are mutually independent, so each is sanitized
    /// with an RNG derived from `(seed, victim index)` — this keeps results
    /// identical whether the victims run on one thread or many
    /// ([`Sanitizer::with_threads`]).
    ///
    /// This is the plain-pattern entry point: it dispatches the configured
    /// arithmetic and counting core to a [`PatternDomain`] and hands off to
    /// [`Sanitizer::run_domain_threaded`], the same generic driver every
    /// other pattern class uses.
    pub fn run(&self, db: &mut SequenceDb, sh: &SensitiveSet) -> SanitizeReport {
        struct Run<'a>(&'a Sanitizer, &'a mut [Sequence]);
        impl PlainVisitor for Run<'_> {
            type Output = SanitizeReport;
            fn visit<D: PatternDomain<Seq = Sequence>>(
                self,
                make: &(dyn Fn() -> D + Sync),
            ) -> SanitizeReport {
                self.0.run_domain_threaded(self.1, make)
            }
        }
        self.visit_plain(sh, Run(self, db.sequences_mut()))
    }

    /// Hands `visitor` the plain-pattern domain this configuration
    /// selects: [`MatchEngine`] or [`ScratchDomain`]
    /// ([`Sanitizer::with_engine`]) counting in [`Sat64`] or [`BigCount`]
    /// ([`Sanitizer::with_exact_counts`]). Every arm is monomorphised, so
    /// the marking loop never goes through dynamic dispatch. This is the
    /// one place the four combinations are spelled out.
    pub fn visit_plain<V: PlainVisitor>(&self, sh: &SensitiveSet, visitor: V) -> V::Output {
        match (self.exact, self.engine) {
            (false, EngineMode::Incremental) => visitor.visit(&|| MatchEngine::<Sat64>::new(sh)),
            (true, EngineMode::Incremental) => visitor.visit(&|| MatchEngine::<BigCount>::new(sh)),
            (false, EngineMode::Scratch) => visitor.visit(&|| ScratchDomain::<Sat64>::new(sh)),
            (true, EngineMode::Scratch) => visitor.visit(&|| ScratchDomain::<BigCount>::new(sh)),
        }
    }

    /// Runs the full two-level algorithm over any [`PatternDomain`] with a
    /// caller-owned domain value, entirely on the calling thread
    /// (`threads` is ignored — there is only one domain to drive). Use
    /// this when the domain accumulates state the caller wants back
    /// afterwards (the spatiotemporal domain records its
    /// displace/suppress operations, for example);
    /// [`Sanitizer::run_domain_threaded`] otherwise.
    pub fn run_domain<D: PatternDomain>(
        &self,
        db: &mut [D::Seq],
        domain: &mut D,
    ) -> SanitizeReport {
        self.drive_domain(db, domain, None)
    }

    /// Runs the full two-level algorithm over any [`PatternDomain`],
    /// fanning victims out across [`Sanitizer::with_threads`] workers
    /// (each built by `make`). Per-victim RNGs are keyed by selection
    /// ordinal, so the output is byte-identical across any thread count.
    pub fn run_domain_threaded<D: PatternDomain>(
        &self,
        db: &mut [D::Seq],
        make: &(dyn Fn() -> D + Sync),
    ) -> SanitizeReport {
        let mut main = make();
        self.drive_domain(db, &mut main, Some(make))
    }

    /// The generic two-level driver: supporter scan → victim selection →
    /// per-victim marking loop → residual verification, all through one
    /// domain (`main`), with optional thread fan-out via `make`.
    fn drive_domain<D: PatternDomain>(
        &self,
        db: &mut [D::Seq],
        main: &mut D,
        make: Option<&(dyn Fn() -> D + Sync)>,
    ) -> SanitizeReport {
        let _span = obs::span(main.phase());
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let (supporters_before, victims) = self.select_victims_domain(db, main, &mut rng);
        let (marks, stats) = self.sanitize_victims_domain(db, &victims, main, make);
        let thresholds = DisclosureThresholds::uniform(self.psi, main.pattern_count());
        let verify = verify_hidden_domain(main, db, &thresholds);
        SanitizeReport {
            marks_introduced: marks,
            sequences_sanitized: victims.len(),
            supporters_before,
            residual_supports: verify.supports,
            hidden: verify.hidden,
            engine_repairs: stats.cell_repairs as usize,
            fallback_recounts: stats.fallback_recounts as usize,
        }
    }

    /// Supporter scan + victim selection through the domain. Mirrors the
    /// historical eager path exactly: when there are no more supporters
    /// than `ψ`, nothing is measured and the RNG is left untouched.
    fn select_victims_domain<D: PatternDomain>(
        &self,
        db: &[D::Seq],
        domain: &mut D,
        rng: &mut ChaCha8Rng,
    ) -> (usize, Vec<usize>) {
        let sup: Vec<usize> = (0..db.len())
            .filter(|&i| domain.is_supporter(&db[i]))
            .collect();
        let victims = if sup.len() <= self.psi {
            let _span = obs::span(Phase::SelectVictims);
            Vec::new()
        } else {
            let index = SupporterIndex::measure(domain, &sup, db, self.global);
            index.select(self.psi, self.global, rng)
        };
        (sup.len(), victims)
    }

    /// Per-victim RNG: independent of sibling victims and of the selection
    /// RNG, so work distribution cannot change outcomes.
    fn victim_rng(&self, ordinal: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ordinal as u64 + 1)),
        )
    }

    /// Sanitizes one victim through the domain's marking loop. `ordinal`
    /// is the victim's index in the *selection order* (the position
    /// victim selection returned it at), not its database ordinal — the
    /// streaming driver looks it up through a map for exactly this
    /// reason.
    pub(crate) fn sanitize_one_domain<D: PatternDomain>(
        &self,
        domain: &mut D,
        t: &mut D::Seq,
        ordinal: usize,
    ) -> usize {
        let mut rng = self.victim_rng(ordinal);
        sanitize_victim(domain, t, self.local, &mut rng)
    }

    /// Sanitizes the selected victims (database ordinals in selection
    /// order) through [`Sanitizer::sanitize_rows`]. Returns the marks
    /// introduced and the engine work performed: the worker domains'
    /// when the victims fanned out, `main`'s otherwise.
    fn sanitize_victims_domain<D: PatternDomain>(
        &self,
        db: &mut [D::Seq],
        victims: &[usize],
        main: &mut D,
        make: Option<&(dyn Fn() -> D + Sync)>,
    ) -> (usize, EngineStats) {
        let label = main.progress_label();
        obs::progress::begin(label, victims.len() as u64);
        let work: Vec<(usize, usize)> = victims.iter().copied().enumerate().collect();
        let (marks, workers) = self.sanitize_rows(db, &work, main, make, label);
        obs::progress::finish(label);
        (marks, workers.unwrap_or_else(|| main.stats()))
    }

    /// Sanitizes `rows[slot]` for each `(ordinal, slot)` of `victims`,
    /// `ordinal` being the victim's selection ordinal (its RNG key).
    /// Runs sequentially through `main` unless `make` is given, more than
    /// one thread is configured and there is more than one victim; then
    /// the victims move out to scoped threads, each with its own
    /// `make()`-built domain. The global heuristic hands victims over in
    /// *ascending cost* order, so contiguous chunks would give the last
    /// thread all the expensive sequences; striping by ordinal balances
    /// the load instead. Returns the marks introduced and, when the work
    /// fanned out, the worker domains' summed engine work.
    pub(crate) fn sanitize_rows<D: PatternDomain>(
        &self,
        rows: &mut [D::Seq],
        victims: &[(usize, usize)],
        main: &mut D,
        make: Option<&(dyn Fn() -> D + Sync)>,
        label: &'static str,
    ) -> (usize, Option<EngineStats>) {
        let threads = self.resolved_threads();
        let make = match make {
            Some(make) if threads > 1 && victims.len() > 1 => make,
            _ => {
                let mut marks = 0;
                for &(ordinal, slot) in victims {
                    marks += self.sanitize_one_domain(main, &mut rows[slot], ordinal);
                    obs::progress::bump(label, 1);
                }
                return (marks, None);
            }
        };
        let mut stripes: Vec<Vec<(usize, usize, D::Seq)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for &(ordinal, slot) in victims {
            stripes[ordinal % threads].push((ordinal, slot, std::mem::take(&mut rows[slot])));
        }
        let (marks, stats) = std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .iter_mut()
                .map(|stripe| {
                    scope.spawn(move || {
                        let mut marks = 0;
                        let mut domain = make();
                        for (ordinal, _, t) in stripe.iter_mut() {
                            marks += self.sanitize_one_domain(&mut domain, t, *ordinal);
                            obs::progress::bump(label, 1);
                        }
                        (marks, domain.stats())
                    })
                })
                .collect();
            let mut marks = 0;
            let mut stats = EngineStats::default();
            for h in handles {
                let (m, s) = h.join().expect("sanitizer thread panicked");
                marks += m;
                stats += s;
            }
            (marks, stats)
        });
        for stripe in stripes {
            for (_, slot, t) in stripe {
                rows[slot] = t;
            }
        }
        (marks, Some(stats))
    }

    /// [`Sanitizer::sanitize_victims_domain`] for the plain pattern
    /// classes, dispatching the configured arithmetic and counting core
    /// (the per-round workhorse of [`Sanitizer::run_multi`]).
    fn sanitize_victims(
        &self,
        db: &mut SequenceDb,
        sh: &SensitiveSet,
        victims: &[usize],
    ) -> (usize, EngineStats) {
        struct Victims<'a>(&'a Sanitizer, &'a mut [Sequence], &'a [usize]);
        impl PlainVisitor for Victims<'_> {
            type Output = (usize, EngineStats);
            fn visit<D: PatternDomain<Seq = Sequence>>(
                self,
                make: &(dyn Fn() -> D + Sync),
            ) -> (usize, EngineStats) {
                self.0
                    .sanitize_victims_domain(self.1, self.2, &mut make(), Some(make))
            }
        }
        self.visit_plain(sh, Victims(self, db.sequences_mut(), victims))
    }

    /// Multiple per-pattern thresholds via the paper's trivial reduction:
    /// run with `ψ = min(ψᵢ)`.
    ///
    /// # Panics
    /// Panics if `thresholds.len() != sh.len()`.
    pub fn run_multi_min(
        &self,
        db: &mut SequenceDb,
        sh: &SensitiveSet,
        thresholds: &DisclosureThresholds,
    ) -> SanitizeReport {
        assert_eq!(thresholds.len(), sh.len(), "one threshold per pattern");
        let mut collapsed = self.clone();
        collapsed.psi = thresholds.min();
        collapsed.run(db, sh)
    }

    /// Multiple per-pattern thresholds via a **per-pattern scheduler** (the
    /// "relatively novel way" §8 gestures at): patterns are processed in
    /// descending deficit order; each round sanitizes just enough
    /// supporters of one pattern — chosen by this sanitizer's global
    /// strategy, restricted to that pattern — to bring it to its own
    /// threshold. Marks applied for earlier patterns already reduce later
    /// deficits, so when thresholds genuinely differ the total distortion
    /// typically lands well below the min-reduction's. (No universal
    /// dominance holds: per-pattern passes cannot share a mark between two
    /// patterns the way a joint δ can, so on adversarial instances with
    /// overlapping patterns the min-reduction may be cheaper.)
    ///
    /// # Panics
    /// Panics if `thresholds.len() != sh.len()`.
    pub fn run_multi(
        &self,
        db: &mut SequenceDb,
        sh: &SensitiveSet,
        thresholds: &DisclosureThresholds,
    ) -> SanitizeReport {
        assert_eq!(thresholds.len(), sh.len(), "one threshold per pattern");
        let _span = obs::span(Phase::Sanitize);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let supporters_before = supporters(db, sh).len();
        let mut marks = 0;
        let mut stats = EngineStats::default();
        let mut sanitized: Vec<usize> = Vec::new();
        loop {
            // Deficits under the current database state.
            let mut worst: Option<(usize, usize)> = None; // (pattern, deficit)
            for (i, p) in sh.iter().enumerate() {
                let single = SensitiveSet::from_patterns(vec![p.clone()]);
                let sup = supporters(db, &single).len();
                let deficit = sup.saturating_sub(thresholds.get(i));
                if deficit > 0 && worst.is_none_or(|(_, d)| deficit > d) {
                    worst = Some((i, deficit));
                }
            }
            let Some((i, _)) = worst else { break };
            let single = SensitiveSet::from_patterns(vec![sh.patterns()[i].clone()]);
            let sup = supporters(db, &single);
            let victims = if self.exact {
                select_victims::<BigCount, _>(
                    db,
                    &single,
                    &sup,
                    thresholds.get(i),
                    self.global,
                    &mut rng,
                )
            } else {
                select_victims::<Sat64, _>(
                    db,
                    &single,
                    &sup,
                    thresholds.get(i),
                    self.global,
                    &mut rng,
                )
            };
            let (round_marks, round_stats) = self.sanitize_victims(db, &single, &victims);
            marks += round_marks;
            stats += round_stats;
            for &v in &victims {
                if !sanitized.contains(&v) {
                    sanitized.push(v);
                }
            }
        }
        let residual: Vec<usize> = sh
            .iter()
            .map(|p| {
                let single = SensitiveSet::from_patterns(vec![p.clone()]);
                supporters(db, &single).len()
            })
            .collect();
        let hidden = residual
            .iter()
            .zip(thresholds.as_slice())
            .all(|(&s, &t)| s <= t);
        SanitizeReport {
            marks_introduced: marks,
            sequences_sanitized: sanitized.len(),
            supporters_before,
            residual_supports: residual,
            hidden,
            engine_repairs: stats.cell_repairs as usize,
            fallback_recounts: stats.fallback_recounts as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_match::{support, support_of_pattern};
    use seqhide_types::Sequence;

    fn setup() -> (SequenceDb, SensitiveSet, Sequence) {
        let mut db = SequenceDb::parse("a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n");
        let s = Sequence::parse("a c", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s.clone()]);
        (db, sh, s)
    }

    #[test]
    fn hh_hides_completely_at_psi_zero() {
        let (mut db, sh, s) = setup();
        assert_eq!(support(&db, &s), 5);
        let report = Sanitizer::hh(0).run(&mut db, &sh);
        assert!(report.hidden);
        assert_eq!(support(&db, &s), 0);
        assert_eq!(report.residual_supports, vec![0]);
        assert_eq!(report.supporters_before, 5);
        assert_eq!(report.sequences_sanitized, 5);
        assert_eq!(report.marks_introduced, db.total_marks());
        assert!(report.marks_introduced >= 5);
    }

    #[test]
    fn all_four_presets_hide_at_every_psi() {
        for psi in 0..=5 {
            for make in [Sanitizer::hh, Sanitizer::hr, Sanitizer::rh, Sanitizer::rr] {
                let (mut db, sh, s) = setup();
                let report = make(psi).run(&mut db, &sh);
                assert!(report.hidden, "psi={psi}");
                assert!(support(&db, &s) <= psi, "psi={psi}");
            }
        }
    }

    #[test]
    fn psi_bounds_survivors_exactly_for_heuristic() {
        let (mut db, sh, s) = setup();
        let report = Sanitizer::hh(2).run(&mut db, &sh);
        // exactly ψ supporters survive: sanitized ones drop to zero
        assert_eq!(support(&db, &s), 2);
        assert_eq!(report.sequences_sanitized, 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut db1, sh, _) = setup();
        let (mut db2, _, _) = setup();
        let r1 = Sanitizer::rr(1).with_seed(42).run(&mut db1, &sh);
        let r2 = Sanitizer::rr(1).with_seed(42).run(&mut db2, &sh);
        assert_eq!(r1, r2);
        assert_eq!(db1.to_text(), db2.to_text());
    }

    #[test]
    fn different_seeds_can_differ() {
        let outcomes: Vec<String> = (0..8)
            .map(|seed| {
                let (mut db, sh, _) = setup();
                Sanitizer::rr(2).with_seed(seed).run(&mut db, &sh);
                db.to_text()
            })
            .collect();
        let first = &outcomes[0];
        assert!(outcomes.iter().any(|o| o != first));
    }

    #[test]
    fn exact_counts_agree_here() {
        let (mut db1, sh, _) = setup();
        let (mut db2, _, _) = setup();
        let r1 = Sanitizer::hh(0).run(&mut db1, &sh);
        let r2 = Sanitizer::hh(0).with_exact_counts(true).run(&mut db2, &sh);
        assert_eq!(r1, r2);
        assert_eq!(db1.to_text(), db2.to_text());
    }

    #[test]
    fn hh_is_cheapest_on_this_instance() {
        let marks_of = |s: Sanitizer| {
            let (mut db, sh, _) = setup();
            s.run(&mut db, &sh).marks_introduced
        };
        let hh = marks_of(Sanitizer::hh(0));
        // averaged random baselines
        let avg = |f: fn(usize) -> Sanitizer| {
            let total: usize = (0..10_u64)
                .map(|seed| {
                    let (mut db, sh, _) = setup();
                    f(0).with_seed(seed).run(&mut db, &sh).marks_introduced
                })
                .sum();
            total as f64 / 10.0
        };
        assert!(hh as f64 <= avg(Sanitizer::rr) + 1e-9);
        assert!(hh as f64 <= avg(Sanitizer::rh) + 1e-9);
    }

    #[test]
    fn multi_threshold_scheduler_meets_each_threshold() {
        let mut db = SequenceDb::parse("a b\na b\na b\na b\nc d\nc d\nc d\na b c d\n");
        let s1 = Sequence::parse("a b", db.alphabet_mut());
        let s2 = Sequence::parse("c d", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s1.clone(), s2.clone()]);
        let thresholds = DisclosureThresholds::new(vec![3, 1]);
        let report = Sanitizer::hh(0).run_multi(&mut db, &sh, &thresholds);
        assert!(report.hidden);
        assert!(support(&db, &s1) <= 3);
        assert!(support(&db, &s2) <= 1);
        // s1 kept above zero: the scheduler must not over-sanitize
        assert!(support(&db, &s1) > 0);
    }

    #[test]
    fn multi_min_reduction_is_more_aggressive() {
        let build = || {
            let mut db = SequenceDb::parse("a b\na b\na b\nc d\nc d\nc d\n");
            let s1 = Sequence::parse("a b", db.alphabet_mut());
            let s2 = Sequence::parse("c d", db.alphabet_mut());
            (db, SensitiveSet::new(vec![s1, s2]))
        };
        let thresholds = DisclosureThresholds::new(vec![3, 1]);
        let (mut db_min, sh) = build();
        let r_min = Sanitizer::hh(0).run_multi_min(&mut db_min, &sh, &thresholds);
        let (mut db_sched, _) = build();
        let r_sched = Sanitizer::hh(0).run_multi(&mut db_sched, &sh, &thresholds);
        assert!(r_min.hidden && r_sched.hidden);
        assert!(r_sched.marks_introduced <= r_min.marks_introduced);
    }

    #[test]
    fn constrained_patterns_pass_through() {
        use seqhide_match::{ConstraintSet, Gap, SensitivePattern};
        let mut db = SequenceDb::parse("a b\na x b\na y y b\n");
        let s = Sequence::parse("a b", db.alphabet_mut());
        let p = SensitivePattern::new(s.clone(), ConstraintSet::uniform_gap(Gap::bounded(0, 1)))
            .unwrap();
        let sh = SensitiveSet::from_patterns(vec![p.clone()]);
        // rows 0 and 1 support the constrained pattern; row 2 (gap 2) doesn't.
        let report = Sanitizer::hh(0).run(&mut db, &sh);
        assert!(report.hidden);
        assert_eq!(report.supporters_before, 2);
        assert_eq!(support_of_pattern(&db, &p), 0);
        // row 2 was never touched
        assert_eq!(db.sequences()[2].mark_count(), 0);
    }

    #[test]
    fn nothing_to_hide_is_a_noop() {
        let mut db = SequenceDb::parse("a b\nb c\n");
        let s = Sequence::parse("z z", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        let before = db.to_text();
        let report = Sanitizer::hh(0).run(&mut db, &sh);
        assert!(report.hidden);
        assert_eq!(report.marks_introduced, 0);
        assert_eq!(db.to_text(), before);
    }

    #[test]
    fn parallel_output_is_byte_identical() {
        for make in [Sanitizer::hh, Sanitizer::rr] {
            let (mut seq_db, sh, _) = setup();
            let (mut par_db, _, _) = setup();
            let r1 = make(1).with_seed(9).run(&mut seq_db, &sh);
            let r2 = make(1).with_seed(9).with_threads(4).run(&mut par_db, &sh);
            assert_eq!(r1, r2);
            assert_eq!(seq_db.to_text(), par_db.to_text());
            // threads = 0 (auto) also agrees
            let (mut auto_db, _, _) = setup();
            let r3 = make(1).with_seed(9).with_threads(0).run(&mut auto_db, &sh);
            assert_eq!(r1, r3);
            assert_eq!(seq_db.to_text(), auto_db.to_text());
        }
    }

    #[test]
    fn scratch_engine_mode_is_byte_identical() {
        // Engine work counters legitimately differ across modes (scratch
        // performs no repairs), so compare every *algorithmic* field.
        let same_outcome = |a: &SanitizeReport, b: &SanitizeReport| {
            a.marks_introduced == b.marks_introduced
                && a.sequences_sanitized == b.sequences_sanitized
                && a.supporters_before == b.supporters_before
                && a.residual_supports == b.residual_supports
                && a.hidden == b.hidden
        };
        for make in [Sanitizer::hh, Sanitizer::rr] {
            let (mut db1, sh, _) = setup();
            let (mut db2, _, _) = setup();
            let r1 = make(1).with_seed(5).run(&mut db1, &sh);
            let r2 = make(1)
                .with_seed(5)
                .with_engine(EngineMode::Scratch)
                .run(&mut db2, &sh);
            assert!(same_outcome(&r1, &r2));
            assert_eq!(db1.to_text(), db2.to_text());
            assert_eq!(r2.engine_repairs, 0);
            assert_eq!(r2.fallback_recounts, 0);
            // and scratch parallel agrees with scratch sequential
            let (mut db3, _, _) = setup();
            let r3 = make(1)
                .with_seed(5)
                .with_engine(EngineMode::Scratch)
                .with_threads(3)
                .run(&mut db3, &sh);
            assert_eq!(r2, r3);
            assert_eq!(db1.to_text(), db3.to_text());
        }
    }

    #[test]
    fn algorithm_names_resolve_to_strategy_pairs() {
        assert_eq!(
            parse_algorithm("hh"),
            Some((LocalStrategy::Heuristic, GlobalStrategy::Heuristic))
        );
        assert_eq!(
            parse_algorithm("hr"),
            Some((LocalStrategy::Heuristic, GlobalStrategy::Random))
        );
        assert_eq!(
            parse_algorithm("rh"),
            Some((LocalStrategy::Random, GlobalStrategy::Heuristic))
        );
        assert_eq!(
            parse_algorithm("rr"),
            Some((LocalStrategy::Random, GlobalStrategy::Random))
        );
        assert_eq!(parse_algorithm("HH"), None);
        assert_eq!(parse_algorithm(""), None);
    }

    #[test]
    #[should_panic(expected = "one threshold per pattern")]
    fn multi_rejects_wrong_arity() {
        let mut db = SequenceDb::parse("a\n");
        let s = Sequence::parse("a", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        let _ = Sanitizer::hh(0).run_multi(&mut db, &sh, &DisclosureThresholds::new(vec![1, 2]));
    }
}
