//! The tiered verifier portfolio: cheap sound enclosures first, rigorous
//! backends only when the cheap tiers cannot decide.
//!
//! A [`PortfolioVerifier`] owns an ordered list of [`Verifier`] tiers
//! (cheapest cost class first; the final tier is the *rigorous authority*)
//! plus one [`ReachCache`] per tier — caches are per-tier because the memo
//! key `(controller hash, cell hash)` says nothing about which backend
//! produced the flowpipe, and tiers produce different enclosures for the
//! same key.
//!
//! Three queries, by decreasing cheapness:
//!
//! - **Probe** ([`PortfolioVerifier::reach_probe`]): the learning loop's
//!   exploratory oracle. Walks the cheap tiers only, keeping the first
//!   answer whose verdict margin clears the slack; it bills the rigorous
//!   tier only when the portfolio has no cheap tiers.
//! - **Decisive** ([`PortfolioVerifier::reach_decisive_from_prov`]): the
//!   certification oracle (the whole-`X₀` check and Algorithm 2 cells). A
//!   cheap tier's answer is kept only when the caller-computed verdict
//!   margin clears the configured slack; near-boundary answers escalate to
//!   a tighter tier. Because every tier is sound, a cheap "safe with room
//!   to spare" is final; a cheap "violates" is *not* evidence of unsafety
//!   and always escalates. The answer comes with its [`QueryProvenance`].
//! - **Rigorous** ([`PortfolioVerifier::reach_rigorous`]): the last tier
//!   only. Acceptance of a learned controller always goes through here, so
//!   the portfolio never weakens the soundness contract.
//!
//! A portfolio built without cheap tiers is the single-backend verifier:
//! every query is the rigorous tier's, through its cache.
//!
//! Per-tier call counts (actual backend executions — cache hits are not
//! calls), escalations, and cheap decisions are tracked both in local
//! atomics ([`PortfolioVerifier::stats`]) and, when observability is
//! enabled, in the `portfolio.tier{i}.calls` / `portfolio.escalations` /
//! `portfolio.decided_cheap` counters.

use crate::cache::{hash_cell, ReachCache};
use crate::error::ReachError;
use crate::flowpipe::Flowpipe;
use crate::verifier::{CostClass, Verifier};
use dwv_interval::IntervalBox;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lifetime counters of a [`PortfolioVerifier`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Backend executions per tier, cheapest first (the last entry is the
    /// rigorous tier). Cache hits are not counted.
    pub calls_by_tier: Vec<u64>,
    /// Times a query moved from one tier to the next.
    pub escalations: u64,
    /// Queries answered by a tier below the rigorous one.
    pub decided_cheap: u64,
}

/// Where one portfolio answer came from: the verdict-provenance record
/// attached to every traced query.
///
/// Produced by [`PortfolioVerifier::reach_decisive_from_prov`] so
/// certification artifacts — the pipeline's per-cell verdicts,
/// `VerificationReport` — can say *which* tier decided,
/// how many escalations the query cost and whether the deciding tier's
/// answer was replayed from its cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProvenance {
    /// Index of the deciding tier, cheapest first (last = rigorous).
    pub tier_index: usize,
    /// Backend name of the deciding tier.
    pub tier_name: &'static str,
    /// Cost class of the deciding tier.
    pub cost_class: CostClass,
    /// Tier-to-tier escalations this query performed before deciding.
    pub escalations: u32,
    /// Whether the deciding tier's flowpipe came from its cache (a hit is
    /// not a call; see [`PortfolioStats::calls_by_tier`]).
    pub cache_hit: bool,
}

/// An escalating stack of reachability backends behind one interface.
///
/// Built from the rigorous tier outward; cheaper tiers are added with
/// [`PortfolioVerifier::with_tier`] and kept sorted by [`CostClass`], so
/// queries always walk cheapest-first and end at the rigorous authority.
///
/// # Example
///
/// ```
/// use dwv_reach::{IntervalReach, LinearReach, PortfolioVerifier, hash_params};
/// use dwv_dynamics::{acc, LinearController};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = acc::reach_avoid_problem();
/// let portfolio = PortfolioVerifier::new(Box::new(LinearReach::for_problem(&problem)?), 0.05)
///     .with_tier(Box::new(IntervalReach::for_problem(&problem)));
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = portfolio.reach_probe(&k, hash_params(&[0.5867, -2.0]), &|_| 1.0)?;
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// assert_eq!(portfolio.stats().calls_by_tier, vec![1, 0]);
/// # Ok(())
/// # }
/// ```
pub struct PortfolioVerifier<C: ?Sized> {
    /// Cheaper tiers, sorted by cost class (stable in insertion order).
    cheap: Vec<Box<dyn Verifier<C>>>,
    /// The soundness authority; every acceptance-path query ends here.
    rigorous: Box<dyn Verifier<C>>,
    /// One memo per tier — keys don't encode the backend, so sharing a
    /// cache across tiers would alias different enclosures.
    caches: Vec<ReachCache>,
    calls: Vec<AtomicU64>,
    escalations: AtomicU64,
    decided_cheap: AtomicU64,
    slack: f64,
}

impl<C: ?Sized> PortfolioVerifier<C> {
    /// A single-tier portfolio: just the rigorous backend. `slack` is the
    /// verdict margin below which decisive queries refuse a cheap answer.
    #[must_use]
    pub fn new(rigorous: Box<dyn Verifier<C>>, slack: f64) -> Self {
        Self {
            cheap: Vec::new(),
            rigorous,
            caches: vec![ReachCache::new()],
            calls: vec![AtomicU64::new(0)],
            escalations: AtomicU64::new(0),
            decided_cheap: AtomicU64::new(0),
            slack,
        }
    }

    /// Adds a cheaper tier, keeping the cheap tiers sorted by cost class.
    #[must_use]
    pub fn with_tier(mut self, tier: Box<dyn Verifier<C>>) -> Self {
        let pos = self
            .cheap
            .iter()
            .position(|t| t.cost_class() > tier.cost_class())
            .unwrap_or(self.cheap.len());
        self.cheap.insert(pos, tier);
        self.caches.push(ReachCache::new());
        self.calls.push(AtomicU64::new(0));
        self
    }

    /// Total number of tiers (cheap tiers + the rigorous authority).
    #[must_use]
    pub fn n_tiers(&self) -> usize {
        self.cheap.len() + 1
    }

    /// Backend names, cheapest tier first.
    #[must_use]
    pub fn tier_names(&self) -> Vec<&'static str> {
        self.iter_tiers().map(Verifier::name).collect()
    }

    /// A snapshot of the per-tier call counters.
    #[must_use]
    pub fn stats(&self) -> PortfolioStats {
        PortfolioStats {
            calls_by_tier: self
                .calls
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            escalations: self.escalations.load(Ordering::Relaxed),
            decided_cheap: self.decided_cheap.load(Ordering::Relaxed),
        }
    }

    fn iter_tiers(&self) -> impl Iterator<Item = &dyn Verifier<C>> {
        self.cheap
            .iter()
            .map(|b| &**b)
            .chain(std::iter::once(&*self.rigorous))
    }

    /// Runs tier `i` through its cache, reporting whether the answer was a
    /// cache hit. The execution counter only moves on an actual backend run
    /// (cache hits are free and say nothing about the verifier bill).
    fn run_tier(
        &self,
        i: usize,
        tier: &dyn Verifier<C>,
        x0: Option<&IntervalBox>,
        controller: &C,
        controller_hash: u64,
    ) -> (Result<Flowpipe, ReachError>, bool) {
        let ran = std::cell::Cell::new(false);
        let compute = || {
            ran.set(true);
            if let Some(c) = self.calls.get(i) {
                c.fetch_add(1, Ordering::Relaxed);
            }
            if dwv_obs::enabled() {
                dwv_obs::counter(&format!("portfolio.tier{i}.calls")).inc();
            }
            match x0 {
                Some(cell) => tier.reach_from(cell, controller),
                None => tier.reach(controller),
            }
        };
        let result = match self.caches.get(i) {
            Some(cache) => {
                // `reach` queries key on the tier's own configured initial
                // set; callers pass the cell explicitly when it varies.
                let cell_hash = x0.map_or(0, hash_cell);
                cache.get_or_compute(controller_hash, cell_hash, compute)
            }
            None => compute(),
        };
        (result, !ran.get())
    }

    fn note_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
        if dwv_obs::enabled() {
            dwv_obs::counter("portfolio.escalations").inc();
        }
    }

    fn note_decided_cheap(&self) {
        self.decided_cheap.fetch_add(1, Ordering::Relaxed);
        if dwv_obs::enabled() {
            dwv_obs::counter("portfolio.decided_cheap").inc();
        }
    }

    /// Probe query: the cheapest *trustworthy* answer, without ever
    /// billing the rigorous tier.
    ///
    /// Walks the cheap tiers cheapest-first. A tier's enclosure is
    /// returned immediately when the caller's signed verdict margin clears
    /// the slack (the enclosure is tight enough that its geometry can be
    /// trusted for ranking); otherwise the walk escalates and the most
    /// expensive cheap `Ok` is kept as the fallback answer. The rigorous
    /// tier is consulted only when the portfolio has no cheap tiers at
    /// all.
    ///
    /// This oracle is for the high-volume exploratory queries of
    /// Algorithm 1, whose job is to *rank* candidates, not to certify
    /// them: every enclosure returned is still sound, but a near-boundary
    /// cheap verdict is never authoritative — callers must confirm any
    /// acceptance through [`PortfolioVerifier::reach_rigorous`].
    ///
    /// # Errors
    ///
    /// The last cheap tier's error when every cheap tier fails to enclose
    /// (a candidate whose loop diverges under every cheap geometry is
    /// genuinely hopeless — probes don't pay the rigorous tier to learn
    /// precisely how hopeless).
    pub fn reach_probe(
        &self,
        controller: &C,
        controller_hash: u64,
        margin: &dyn Fn(&Flowpipe) -> f64,
    ) -> Result<Flowpipe, ReachError> {
        if self.cheap.is_empty() {
            return self.reach_rigorous(controller, controller_hash);
        }
        let mut fallback: Option<Result<Flowpipe, ReachError>> = None;
        for (i, tier) in self.cheap.iter().enumerate() {
            match self
                .run_tier(i, &**tier, None, controller, controller_hash)
                .0
            {
                Ok(fp) => {
                    if margin(&fp) >= self.slack {
                        self.note_decided_cheap();
                        return Ok(fp);
                    }
                    self.note_escalation();
                    fallback = Some(Ok(fp));
                }
                Err(e) => {
                    self.note_escalation();
                    if fallback.is_none() {
                        fallback = Some(Err(e));
                    }
                }
            }
        }
        fallback.unwrap_or_else(|| {
            Err(ReachError::Unsupported(
                "portfolio: no tier produced a result".into(),
            ))
        })
    }

    /// Decisive query from an explicit initial cell: a cheap tier's
    /// enclosure is accepted only when `margin` (the caller's signed verdict
    /// margin — positive means "satisfies reach-avoid with this much room")
    /// clears the slack; otherwise the query escalates, ending at the
    /// rigorous tier whose answer is final either way. `margin` is never
    /// evaluated on the rigorous tier's answer.
    ///
    /// Returns the answer with its [`QueryProvenance`] (also present on
    /// `Err`: it then names the last tier that was consulted).
    ///
    /// # Errors
    ///
    /// The rigorous tier's error when every tier fails to enclose.
    pub fn reach_decisive_from_prov(
        &self,
        x0: &IntervalBox,
        controller: &C,
        controller_hash: u64,
        margin: &dyn Fn(&Flowpipe) -> f64,
    ) -> (Result<Flowpipe, ReachError>, QueryProvenance) {
        let prov =
            |i: usize, tier: &dyn Verifier<C>, escalations: u32, cache_hit: bool| QueryProvenance {
                tier_index: i,
                tier_name: tier.name(),
                cost_class: tier.cost_class(),
                escalations,
                cache_hit,
            };
        let mut escalations = 0u32;
        for (i, tier) in self.cheap.iter().enumerate() {
            let (result, cache_hit) =
                self.run_tier(i, &**tier, Some(x0), controller, controller_hash);
            // Soundness allows trusting a cheap "safe", never a cheap
            // "violates"; a cheap tier that fails to enclose escalates too.
            match result {
                Ok(fp) if margin(&fp) >= self.slack => {
                    self.note_decided_cheap();
                    return (Ok(fp), prov(i, &**tier, escalations, cache_hit));
                }
                _ => {
                    self.note_escalation();
                    escalations += 1;
                }
            }
        }
        let i = self.cheap.len();
        let (result, cache_hit) =
            self.run_tier(i, &*self.rigorous, Some(x0), controller, controller_hash);
        (result, prov(i, &*self.rigorous, escalations, cache_hit))
    }

    /// Rigorous-tier query from the configured initial set (through the
    /// rigorous tier's cache). The acceptance path of Algorithm 1.
    ///
    /// # Errors
    ///
    /// Whatever the rigorous backend returns.
    pub fn reach_rigorous(
        &self,
        controller: &C,
        controller_hash: u64,
    ) -> Result<Flowpipe, ReachError> {
        let i = self.cheap.len();
        self.run_tier(i, &*self.rigorous, None, controller, controller_hash)
            .0
    }
}

impl<C: ?Sized> std::fmt::Debug for PortfolioVerifier<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioVerifier")
            .field("tiers", &self.tier_names())
            .field("slack", &self.slack)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::hash_params;
    use crate::interval_reach::IntervalReach;
    use crate::linear::LinearReach;
    use dwv_dynamics::{acc, LinearController};

    fn acc_portfolio(slack: f64) -> PortfolioVerifier<LinearController> {
        let problem = acc::reach_avoid_problem();
        PortfolioVerifier::new(
            Box::new(LinearReach::for_problem(&problem).expect("affine")),
            slack,
        )
        .with_tier(Box::new(IntervalReach::for_problem(&problem)))
    }

    fn good_k() -> (LinearController, u64) {
        let gains = vec![0.5867, -2.0];
        (
            LinearController::new(2, 1, gains.clone()),
            hash_params(&gains),
        )
    }

    #[test]
    fn tiers_sort_cheapest_first() {
        let p = acc_portfolio(0.05);
        assert_eq!(p.tier_names(), vec!["interval", "linear-exact"]);
        assert_eq!(p.n_tiers(), 2);
    }

    #[test]
    fn decisive_escalates_on_cheap_tier_divergence() {
        let p = acc_portfolio(0.05);
        // Strong positive feedback: the interval tier blows up, the exact
        // linear recursion still encloses (finitely).
        let gains = vec![80.0, 80.0];
        let k = LinearController::new(2, 1, gains.clone());
        let x0 = acc::reach_avoid_problem().x0;
        let (r, prov) = p.reach_decisive_from_prov(&x0, &k, hash_params(&gains), &|_| 2.0);
        assert!(r.is_ok(), "rigorous tier should still answer: {r:?}");
        assert_eq!(prov.tier_index, 1);
        let s = p.stats();
        assert_eq!(s.calls_by_tier, vec![1, 1]);
        assert_eq!(s.escalations, 1);
        assert_eq!(s.decided_cheap, 0);
    }

    #[test]
    fn decisive_escalates_when_margin_is_inside_slack() {
        let p = acc_portfolio(0.5);
        let (k, h) = good_k();
        let x0 = acc::reach_avoid_problem().x0;
        let (r, _) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 0.1);
        assert!(r.is_ok());
        let s = p.stats();
        assert_eq!(s.calls_by_tier, vec![1, 1], "thin margin must escalate");
        assert_eq!(s.escalations, 1);
        assert_eq!(s.decided_cheap, 0);
    }

    #[test]
    fn decisive_stops_cheap_when_margin_clears_slack() {
        let p = acc_portfolio(0.5);
        let (k, h) = good_k();
        let x0 = acc::reach_avoid_problem().x0;
        let (r, _) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 2.0);
        assert!(r.is_ok());
        assert_eq!(p.stats().calls_by_tier, vec![1, 0]);
        assert_eq!(p.stats().decided_cheap, 1);
    }

    #[test]
    fn probe_decides_on_the_cheap_tier_when_margin_clears() {
        let p = acc_portfolio(0.05);
        let (k, h) = good_k();
        let fp = p.reach_probe(&k, h, &|_| 10.0).expect("encloses");
        assert!(fp.len() > 1);
        assert_eq!(p.stats().calls_by_tier, vec![1, 0]);
        assert_eq!(p.stats().decided_cheap, 1);
    }

    #[test]
    fn probe_never_bills_the_rigorous_tier() {
        let problem = acc::reach_avoid_problem();
        let p = PortfolioVerifier::new(
            Box::new(LinearReach::for_problem(&problem).expect("affine")),
            0.05,
        )
        .with_tier(Box::new(IntervalReach::for_problem(&problem)))
        .with_tier(Box::new(
            crate::zonotope_reach::ZonotopeReach::for_problem(&problem).expect("affine"),
        ));
        let (k, h) = good_k();
        // A margin that never clears: the probe escalates through every
        // cheap tier and settles on the tightest cheap answer — the exact
        // tier stays untouched.
        let fp = p
            .reach_probe(&k, h, &|_| f64::NEG_INFINITY)
            .expect("cheap tiers enclose");
        assert!(fp.len() > 1);
        assert_eq!(p.stats().calls_by_tier, vec![1, 1, 0]);
        assert_eq!(p.stats().decided_cheap, 0);
        assert_eq!(p.stats().escalations, 2);
    }

    #[test]
    fn probe_on_single_tier_portfolio_uses_the_rigorous_tier() {
        let problem = acc::reach_avoid_problem();
        let p: PortfolioVerifier<LinearController> = PortfolioVerifier::new(
            Box::new(LinearReach::for_problem(&problem).expect("affine")),
            0.05,
        );
        let (k, h) = good_k();
        assert!(p.reach_probe(&k, h, &|_| 0.0).is_ok());
        assert_eq!(p.stats().calls_by_tier, vec![1]);
    }

    #[test]
    fn single_tier_portfolio_is_the_rigorous_backend() {
        let problem = acc::reach_avoid_problem();
        let backend = LinearReach::for_problem(&problem).expect("affine");
        let p: PortfolioVerifier<LinearController> =
            PortfolioVerifier::new(Box::new(backend.clone()), 0.05);
        let (k, h) = good_k();
        let never = |_: &Flowpipe| -> f64 { panic!("one tier: the margin is never consulted") };
        let (r, prov) = p.reach_decisive_from_prov(&problem.x0, &k, h, &never);
        assert_eq!(r.ok(), backend.reach_from(&problem.x0, &k).ok());
        assert_eq!((prov.tier_index, prov.escalations), (0, 0));
        assert!(!prov.cache_hit);
        // Asking about the same cell again is a hit, not a second call.
        let (_, again) = p.reach_decisive_from_prov(&problem.x0, &k, h, &never);
        assert!(again.cache_hit);
        assert_eq!(p.reach_rigorous(&k, h).ok(), backend.reach(&k).ok());
        let s = p.stats();
        assert_eq!(s.calls_by_tier, vec![2]);
        assert_eq!((s.escalations, s.decided_cheap), (0, 0));
    }

    #[test]
    fn per_tier_caches_do_not_alias_and_hits_are_not_calls() {
        let p = acc_portfolio(0.05);
        let (k, h) = good_k();
        let x0 = acc::reach_avoid_problem().x0;
        let (a, first) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 2.0);
        let (b, second) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 2.0);
        let a = a.expect("encloses");
        assert_eq!(Some(&a), b.as_ref().ok(), "cached replay is bit-identical");
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(
            p.stats().calls_by_tier,
            vec![1, 0],
            "second query was a hit"
        );
        // The same key escalated: the cheap tier answers from its cache, and
        // the rigorous tier computes its own enclosure — per-tier caches must
        // not hand back the cheap tier's pipe.
        let (rig, prov) = p.reach_decisive_from_prov(&x0, &k, h, &|_| f64::NEG_INFINITY);
        assert_eq!((prov.tier_index, prov.cache_hit), (1, false));
        assert_ne!(
            Some(&a),
            rig.as_ref().ok(),
            "tiers produce different enclosures"
        );
        assert_eq!(p.stats().calls_by_tier, vec![1, 1]);
        let (_, prov) = p.reach_decisive_from_prov(&x0, &k, h, &|_| f64::NEG_INFINITY);
        assert!(prov.cache_hit);
        // Probe and rigorous queries key on the configured initial set.
        let _ = p.reach_probe(&k, h, &|_| 2.0);
        let _ = p.reach_probe(&k, h, &|_| 2.0);
        let _ = p.reach_rigorous(&k, h);
        let _ = p.reach_rigorous(&k, h);
        assert_eq!(p.stats().calls_by_tier, vec![2, 2]);
    }

    #[test]
    fn rigorous_entry_point_skips_cheap_tiers() {
        let p = acc_portfolio(0.05);
        let (k, h) = good_k();
        let fp = p.reach_rigorous(&k, h).expect("encloses");
        assert!(fp.len() > 1);
        assert_eq!(p.stats().calls_by_tier, vec![0, 1]);
        assert_eq!(p.stats().decided_cheap, 0);
    }

    #[test]
    fn provenance_names_the_deciding_tier() {
        let p = acc_portfolio(0.5);
        let (k, h) = good_k();
        let x0 = acc::reach_avoid_problem().x0;
        // Wide margin: the interval tier decides, zero escalations.
        let (r, prov) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 2.0);
        assert!(r.is_ok());
        assert_eq!(prov.tier_index, 0);
        assert_eq!(prov.tier_name, "interval");
        assert_eq!(prov.cost_class, CostClass::Interval);
        assert_eq!(prov.escalations, 0);
        assert!(!prov.cache_hit, "first query computes");
        // Same query again: same decision, now a cache hit.
        let (_, prov2) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 2.0);
        assert!(prov2.cache_hit, "replay comes from the tier cache");
        assert_eq!(p.stats().calls_by_tier, vec![1, 0]);
    }

    #[test]
    fn provenance_tracks_escalation_to_the_rigorous_tier() {
        let p = acc_portfolio(0.5);
        let (k, h) = good_k();
        let x0 = acc::reach_avoid_problem().x0;
        let (r, prov) = p.reach_decisive_from_prov(&x0, &k, h, &|_| 0.1);
        assert!(r.is_ok());
        assert_eq!(prov.tier_index, 1, "thin margin escalates to rigorous");
        assert_eq!(prov.tier_name, "linear-exact");
        assert_eq!(prov.cost_class, CostClass::Exact);
        assert_eq!(prov.escalations, 1);
        assert!(!prov.cache_hit);
    }
}
