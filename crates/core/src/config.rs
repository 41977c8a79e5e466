//! Learning configuration (the knobs of Algorithm 1).

use dwv_reach::TaylorReachConfig;

/// Which distance metric drives the learning (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricKind {
    /// Geometric distances `d^u`, `d^g` (Eqs. 2–3) — "Ours(G)".
    #[default]
    Geometric,
    /// Wasserstein distances (Eq. 4) — "Ours(W)".
    Wasserstein,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::Geometric => write!(f, "G"),
            MetricKind::Wasserstein => write!(f, "W"),
        }
    }
}

/// How the difference-method gradient (Eq. 5) is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientEstimator {
    /// Central differences per parameter coordinate — `2·|θ|` verifier calls
    /// per iteration. Exact direction; appropriate for low-dimensional `θ`
    /// (the ACC linear controller).
    Coordinate,
    /// Simultaneous-perturbation (SPSA): random `±p` perturbation of the
    /// whole vector, `2·samples` verifier calls per iteration — the paper's
    /// Fig. 2 picture, and the only practical choice for neural `θ`.
    Spsa {
        /// Number of random perturbation directions averaged per iteration.
        samples: usize,
    },
}

impl Default for GradientEstimator {
    fn default() -> Self {
        GradientEstimator::Spsa { samples: 1 }
    }
}

/// Which NN abstraction the verifier uses (paper's ReachNN vs POLAR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbstractionKind {
    /// POLAR-style Taylor-model propagation with the given order.
    Polar {
        /// Activation Taylor-expansion order.
        order: u32,
    },
    /// ReachNN-style Bernstein fit with the given per-dimension degree.
    Bernstein {
        /// Bernstein degree per state dimension.
        degree: u32,
    },
}

impl Default for AbstractionKind {
    fn default() -> Self {
        AbstractionKind::Polar { order: 2 }
    }
}

impl std::fmt::Display for AbstractionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbstractionKind::Polar { .. } => write!(f, "POLAR"),
            AbstractionKind::Bernstein { .. } => write!(f, "ReachNN"),
        }
    }
}

/// How Algorithm 1 and the certification sweep spend their verifier budget.
///
/// Both modes query a [`dwv_reach::PortfolioVerifier`] whose last tier is
/// the rigorous backend; the mode decides which tiers stand in front of it
/// (see `Algorithm1::linear_portfolio` / `Algorithm1::nn_portfolio`).
///
/// `Off` is the one-tier portfolio: every query — gradient probes,
/// candidate evaluations, the final acceptance, every sweep cell — goes to
/// the rigorous backend, and the learner is the paper's single-oracle
/// loop. `Surrogate` routes the high-volume exploratory queries through the
/// cheap portfolio tiers (interval → zonotope) and reserves the rigorous
/// tier for decisions: a cheap-tier reach-avoid is only trusted after a
/// rigorous confirmation, a rigorous stop-check runs every `confirm_every`
/// iterations in case the cheap tiers are too loose to ever report
/// convergence, and the accepted controller is always re-verified
/// rigorously before Algorithm 1 returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortfolioMode {
    /// A one-tier portfolio: every verifier query uses the rigorous
    /// backend (paper baseline).
    #[default]
    Off,
    /// Exploratory queries use cheap tiers; rigorous calls only for
    /// confirmation, periodic stop-checks, and final acceptance.
    Surrogate {
        /// Run a rigorous stop-check every this many iterations (values
        /// below 1 are treated as 1).
        confirm_every: usize,
    },
}

impl std::fmt::Display for PortfolioMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortfolioMode::Off => write!(f, "off"),
            PortfolioMode::Surrogate { confirm_every } => {
                write!(f, "surrogate(confirm_every={confirm_every})")
            }
        }
    }
}

/// Configuration of the verification-in-the-loop learner.
///
/// Build with [`LearnConfig::builder`]:
///
/// ```
/// use dwv_core::{LearnConfig, MetricKind};
///
/// let cfg = LearnConfig::builder()
///     .metric(MetricKind::Wasserstein)
///     .max_updates(50)
///     .alpha(0.05)
///     .beta(0.05)
///     .seed(42)
///     .build();
/// assert_eq!(cfg.max_updates, 50);
/// ```
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// The metric driving the descent.
    pub metric: MetricKind,
    /// Maximum number of update iterations `N`.
    pub max_updates: usize,
    /// Step length `α` on the unsafe-distance gradient.
    pub alpha: f64,
    /// Step length `β` on the goal-distance gradient.
    pub beta: f64,
    /// Perturbation magnitude `p` of the difference method.
    pub perturbation: f64,
    /// Gradient estimator.
    pub estimator: GradientEstimator,
    /// RNG seed (initialization and SPSA directions are deterministic in
    /// it).
    pub seed: u64,
    /// Hidden-layer sizes for neural controllers (input/output sizes come
    /// from the problem).
    pub nn_hidden: Vec<usize>,
    /// Output scale of neural controllers (Tanh output × scale).
    pub nn_output_scale: f64,
    /// NN abstraction for the Taylor-model verifier.
    pub abstraction: AbstractionKind,
    /// Flowpipe engine configuration.
    pub verifier: TaylorReachConfig,
    /// Sample-cloud size for the Wasserstein metric.
    pub wasserstein_samples: usize,
    /// Cap on the safety term's contribution to the learning objective:
    /// once `d^u` (or `W(r, u)`) exceeds this, extra clearance from the
    /// unsafe set stops trading off against goal progress. `None` (the
    /// default) scales the cap to the problem: 5% of the universe box's
    /// diagonal.
    pub safety_cap: Option<f64>,
    /// Verifier-portfolio mode (see [`PortfolioMode`]).
    pub portfolio: PortfolioMode,
    /// Decisiveness slack for cheap portfolio tiers in per-cell sweeps: a
    /// cheap verdict is kept only when its geometric margin clears this
    /// value; otherwise the query escalates.
    pub portfolio_slack: f64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            metric: MetricKind::Geometric,
            max_updates: 60,
            alpha: 0.1,
            beta: 0.1,
            perturbation: 1e-2,
            estimator: GradientEstimator::default(),
            seed: 0,
            nn_hidden: vec![8],
            nn_output_scale: 1.0,
            abstraction: AbstractionKind::default(),
            verifier: TaylorReachConfig::default(),
            wasserstein_samples: 48,
            safety_cap: None,
            portfolio: PortfolioMode::Off,
            portfolio_slack: 0.0,
        }
    }
}

impl LearnConfig {
    /// Starts a builder with default values.
    #[must_use]
    pub fn builder() -> LearnConfigBuilder {
        LearnConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`LearnConfig`].
#[derive(Debug, Clone)]
pub struct LearnConfigBuilder {
    config: LearnConfig,
}

impl LearnConfigBuilder {
    /// Sets the metric.
    #[must_use]
    pub fn metric(mut self, m: MetricKind) -> Self {
        self.config.metric = m;
        self
    }

    /// Sets the iteration limit `N`.
    #[must_use]
    pub fn max_updates(mut self, n: usize) -> Self {
        self.config.max_updates = n;
        self
    }

    /// Sets the step length `α`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`.
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.config.alpha = alpha;
        self
    }

    /// Sets the step length `β`.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0`.
    #[must_use]
    pub fn beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        self.config.beta = beta;
        self
    }

    /// Sets the perturbation magnitude `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p <= 0`.
    #[must_use]
    pub fn perturbation(mut self, p: f64) -> Self {
        assert!(p > 0.0, "perturbation must be positive");
        self.config.perturbation = p;
        self
    }

    /// Sets the gradient estimator.
    #[must_use]
    pub fn estimator(mut self, e: GradientEstimator) -> Self {
        self.config.estimator = e;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the hidden-layer sizes of neural controllers.
    #[must_use]
    pub fn nn_hidden(mut self, sizes: Vec<usize>) -> Self {
        self.config.nn_hidden = sizes;
        self
    }

    /// Sets the neural controller's output scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    #[must_use]
    pub fn nn_output_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "output scale must be positive");
        self.config.nn_output_scale = scale;
        self
    }

    /// Sets the NN abstraction.
    #[must_use]
    pub fn abstraction(mut self, a: AbstractionKind) -> Self {
        self.config.abstraction = a;
        self
    }

    /// Sets the flowpipe engine configuration.
    #[must_use]
    pub fn verifier(mut self, v: TaylorReachConfig) -> Self {
        self.config.verifier = v;
        self
    }

    /// Sets the Wasserstein sample-cloud size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn wasserstein_samples(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one sample");
        self.config.wasserstein_samples = n;
        self
    }

    /// Sets the safety-term cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap <= 0`.
    #[must_use]
    pub fn safety_cap(mut self, cap: f64) -> Self {
        assert!(cap > 0.0, "safety cap must be positive");
        self.config.safety_cap = Some(cap);
        self
    }

    /// Sets the verifier-portfolio mode.
    #[must_use]
    pub fn portfolio(mut self, mode: PortfolioMode) -> Self {
        self.config.portfolio = mode;
        self
    }

    /// Sets the cheap-tier decisiveness slack.
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative or non-finite.
    #[must_use]
    pub fn portfolio_slack(mut self, slack: f64) -> Self {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "portfolio slack must be finite and non-negative"
        );
        self.config.portfolio_slack = slack;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> LearnConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = LearnConfig::builder()
            .metric(MetricKind::Wasserstein)
            .max_updates(7)
            .alpha(0.3)
            .beta(0.4)
            .perturbation(0.05)
            .estimator(GradientEstimator::Coordinate)
            .seed(9)
            .nn_hidden(vec![4, 4])
            .nn_output_scale(2.0)
            .abstraction(AbstractionKind::Bernstein { degree: 2 })
            .wasserstein_samples(16)
            .safety_cap(0.5)
            .build();
        assert_eq!(cfg.metric, MetricKind::Wasserstein);
        assert_eq!(cfg.max_updates, 7);
        assert_eq!(cfg.alpha, 0.3);
        assert_eq!(cfg.beta, 0.4);
        assert_eq!(cfg.perturbation, 0.05);
        assert_eq!(cfg.estimator, GradientEstimator::Coordinate);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.nn_hidden, vec![4, 4]);
        assert_eq!(cfg.nn_output_scale, 2.0);
        assert!(matches!(
            cfg.abstraction,
            AbstractionKind::Bernstein { degree: 2 }
        ));
        assert_eq!(cfg.safety_cap, Some(0.5));
        assert_eq!(cfg.wasserstein_samples, 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_alpha_rejected() {
        let _ = LearnConfig::builder().alpha(-1.0);
    }

    #[test]
    fn portfolio_defaults_off_and_builder_sets_surrogate() {
        let cfg = LearnConfig::default();
        assert_eq!(cfg.portfolio, PortfolioMode::Off);
        assert_eq!(cfg.portfolio_slack, 0.0);
        let cfg = LearnConfig::builder()
            .portfolio(PortfolioMode::Surrogate { confirm_every: 8 })
            .portfolio_slack(0.05)
            .build();
        assert_eq!(cfg.portfolio, PortfolioMode::Surrogate { confirm_every: 8 });
        assert_eq!(cfg.portfolio_slack, 0.05);
        assert_eq!(format!("{}", PortfolioMode::Off), "off");
        assert_eq!(
            format!("{}", PortfolioMode::Surrogate { confirm_every: 8 }),
            "surrogate(confirm_every=8)"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_portfolio_slack_rejected() {
        let _ = LearnConfig::builder().portfolio_slack(-0.1);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", MetricKind::Geometric), "G");
        assert_eq!(format!("{}", MetricKind::Wasserstein), "W");
        assert_eq!(format!("{}", AbstractionKind::Polar { order: 2 }), "POLAR");
        assert_eq!(
            format!("{}", AbstractionKind::Bernstein { degree: 3 }),
            "ReachNN"
        );
    }
}
