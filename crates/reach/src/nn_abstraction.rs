//! Neural-network output abstractions (paper §3.1).
//!
//! To verify a neural-network controlled system, the network's output over a
//! reach set must be enclosed as `u = κ_θ(x) ∈ G(x) + [−ε, ε]` for a
//! polynomial `G` and remainder `ε` (the paper's Eq. in §3.1). Two
//! abstraction families, mirroring the tools the paper evaluates:
//!
//! * [`TaylorAbstraction`] — POLAR-style: Taylor models are propagated
//!   *through* the layers. Affine layers are exact; smooth activations are
//!   replaced by their truncated Taylor expansion with a Lagrange remainder;
//!   ReLU is handled piecewise (exact on sign-definite ranges, a sound
//!   linear relaxation when the pre-activation range straddles 0).
//! * [`BernsteinAbstraction`] — ReachNN-style: a Bernstein polynomial of the
//!   whole network is fitted on the current state box, with the remainder
//!   estimated by dense sampling and inflated by a Lipschitz term (ReachNN's
//!   sampling-based error bound).

use crate::error::ReachError;
use dwv_dynamics::NnController;
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::{Activation, ForwardScratch};
use dwv_poly::Polynomial;
use dwv_taylor::{TaylorModel, TmVector, TmWorkspace};

/// Sound magnitude bounds for the k-th derivative of tanh on ℝ, k = 0..=5
/// (values slightly rounded up from the analytic extrema).
const TANH_DERIV_BOUNDS: [f64; 6] = [1.0, 1.0, 0.7700, 2.0001, 4.1000, 16.001];

/// Bound on the magnitude of the k-th derivative of an activation over ℝ.
fn activation_derivative_bound(act: Activation, k: usize) -> f64 {
    match act {
        Activation::Identity | Activation::ReLU => 0.0,
        Activation::Tanh => {
            if k < TANH_DERIV_BOUNDS.len() {
                TANH_DERIV_BOUNDS[k] // dwv-lint: allow(panic-freedom#index) -- guarded by the length check above
            } else {
                // tanh(x) = 2σ(2x) − 1 ⇒ |f⁽ᵏ⁾| ≤ 2ᵏ⁺¹·(k!/4) = 2ᵏ⁻¹·k!.
                let mut b = 0.5f64;
                for i in 1..=k {
                    b *= 2.0 * i as f64;
                }
                b
            }
        }
        Activation::Sigmoid => {
            // Crude sound bound |σ⁽ᵏ⁾| ≤ k!/4 for k ≥ 1.
            if k == 0 {
                1.0
            } else {
                let mut b = 0.25f64;
                for i in 2..=k {
                    b *= i as f64;
                }
                b
            }
        }
    }
}

/// An abstraction turning a neural-network controller into Taylor models of
/// its outputs over the current state enclosure.
pub trait NnAbstraction {
    /// A short name for reports ("polar", "bernstein").
    fn name(&self) -> &str;

    /// Encloses `κ_θ(x)` for `x` ranging over the Taylor-model state
    /// enclosure `state` (over `domain`).
    ///
    /// The result is one Taylor model per control input, over the *same*
    /// variables as `state` — so the feedback dependency between state and
    /// input is preserved symbolically.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError`] when the abstraction cannot soundly enclose the
    /// network on the given range.
    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError>;

    /// [`NnAbstraction::abstract_network`] with an explicit workspace, for
    /// callers that propagate many enclosures through the same network (a
    /// reachability loop abstracts the controller once per step). The default
    /// implementation ignores the workspace and delegates.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError`] when the abstraction cannot soundly enclose the
    /// network on the given range.
    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        let _ = ws;
        self.abstract_network(controller, state, domain)
    }
}

/// POLAR-style layer-by-layer Taylor-model propagation.
#[derive(Debug, Clone, Copy)]
pub struct TaylorAbstraction {
    /// Taylor expansion order for smooth activations (and TM truncation
    /// order for products).
    pub order: u32,
    /// Use Bernstein forms for pre-activation range bounding (tighter, the
    /// "symbolic remainder"-flavoured refinement; slower).
    pub bernstein_ranges: bool,
}

impl Default for TaylorAbstraction {
    fn default() -> Self {
        Self {
            order: 2,
            bernstein_ranges: false,
        }
    }
}

impl TaylorAbstraction {
    /// Creates the abstraction with the given expansion order.
    #[must_use]
    pub fn with_order(order: u32) -> Self {
        Self {
            order,
            ..Self::default()
        }
    }

    /// Encloses one activation applied to a pre-activation Taylor model.
    fn activation_model_ws(
        &self,
        act: Activation,
        z: &TaylorModel,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> TaylorModel {
        let range = if self.bernstein_ranges {
            z.range_bernstein_cached(domain, &mut ws.bern)
        } else {
            z.range(domain)
        };
        match act {
            Activation::Identity => z.clone(),
            Activation::ReLU => {
                if range.lo() >= 0.0 {
                    z.clone()
                } else if range.hi() <= 0.0 {
                    TaylorModel::zero(z.nvars())
                } else {
                    // Sound linear relaxation on [l, h] with l < 0 < h:
                    // relu(x) ∈ λx + [0, −λl] for λ = h/(h−l).
                    let (l, h) = (range.lo(), range.hi());
                    let lambda = h / (h - l);
                    z.scale(lambda)
                        .add_interval(Interval::new(0.0, (-lambda * l) * (1.0 + 1e-12)))
                }
            }
            Activation::Tanh | Activation::Sigmoid => {
                let c = range.mid();
                let r = range.rad();
                let order = self.order as usize;
                let coeffs = act.taylor_coefficients(c, order);
                // Lagrange remainder: |R| ≤ B_{K+1} · r^{K+1} / (K+1)!.
                let mut fact = 1.0;
                for i in 1..=(order + 1) {
                    fact *= i as f64;
                }
                let lagrange =
                    activation_derivative_bound(act, order + 1) * r.powi(order as i32 + 1) / fact;
                let dz = z.add_constant(-c);
                let mut acc = TaylorModel::constant(z.nvars(), coeffs[0]); // dwv-lint: allow(panic-freedom#index) -- series coefficients always include the order-0 term
                let mut pw = TaylorModel::constant(z.nvars(), 1.0);
                for &a in coeffs.iter().skip(1) {
                    pw = pw.mul_truncated(&dz, self.order, domain, ws);
                    if a != 0.0 {
                        acc.add_scaled_assign(&pw, a, ws);
                    }
                }
                let out = acc.add_interval(Interval::symmetric(lagrange));
                // Clamp the remainder to the activation's global range — the
                // enclosure can never leave [-1,1] / [0,1].
                clamp_model(out, act, domain)
            }
        }
    }
}

/// Tightens a model's enclosure against the activation's global output range
/// by shrinking the remainder when the polynomial-plus-remainder range
/// escapes it (sound: intersecting with a known superset of the image).
fn clamp_model(tm: TaylorModel, act: Activation, domain: &[Interval]) -> TaylorModel {
    let bound = match act {
        Activation::Tanh => Interval::new(-1.0, 1.0),
        Activation::Sigmoid => Interval::new(0.0, 1.0),
        _ => return tm,
    };
    let range = tm.range(domain);
    if bound.contains(&range) {
        return tm;
    }
    // For every x: f(x) ∈ bound, so f(x) − p(x) ∈ bound − range(p).
    // Intersecting the remainder with that set is sound and tightens the
    // model when the Lagrange remainder overshoots the activation's image.
    let poly_range = range - tm.remainder();
    let allowed = bound - poly_range;
    match tm.remainder().intersection(&allowed) {
        Some(new_rem) => tm.with_remainder(new_rem),
        None => tm,
    }
}

impl NnAbstraction for TaylorAbstraction {
    fn name(&self) -> &str {
        "polar"
    }

    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError> {
        let mut ws = TmWorkspace::new();
        self.abstract_network_ws(controller, state, domain, &mut ws)
    }

    fn abstract_network_ws(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Result<TmVector, ReachError> {
        let net = controller.network();
        if net.in_dim() != state.dim() {
            return Err(ReachError::Unsupported(format!(
                "network expects {} inputs, state enclosure has {}",
                net.in_dim(),
                state.dim()
            )));
        }
        let mut h: Vec<TaylorModel> = if net.layers().is_empty() {
            state.components().to_vec()
        } else {
            Vec::new()
        };
        for (li, layer) in net.layers().iter().enumerate() {
            // The first layer reads the state models directly (no copy).
            let inputs: &[TaylorModel] = if li == 0 { state.components() } else { &h };
            let mut next = Vec::with_capacity(layer.out_dim());
            for o in 0..layer.out_dim() {
                // Affine part is exact in TM arithmetic.
                let mut z = TaylorModel::constant(state.nvars(), layer.bias()[o]); // dwv-lint: allow(panic-freedom#index) -- o ranges over layer.out_dim()
                for (i, hi) in inputs.iter().enumerate() {
                    let w = layer.weight(o, i);
                    if w != 0.0 {
                        z.add_scaled_assign(hi, w, ws);
                    }
                }
                // Huge weights can overflow the affine part; an overflowed
                // model has no interval range to relax the activation on.
                if !z.is_finite() {
                    return Err(ReachError::Unsupported(format!(
                        "layer {li} pre-activation enclosure is not finite"
                    )));
                }
                next.push(self.activation_model_ws(layer.activation(), &z, domain, ws));
            }
            h = next;
        }
        let scale = controller.output_scale();
        Ok(h.into_iter()
            .map(|mut t| {
                t.scale_in_place(scale);
                t
            })
            .collect())
    }
}

/// ReachNN-style Bernstein-fit abstraction.
///
/// The network (as a black-box function) is approximated by a Bernstein
/// polynomial of per-dimension degree [`BernsteinAbstraction::degree`] on the
/// state box; the remainder is estimated on a dense grid and inflated by a
/// Lipschitz term `(L_f + L_g)·h/2` covering the inter-sample gaps, following
/// ReachNN's sampling-based error analysis. A spec needing more than 256
/// nodes (`(degree + 1)ⁿ`) or outside 1–65 536 samples (`samples_per_dimⁿ`)
/// is refused with [`ReachError::Unsupported`].
#[derive(Debug, Clone, Copy)]
pub struct BernsteinAbstraction {
    /// Bernstein degree per state dimension.
    pub degree: u32,
    /// Sample-grid resolution per dimension for the remainder estimate.
    pub samples_per_dim: usize,
    /// Truncation order when composing the fitted polynomial with the state
    /// Taylor models (only relevant for symbolic dependency tracking, where
    /// state models are non-affine).
    pub compose_order: u32,
}

impl Default for BernsteinAbstraction {
    fn default() -> Self {
        Self {
            degree: 3,
            samples_per_dim: 9,
            compose_order: 8,
        }
    }
}

impl BernsteinAbstraction {
    /// Creates the abstraction with the given per-dimension degree.
    #[must_use]
    pub fn with_degree(degree: u32) -> Self {
        Self {
            degree,
            ..Self::default()
        }
    }
}

/// Most Bernstein nodes, `(degree + 1)ⁿ`, one fit may use. Since
/// `(d + 1)ⁿ ≥ 1 + n·d`, every fit within the cap has total degree at most
/// [`dwv_poly::PACK_MAX_EXP`]. The ReachNN settings in use need 9 (degree 2
/// on Van der Pol) to 64 (the default degree 3 in 3-D).
const MAX_FIT_NODES: usize = 256;

/// Most remainder samples, `samples_per_dimⁿ`, one abstraction may take
/// (the default 9 per dimension takes 729 in 3-D).
const MAX_SAMPLES: usize = 1 << 16;

/// `per_dimⁿ` when it fits within `cap`.
fn grid_count(per_dim: usize, n: usize, cap: usize) -> Option<usize> {
    u32::try_from(n)
        .ok()
        .and_then(|n| per_dim.checked_pow(n))
        .filter(|&c| c <= cap)
}

/// Steps a mixed-radix grid index (last digit fastest), wrapping to zeros,
/// and returns the first digit that changed.
fn advance(idx: &mut [usize], per_dim: usize) -> usize {
    for (at, d) in idx.iter_mut().enumerate().rev() {
        *d += 1;
        if *d < per_dim {
            return at;
        }
        *d = 0;
    }
    0
}

/// The network on a unit grid walked by index: the forward pass at
/// `x = c + r·y` for `y = (coords[idx₀], coords[idx₁], …)`, through reused
/// buffers.
struct GridForward<'a> {
    net: &'a dwv_nn::Network,
    centers: &'a [f64],
    radii: &'a [f64],
    x: Vec<f64>,
    scratch: ForwardScratch,
}

impl GridForward<'_> {
    fn eval(&mut self, coords: &[f64], idx: &[usize]) -> &[f64] {
        let points = self.centers.iter().zip(self.radii).zip(idx);
        for (xi, ((&c, &r), &k)) in self.x.iter_mut().zip(points) {
            *xi = c + r * coords[k]; // dwv-lint: allow(panic-freedom#index) -- grid indices range over coords
        }
        self.net.forward_into(&self.x, &mut self.scratch)
    }
}

/// One fitted polynomial's terms, laid out for evaluation along a grid walk.
/// A term's value is `((c·p₀)·p₁)·…` over the variables that occur, `pᵢ`
/// the power of sample coordinate `i` — the products `Polynomial::eval`
/// takes — and each term keeps its running products, so a step that moves
/// only the trailing coordinates redoes only their multiplications.
struct GridTerms {
    /// `n + 1` cells per term, in storage order: `(0, c)`, then for each
    /// variable `i` its exponent and the running product after it.
    cells: Vec<(usize, f64)>,
    width: usize,
}

impl GridTerms {
    fn new(g: &Polynomial) -> Self {
        let width = g.nvars() + 1;
        let mut cells = Vec::with_capacity(g.num_terms() * width);
        for (exps, c) in g.iter() {
            cells.push((0, c));
            cells.extend(exps.iter().map(|&e| (e as usize, c)));
        }
        Self { cells, width }
    }

    /// The polynomial at the sample whose coordinate-`i` powers start at
    /// `powers[bases[i]]`, the terms summed in order as `Polynomial::eval`
    /// sums them. Running products are recomputed from variable `from` on;
    /// the coordinates before it must not have moved since the last call.
    fn value(&mut self, from: usize, bases: &[usize], powers: &[f64]) -> f64 {
        self.cells
            .chunks_exact_mut(self.width)
            .map(|row| {
                let mut m = row.get(from).map_or(0.0, |&(_, p)| p);
                let cells = row.iter_mut().skip(from + 1);
                for ((e, p), &base) in cells.zip(bases.iter().skip(from)) {
                    if *e > 0 {
                        m *= powers[base + *e]; // dwv-lint: allow(panic-freedom#index) -- bases index sample coordinates, e <= degree
                    }
                    *p = m;
                }
                m
            })
            .sum()
    }
}

impl NnAbstraction for BernsteinAbstraction {
    fn name(&self) -> &str {
        "bernstein"
    }

    fn abstract_network(
        &self,
        controller: &NnController,
        state: &TmVector,
        domain: &[Interval],
    ) -> Result<TmVector, ReachError> {
        let net = controller.network();
        if net.in_dim() != state.dim() {
            return Err(ReachError::Unsupported(format!(
                "network expects {} inputs, state enclosure has {}",
                net.in_dim(),
                state.dim()
            )));
        }
        let n = state.dim();
        let per_dim = (self.degree as usize).saturating_add(1);
        let Some(n_nodes) = grid_count(per_dim, n, MAX_FIT_NODES) else {
            return Err(ReachError::Unsupported(format!(
                "a degree-{} Bernstein fit in {n} dimensions needs more than {MAX_FIT_NODES} nodes",
                self.degree
            )));
        };
        let samples = self.samples_per_dim;
        let n_samples = match grid_count(samples, n, MAX_SAMPLES) {
            Some(c) if samples > 0 => c,
            _ => {
                return Err(ReachError::Unsupported(format!(
                    "{samples} remainder samples per dimension in {n} dimensions is outside 1..={MAX_SAMPLES} samples"
                )))
            }
        };
        let bx = state.range_box(domain);
        // Guard against degenerate boxes (Bernstein needs positive widths).
        let bx = ensure_positive_widths(&bx);
        let scale = controller.output_scale();
        // Fit in *normalized* coordinates y = (x − c)/r ∈ [−1, 1]ⁿ: fitting
        // in original coordinates over a tiny reach box produces power-basis
        // coefficients of magnitude (1/width)^degree whose cancellation
        // destroys all precision.
        let centers: Vec<f64> = bx.center();
        let radii: Vec<f64> = bx.radii();
        let side = Interval::new(-1.0, 1.0);
        let unit = IntervalBox::new(vec![side; n]);
        // Normalized state models y_i = (x_i − c_i)/r_i over the original
        // variables: the composition arguments.
        let y_models: Vec<TaylorModel> = state
            .components()
            .iter()
            .enumerate()
            .map(|(i, x)| x.add_constant(-centers[i]).scale(1.0 / radii[i])) // dwv-lint: allow(panic-freedom#index) -- i enumerates the state dimension
            .collect();
        let lip_f = local_lipschitz_bound(net, &bx, &mut LipschitzScratch::default())
            * scale.abs()
            * radii.iter().fold(0.0f64, |m, &r| m.max(r));
        let mut net_at = GridForward {
            net,
            centers: &centers,
            radii: &radii,
            x: vec![0.0; n],
            scratch: ForwardScratch::default(),
        };
        let out_dim = net.out_dim();
        let mut idx = vec![0usize; n];
        // Scaled node values per output, in node order.
        let node_coords: Vec<f64> = (0..per_dim)
            .map(|k| side.grid_point(k, self.degree as usize))
            .collect();
        let mut values: Vec<Vec<f64>> = (0..out_dim).map(|_| Vec::with_capacity(n_nodes)).collect();
        for _ in 0..n_nodes {
            for (vals, &v) in values.iter_mut().zip(net_at.eval(&node_coords, &idx)) {
                vals.push(v * scale);
            }
            advance(&mut idx, per_dim);
        }
        let degrees = vec![self.degree; n];
        let fits: Vec<Polynomial> = values
            .iter()
            .map(|v| dwv_poly::bernstein::approximate_from_values(v, &degrees, &unit))
            .collect();
        // Sampled remainder |f − g| on the unit grid, g evaluated term by
        // term from per-coordinate power tables (powers[k·per_dim + e] is
        // grid[k]^e).
        let grid: Vec<f64> = (0..samples)
            .map(|k| side.grid_point(k, samples - 1))
            .collect();
        let powers: Vec<f64> = grid
            .iter()
            .flat_map(|&y| (0..per_dim).map(move |e| y.powi(e as i32)))
            .collect();
        let mut terms: Vec<GridTerms> = fits.iter().map(GridTerms::new).collect();
        let mut bases = vec![0usize; n];
        let mut eps = vec![0.0f64; out_dim];
        let mut samples_finite = vec![true; out_dim];
        let mut from = 0;
        for _ in 0..n_samples {
            let y = net_at.eval(&grid, &idx);
            for (base, &k) in bases.iter_mut().zip(&idx).skip(from) {
                *base = k * per_dim;
            }
            let per_output = terms
                .iter_mut()
                .zip(eps.iter_mut().zip(&mut samples_finite));
            for (&fo, (g, (eps, finite))) in y.iter().zip(per_output) {
                let gap = (fo * scale - g.value(from, &bases, &powers)).abs();
                *finite &= gap.is_finite();
                *eps = eps.max(gap);
            }
            from = advance(&mut idx, samples);
        }
        let grid_h = 2.0 / (samples.max(2) - 1) as f64;
        let mut out = Vec::with_capacity(out_dim);
        for ((o, g), (eps, finite)) in fits
            .into_iter()
            .enumerate()
            .zip(eps.into_iter().zip(samples_finite))
        {
            // Lipschitz inflation over grid gaps.
            let lip_g = gradient_bound(&g, &unit);
            let eps = eps + 0.5 * (lip_f + lip_g) * grid_h * (n as f64).sqrt();
            // Huge weights or scales overflow the network's outputs: a fit
            // with a non-finite sample gap, coefficient or error bound
            // encloses nothing.
            if !(finite && eps.is_finite() && g.is_finite()) {
                return Err(ReachError::Unsupported(format!(
                    "the Bernstein fit of network output {o} is not finite"
                )));
            }
            let g_tm = TaylorModel::new(g, Interval::symmetric(eps));
            out.push(g_tm.compose(&y_models, self.compose_order, domain));
        }
        Ok(TmVector::new(out))
    }
}

/// Interval buffers for [`local_lipschitz_bound`]: the running Jacobian and
/// unit ranges, and their next-layer counterparts.
#[derive(Default)]
struct LipschitzScratch {
    jac: Vec<Interval>,
    next_jac: Vec<Interval>,
    h: Vec<Interval>,
    next_h: Vec<Interval>,
}

/// A bound on the network's local Lipschitz constant over a box, via an
/// interval Jacobian: activation-derivative ranges are chained through the
/// layers with interval matrix products. Far tighter than the global
/// product-of-norms bound on small boxes (ReLU units that are provably
/// inactive contribute zero), which is what makes the sampled Bernstein
/// remainder usable on the 3-D benchmark. Allocates nothing once `scratch`
/// has grown to the widest layer.
fn local_lipschitz_bound(
    net: &dwv_nn::Network,
    bx: &IntervalBox,
    scratch: &mut LipschitzScratch,
) -> f64 {
    let n = bx.dim();
    let LipschitzScratch {
        jac,
        next_jac,
        h,
        next_h,
    } = scratch;
    // Running interval Jacobian, row-major (rows: current layer units,
    // cols: inputs).
    jac.clear();
    jac.extend((0..n).flat_map(|i| {
        (0..n).map(move |j| {
            if i == j {
                Interval::ONE
            } else {
                Interval::ZERO
            }
        })
    }));
    h.clear();
    h.extend_from_slice(bx.intervals());
    for layer in net.layers() {
        next_jac.clear();
        next_h.clear();
        for o in 0..layer.out_dim() {
            // Pre-activation range z_o = Σ w h + b.
            let mut z = Interval::point(layer.bias()[o]); // dwv-lint: allow(panic-freedom#index) -- o ranges over layer.out_dim()
            for (k, hk) in h.iter().enumerate() {
                z += *hk * layer.weight(o, k);
            }
            let dz = activation_derivative_range(layer.activation(), z);
            for i in 0..n {
                let mut acc = Interval::ZERO;
                for (k, jrow) in jac.chunks_exact(n).enumerate() {
                    acc += jrow[i] * layer.weight(o, k); // dwv-lint: allow(panic-freedom#index) -- Jacobian rows are n-wide by construction
                }
                next_jac.push(acc * dz);
            }
            next_h.push(activation_range(layer.activation(), z));
        }
        std::mem::swap(jac, next_jac);
        std::mem::swap(h, next_h);
    }
    jac.chunks(n.max(1))
        .map(|row| row.iter().map(|iv| iv.mag().powi(2)).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

/// Range of an activation over a pre-activation interval.
fn activation_range(act: Activation, z: Interval) -> Interval {
    match act {
        Activation::Identity => z,
        Activation::ReLU => z.relu(),
        Activation::Tanh => z.tanh(),
        Activation::Sigmoid => z.sigmoid(),
    }
}

/// Range of an activation's derivative over a pre-activation interval.
fn activation_derivative_range(act: Activation, z: Interval) -> Interval {
    match act {
        Activation::Identity => Interval::ONE,
        Activation::ReLU => {
            if z.lo() > 0.0 {
                Interval::ONE
            } else if z.hi() <= 0.0 {
                Interval::ZERO
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        Activation::Tanh => {
            // σ' = 1 − tanh²(z), decreasing in |z|.
            let t = z.abs().mig();
            let hi = 1.0 - t.tanh().powi(2);
            let m = z.mag();
            let lo = 1.0 - m.tanh().powi(2);
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(1.0))
        }
        Activation::Sigmoid => {
            // σ' = σ(1−σ) ≤ 1/4, decreasing in |z|.
            let s = |x: f64| 1.0 / (1.0 + (-x).exp());
            let t = z.abs().mig();
            let hi = s(t) * (1.0 - s(t));
            let m = z.mag();
            let lo = s(m) * (1.0 - s(m));
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(0.25))
        }
    }
}

/// A bound on `‖∇g‖₂` over the box via interval evaluation of the partials.
fn gradient_bound(g: &Polynomial, bx: &IntervalBox) -> f64 {
    (0..g.nvars())
        .map(|i| {
            let d = g.partial_derivative(i);
            d.eval_interval(bx.intervals()).mag().powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// Inflates zero-width dimensions so the Bernstein machinery has a valid
/// domain.
fn ensure_positive_widths(b: &IntervalBox) -> IntervalBox {
    let dims = b
        .intervals()
        .iter()
        .map(|iv| {
            if iv.width() > 0.0 {
                *iv
            } else {
                iv.inflate(1e-9)
            }
        })
        .collect();
    IntervalBox::new(dims)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dwv_nn::Network;
    use dwv_taylor::unit_domain;

    fn small_net(seed: u64) -> NnController {
        NnController::new(Network::new(
            &[2, 6, 1],
            Activation::ReLU,
            Activation::Tanh,
            seed,
        ))
    }

    /// Checks that the abstraction's enclosure contains the true network
    /// output on a dense grid of concrete states.
    fn assert_sound<A: NnAbstraction>(abs: &A, ctrl: &NnController, bx: &IntervalBox) {
        let state = TmVector::from_box(bx);
        let dom = unit_domain(bx.dim());
        let u = abs
            .abstract_network(ctrl, &state, &dom)
            .expect("abstraction succeeds");
        // Evaluate at normalized grid points a; map to concrete x.
        let grid = IntervalBox::from_bounds(&vec![(-1.0, 1.0); bx.dim()]).grid(7);
        for a in grid {
            let x: Vec<f64> = (0..bx.dim())
                .map(|i| bx.interval(i).mid() + bx.interval(i).rad() * a[i])
                .collect();
            let truth = ctrl.network().forward(&x)[0] * ctrl.output_scale();
            let enc = u.component(0).eval(&a);
            assert!(
                enc.inflate(1e-9).contains_value(truth),
                "{} misses truth {truth} at x={x:?} (enc {enc})",
                abs.name()
            );
        }
    }

    #[test]
    fn taylor_abstraction_sound_on_relu_tanh_net() {
        let ctrl = small_net(11);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        assert_sound(&TaylorAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn taylor_abstraction_sound_on_wider_box() {
        let ctrl = small_net(13);
        let bx = IntervalBox::from_bounds(&[(-1.0, 0.0), (0.0, 1.0)]);
        assert_sound(&TaylorAbstraction::with_order(3), &ctrl, &bx);
    }

    #[test]
    fn bernstein_abstraction_sound() {
        let ctrl = small_net(17);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        assert_sound(&BernsteinAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn bernstein_abstraction_sound_with_scale() {
        let ctrl = NnController::with_output_scale(
            Network::new(&[2, 5, 1], Activation::ReLU, Activation::Tanh, 3),
            10.0,
        );
        let bx = IntervalBox::from_bounds(&[(0.2, 0.4), (-0.1, 0.1)]);
        assert_sound(&BernsteinAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn taylor_tighter_than_trivial_bound() {
        // The enclosure width should be far below the trivial ±scale bound
        // on small boxes.
        let ctrl = small_net(19);
        let bx = IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]);
        let state = TmVector::from_box(&bx);
        let dom = unit_domain(2);
        let u = TaylorAbstraction::default()
            .abstract_network(&ctrl, &state, &dom)
            .unwrap();
        let w = u.component(0).range(&dom).width();
        assert!(w < 0.5, "enclosure width {w} not tight");
    }

    #[test]
    fn relu_straddling_relaxation_sound() {
        // A 1-layer net engineered so the pre-activation straddles zero.
        let layer = dwv_nn::Layer::from_params(1, 1, vec![1.0], vec![0.0], Activation::ReLU);
        let out = dwv_nn::Layer::from_params(1, 1, vec![1.0], vec![0.0], Activation::Identity);
        let ctrl = NnController::new(Network::from_layers(vec![layer, out]));
        let bx = IntervalBox::from_bounds(&[(-1.0, 2.0)]);
        assert_sound(&TaylorAbstraction::default(), &ctrl, &bx);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let ctrl = small_net(1);
        let state = TmVector::from_box(&IntervalBox::from_bounds(&[(0.0, 1.0)]));
        let res = TaylorAbstraction::default().abstract_network(&ctrl, &state, &unit_domain(1));
        assert!(matches!(res, Err(ReachError::Unsupported(_))));
    }

    /// Named specs whose 2-D node or sample count is zero, overflows
    /// `usize` or exceeds its cap.
    pub(crate) fn oversized_specs() -> Vec<(&'static str, BernsteinAbstraction)> {
        let base = BernsteinAbstraction::default();
        vec![
            (
                "zero samples",
                BernsteinAbstraction {
                    samples_per_dim: 0,
                    ..base
                },
            ),
            (
                "node count overflows",
                BernsteinAbstraction {
                    degree: u32::MAX,
                    ..base
                },
            ),
            (
                "sample count overflows",
                BernsteinAbstraction {
                    samples_per_dim: usize::MAX,
                    ..base
                },
            ),
            (
                "nodes over the cap",
                BernsteinAbstraction { degree: 16, ..base },
            ),
            (
                "samples over the cap",
                BernsteinAbstraction {
                    samples_per_dim: 257,
                    ..base
                },
            ),
        ]
    }

    #[test]
    fn oversized_or_degenerate_bernstein_specs_are_unsupported() {
        // 2-D: 17² = 289 nodes and 257² = 66049 samples exceed the caps;
        // (2³²)² and usize::MAX² overflow.
        let ctrl = small_net(5);
        let state = TmVector::from_box(&IntervalBox::from_bounds(&[(0.1, 0.2), (0.3, 0.4)]));
        for (name, abs) in oversized_specs() {
            let res = abs.abstract_network(&ctrl, &state, &unit_domain(2));
            assert!(
                matches!(res, Err(ReachError::Unsupported(_))),
                "{name}: {res:?}"
            );
        }
        // Right at the caps the abstraction still runs: 16² nodes, 256²
        // samples.
        let base = BernsteinAbstraction::default();
        for at_cap in [
            BernsteinAbstraction { degree: 15, ..base },
            BernsteinAbstraction {
                degree: 1,
                samples_per_dim: 256,
                ..base
            },
        ] {
            assert!(at_cap
                .abstract_network(&ctrl, &state, &unit_domain(2))
                .is_ok());
        }
    }

    #[test]
    fn derivative_bounds_monotone_fallback() {
        // Fallback formula kicks in beyond the table.
        let b6 = activation_derivative_bound(Activation::Tanh, 6);
        assert!(b6 > TANH_DERIV_BOUNDS[5]);
        assert_eq!(activation_derivative_bound(Activation::ReLU, 3), 0.0);
    }
}
