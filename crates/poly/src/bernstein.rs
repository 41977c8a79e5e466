//! Bernstein forms: tight polynomial range enclosures and Bernstein
// dwv-lint: allow-file(panic-freedom#index) -- tensor offsets derive from counts/strides computed in-function
//! approximation of arbitrary functions.
//!
//! Two uses in the reproduction:
//!
//! * [`range_enclosure`] — the Bernstein coefficients of a polynomial over a
//!   box bound its range (the classical Bernstein enclosure property). This
//!   is the "tight" alternative to naive interval evaluation and one of the
//!   tightness knobs benchmarked for the paper's §4 discussion.
//! * [`approximate`] — degree-`d` Bernstein approximation `B_d(f)` of an
//!   arbitrary continuous function on a box — how the ReachNN verifier
//!   abstracts a neural-network controller (paper §3.1).

use crate::kernels;
use crate::Polynomial;
use dwv_interval::{Interval, IntervalBox};
// dwv-lint: allow(determinism) -- content-keyed lookup-only cache; iteration order is never observed
use std::collections::HashMap;

/// Binomial coefficient `C(n, k)` as `f64`.
///
/// Exact for the small degrees used by Bernstein forms (n ≤ 64 stays within
/// `f64` integer precision). Backed by the memoized Pascal triangle in
/// [`crate::tables`]; kept here as a re-export for existing callers.
#[must_use]
pub fn binomial(n: u32, k: u32) -> f64 {
    crate::tables::binomial(n, k) // dwv-lint: allow(float-hygiene#taint) -- Pascal-triangle additions are exact in f64 up to the packed degree cap; no rounding occurs
}

/// The univariate Bernstein basis polynomial `B_{k,d}(t) = C(d,k) t^k (1-t)^{d-k}`
/// expanded in the power basis (1 variable).
#[must_use]
pub fn basis_polynomial(d: u32, k: u32) -> Polynomial {
    assert!(k <= d, "basis index exceeds degree");
    let mut p = Polynomial::zero(1);
    let c_dk = binomial(d, k); // dwv-lint: allow(float-hygiene#taint) -- Pascal-triangle additions are exact in f64 up to the packed degree cap; no rounding occurs
    for j in 0..=(d - k) {
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        // dwv-lint: allow(float-hygiene) -- exact small-integer binomial products (well under 2^53)
        let coeff = c_dk * binomial(d - k, j) * sign;
        p += Polynomial::monomial(1, vec![k + j], coeff);
    }
    p
}

/// Coefficient of `t^(k+j)` in the Bernstein basis polynomial `B_{k,d}(t)`:
/// `C(d,k)·C(d−k,j)·(−1)^j`, read from the lock-free Pascal table. Row `k`
/// (`j = 0..=d−k`) is what [`approximate_from_values`] spreads a node value
/// with.
///
/// # Panics
///
/// Panics if `k > d` or `j > d − k`.
#[must_use]
pub(crate) fn basis_coefficient(d: u32, k: u32, j: u32) -> f64 {
    assert!(k <= d && j <= d - k, "basis index exceeds degree");
    let sign = if j.is_multiple_of(2) { 1.0 } else { -1.0 };
    // dwv-lint: allow(float-hygiene) -- exact small-integer binomial products (well under 2^53)
    binomial(d, k) * binomial(d - k, j) * sign
}

/// The Bernstein sample nodes `(k_1/d_1, …, k_n/d_n)` of a box, in the same
/// mixed-radix order as the coefficient tensor.
#[must_use]
pub fn nodes(degrees: &[u32], domain: &IntervalBox) -> Vec<Vec<f64>> {
    assert_eq!(degrees.len(), domain.dim(), "degree/domain length mismatch");
    let counts: Vec<usize> = degrees.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    let mut idx = vec![0usize; degrees.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let node = idx.iter().zip(domain.intervals()).zip(degrees);
        out.push(
            node.map(|((&k, iv), &d)| iv.grid_point(k, d as usize))
                .collect(),
        );
        advance(&mut idx, &counts);
    }
    out
}

/// Steps a mixed-radix index (last digit fastest), wrapping to all zeros.
fn advance(idx: &mut [usize], counts: &[usize]) {
    for (d, &c) in idx.iter_mut().zip(counts).rev() {
        *d += 1;
        if *d < c {
            return;
        }
        *d = 0;
    }
}

/// Degree-`degrees` Bernstein approximation of `f` over `domain`, returned as
/// a polynomial *in the original variables*.
///
/// The classical operator `B_d(f)(x) = Σ_k f(node_k) Π_i B_{k_i, d_i}(t_i)`
/// with `t = (x − lo) / width`. The approximation error is `O(ω(f, 1/√d))`
/// (modulus of continuity); the verifier layer bounds it conservatively by
/// dense sampling plus a Lipschitz inflation. `f` is called once per node,
/// in [`nodes`] order; the fit is [`approximate_from_values`].
///
/// # Panics
///
/// Panics if the degree vector length does not match the domain dimension or
/// the domain is unbounded / zero-width in some dimension.
#[must_use]
pub fn approximate<F>(f: F, degrees: &[u32], domain: &IntervalBox) -> Polynomial
where
    F: Fn(&[f64]) -> f64,
{
    let values: Vec<f64> = nodes(degrees, domain).iter().map(|p| f(p)).collect();
    approximate_from_values(&values, degrees, domain)
}

/// One dimension of a [`spread`]: factor `j` lands at exponent `first + j`,
/// offset `(first + j)·stride` in the dense tensor.
struct SpreadDim<'a> {
    first: usize,
    stride: usize,
    factors: &'a [f64],
}

/// Adds `((v·f₀)·f₁)·…` into `out[at + Σ (firstᵢ + jᵢ)·strideᵢ]` for every
/// choice of one factor `fᵢ = factorsᵢ[jᵢ]` per dimension, `j` in
/// lexicographic order.
///
/// A zero factor or a zero partial product is skipped: it is the absent
/// term a sparse product drops, so no `0·∞` ever reaches the tensor, and
/// every slot receives exactly the products, in exactly the order, that a
/// term-list product of the same factors sums (zero slots stand for absent
/// terms: `0 + c = c` for every non-zero `c`, and a sum that cancels to zero
/// is the term a sparse merge removes).
fn spread(out: &mut [f64], v: f64, at: usize, dims: &[SpreadDim<'_>]) {
    let Some((dim, rest)) = dims.split_first() else {
        // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
        out[at] += v;
        return;
    };
    for (j, &f) in dim.factors.iter().enumerate() {
        if f == 0.0 {
            continue;
        }
        // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
        let p = v * f;
        if p != 0.0 {
            spread(out, p, at + (dim.first + j) * dim.stride, rest);
        }
    }
}

/// The power table of `s(y) = a + b·y` up to degree `d`, triangular: the
/// coefficient of `y^m` in `s^e` is at `e(e+1)/2 + m`. Each power is the
/// previous one times `s`, with the `y^m` coefficient summed from the
/// `y^(m−1)·b` product first, then the `y^m·a` product — the order
/// `Polynomial`'s product sums them in — and absent (zero) terms skipped.
fn affine_powers(a: f64, b: f64, d: usize) -> Vec<f64> {
    let mut pows = Vec::with_capacity((d + 1) * (d + 2) / 2);
    pows.push(1.0);
    for e in 1..=d {
        let prev = (e - 1) * e / 2;
        for m in 0..=e {
            let mut c = 0.0;
            if m > 0 && pows[prev + m - 1] != 0.0 && b != 0.0 {
                // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
                c += pows[prev + m - 1] * b;
            }
            if m < e && pows[prev + m] != 0.0 && a != 0.0 {
                // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
                c += pows[prev + m] * a;
            }
            pows.push(c);
        }
    }
    pows
}

/// Degree-`degrees` Bernstein approximation over `domain` from the target
/// function's values at the Bernstein nodes (`values[i]` at node `i` of
/// [`nodes`]), returned in the original variables.
///
/// The fit is dense: each non-zero node value `f` is spread over the
/// coefficient tensor in `t = (x − lo)/width` as `((f·c₀)·c₁)·…` with the
/// basis rows `cᵢ` of [`basis_coefficient`], nodes in order; the affine
/// substitution back to `x` then spreads every present coefficient over the
/// power tables of `t = a + b·x`, coefficients in lexicographic order. These
/// are the products and sums, in the same order, of the term-list
/// construction (node-wise tensor products of univariate basis polynomials,
/// then [`Polynomial::affine_substitution`]), so the result is bit-identical
/// to it without building a polynomial per node.
///
/// # Panics
///
/// Panics if the degree vector length does not match the domain dimension,
/// the domain is unbounded or zero-width in some dimension, or `values` does
/// not hold one value per node.
#[must_use]
pub fn approximate_from_values(
    values: &[f64],
    degrees: &[u32],
    domain: &IntervalBox,
) -> Polynomial {
    assert_eq!(degrees.len(), domain.dim(), "degree/domain length mismatch");
    assert!(domain.is_finite(), "Bernstein domain must be bounded");
    let counts: Vec<usize> = degrees.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    assert_eq!(values.len(), total, "one value per Bernstein node");
    let stride = strides(&counts);
    // Basis rows per dimension, row k at k·(d+1), entries j = 0..=d−k.
    let rows: Vec<Vec<f64>> = degrees
        .iter()
        .map(|&d| {
            (0..=d)
                .flat_map(|k| {
                    (0..=d).map(move |j| {
                        if j <= d - k {
                            basis_coefficient(d, k, j)
                        } else {
                            0.0
                        }
                    })
                })
                .collect()
        })
        .collect();
    // Substitute t_i = (x_i − lo_i) / w_i = a_i + b_i·x_i.
    let pows: Vec<Vec<f64>> = (0..domain.dim())
        .map(|i| {
            let iv = domain.interval(i);
            assert!(
                iv.width() > 0.0,
                "Bernstein domain must have positive widths"
            );
            // dwv-lint: allow(float-hygiene) -- approximation operator, error bounded by sampling + Lipschitz inflation
            affine_powers(-iv.lo() / iv.width(), 1.0 / iv.width(), degrees[i] as usize)
        })
        .collect();
    let mut dims: Vec<SpreadDim<'_>> = Vec::with_capacity(counts.len());
    let mut fit = vec![0.0f64; total];
    let mut idx = vec![0usize; counts.len()];
    for &fv in values {
        if fv != 0.0 {
            dims.clear();
            dims.extend(idx.iter().enumerate().map(|(i, &k)| {
                let width = counts[i];
                SpreadDim {
                    first: k,
                    stride: stride[i],
                    factors: &rows[i][k * width..k * width + width - k],
                }
            }));
            spread(&mut fit, fv, 0, &dims);
        }
        advance(&mut idx, &counts);
    }
    let mut out = vec![0.0f64; total];
    // `idx` has wrapped back to zeros; it now walks the exponents of `fit`.
    for &c in &fit {
        if c != 0.0 {
            dims.clear();
            for (i, &e) in idx.iter().enumerate() {
                if e > 0 {
                    let row = e * (e + 1) / 2;
                    dims.push(SpreadDim {
                        first: 0,
                        stride: stride[i],
                        factors: &pows[i][row..=row + e],
                    });
                }
            }
            spread(&mut out, c, 0, &dims);
        }
        advance(&mut idx, &counts);
    }
    Polynomial::from_dense(&counts, &out)
}

/// Bernstein-form range enclosure of a polynomial over a box.
///
/// Converts the polynomial to Bernstein coefficients over the box; the min
/// and max coefficient bound the range. A small relative inflation (1e-9 of
/// the coefficient magnitude) absorbs rounding in the basis conversion so the
/// result remains a *conservative* enclosure for the magnitudes that occur in
/// the benchmark systems.
///
/// # Panics
///
/// Panics if the domain is unbounded or its dimension mismatches.
#[must_use]
pub fn range_enclosure(p: &Polynomial, domain: &IntervalBox) -> Interval {
    assert_eq!(p.nvars(), domain.dim(), "domain dimension mismatch");
    assert!(domain.is_finite(), "Bernstein domain must be bounded");
    if p.is_zero() {
        return Interval::ZERO;
    }
    let n = p.nvars();
    // Re-express over [0,1]^n: x_i = lo_i + w_i t_i.
    let lo: Vec<f64> = (0..n).map(|i| domain.interval(i).lo()).collect();
    let w: Vec<f64> = (0..n).map(|i| domain.interval(i).width()).collect();
    let q = p.affine_substitution(&lo, &w);
    // Per-dimension degrees of q.
    let mut degs = vec![0u32; n];
    for (exps, _) in q.iter() {
        for (i, &e) in exps.iter().enumerate() {
            degs[i] = degs[i].max(e);
        }
    }
    // Dense power-basis coefficient tensor a[j].
    let counts: Vec<usize> = degs.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    let stride = strides(&counts);
    let mut a = vec![0.0f64; total];
    for (exps, c) in q.iter() {
        let mut off = 0usize;
        for (i, &e) in exps.iter().enumerate() {
            off += e as usize * stride[i];
        }
        // dwv-lint: allow(float-hygiene) -- conversion rounding absorbed by the relative pad below
        a[off] += c;
    }
    // b[k] = Σ_{j ≤ k} Π_i C(k_i, j_i)/C(d_i, j_i) · a[j], computed one
    // dimension at a time (tensor contraction). The tensor is a sequence of
    // `[counts[dim]][stride[dim]]` blocks along `dim`; every output element
    // accumulates its `j` terms in ascending order with one multiply-add
    // (two roundings) each, so the strided `axpy` form below is bit-identical
    // to a per-element gather loop — it only changes the memory access from
    // gathers to contiguous runs the kernels vectorize.
    let mut b = a;
    let mut next = vec![0.0f64; total];
    for dim in 0..n {
        let ratios = crate::tables::bernstein_ratios(degs[dim]); // dwv-lint: allow(float-hygiene#taint) -- elevation ratios k/(d+1) round once at table build; the enclosure pads for it downstream
        let s = stride[dim];
        let cnt = counts[dim];
        next.fill(0.0);
        if s == 1 {
            // Innermost dimension: rows are contiguous; a sequential dot per
            // output beats length-1 axpy calls.
            for ob in (0..total).step_by(cnt) {
                for (k, row) in ratios.iter().enumerate().take(cnt) {
                    let mut acc = 0.0;
                    for (j, &ratio) in row.iter().enumerate() {
                        // dwv-lint: allow(float-hygiene) -- conversion rounding absorbed by the relative pad below
                        acc += ratio * b[ob + j];
                    }
                    next[ob + k] = acc;
                }
            }
        } else {
            for ob in (0..total).step_by(cnt * s) {
                for (k, row) in ratios.iter().enumerate().take(cnt) {
                    // dwv-lint: allow(float-hygiene) -- usize tensor-offset arithmetic
                    let dst_at = ob + k * s;
                    for (j, &ratio) in row.iter().enumerate() {
                        let src_at = ob + j * s;
                        kernels::axpy(&mut next[dst_at..dst_at + s], ratio, &b[src_at..src_at + s]);
                    }
                }
            }
        }
        std::mem::swap(&mut b, &mut next);
    }
    let mut lo_c = f64::INFINITY;
    let mut hi_c = f64::NEG_INFINITY;
    for &c in &b {
        lo_c = lo_c.min(c);
        hi_c = hi_c.max(c);
    }
    // The pad dwarfs double-rounding by ~7 decimal orders, so nearest-mode
    // rounding of the pad arithmetic itself cannot un-cover the true range.
    // dwv-lint: allow(float-hygiene) -- outward pad, magnitude ~1e7 ulps
    let pad = 1e-9 * (lo_c.abs().max(hi_c.abs()).max(1.0));
    // dwv-lint: allow(float-hygiene) -- outward pad, magnitude ~1e7 ulps
    Interval::new(lo_c - pad, hi_c + pad)
}

/// Entries kept in a [`RangeCache`] before it is wholesale cleared; bounds
/// memory for pathological call sites while keeping the steady-state working
/// set (a handful of polynomials per Picard loop / NN layer) fully cached.
const RANGE_CACHE_CAP: usize = 4096;

/// Exact content key for a cached range enclosure: packed monomial keys with
/// coefficient bit patterns, plus domain endpoint bit patterns.
///
/// Keying on full content (not a hash digest) means a cache hit is a true
/// input match, so the cached interval is *the* interval `range_enclosure`
/// would return — bit-identical and therefore exactly as sound.
#[derive(Debug, PartialEq, Eq, Hash)]
struct RangeKey {
    terms: Vec<(u64, u64)>,
    domain: Vec<(u64, u64)>,
}

/// A per-call-site memo of [`range_enclosure`] results.
///
/// The flowpipe Picard/validation loop and the NN-abstraction layer sweep
/// repeatedly enclose the *same* polynomial over the *same* domain (trial
/// remainders perturb only the interval part of a Taylor model, never its
/// polynomial part). Each call site owns one cache and reuses it across
/// iterations; entries never leave the call site, so domains and coefficient
/// distributions stay homogeneous and hit rates high.
#[derive(Debug, Default)]
pub struct RangeCache {
    // dwv-lint: allow(determinism) -- content-keyed lookup-only cache; iteration order is never observed
    map: HashMap<RangeKey, Interval>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Lifetime counters of a [`RangeCache`] (or aggregated over several), as
/// returned by [`RangeCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RangeCacheStats {
    /// Enclosure requests answered from the cache.
    pub hits: u64,
    /// Enclosure requests that had to compute a fresh Bernstein expansion
    /// (uncacheable boxed-representation polynomials count here too).
    pub misses: u64,
    /// Entries dropped by capacity-triggered wholesale clears.
    pub evictions: u64,
}

impl RangeCacheStats {
    /// Fraction of requests served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        // dwv-lint: allow(float-hygiene) -- u64 counter sum
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            // dwv-lint: allow(float-hygiene) -- diagnostic ratio, not a verified bound
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise accumulation, for merging per-call-site caches.
    pub fn merge(&mut self, other: &RangeCacheStats) {
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.hits += other.hits;
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.misses += other.misses;
        // dwv-lint: allow(float-hygiene) -- u64 counters
        self.evictions += other.evictions;
    }
}

impl RangeCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`range_enclosure`] of `p` over the box with the given intervals,
    /// served from the cache when the exact polynomial/domain pair has been
    /// enclosed before. Boxed-representation polynomials (beyond the packed
    /// key limits) bypass the cache.
    ///
    /// # Panics
    ///
    /// Panics if the domain is unbounded or its dimension mismatches.
    pub fn range_enclosure(&mut self, p: &Polynomial, domain: &[Interval]) -> Interval {
        let Some((keys, coeffs)) = p.packed_terms() else {
            self.misses += 1;
            return range_enclosure(p, &IntervalBox::new(domain.to_vec()));
        };
        let key = RangeKey {
            terms: keys
                .iter()
                .zip(coeffs)
                .map(|(&k, &c)| (k, c.to_bits()))
                .collect(),
            domain: domain
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect(),
        };
        if let Some(iv) = self.map.get(&key) {
            self.hits += 1;
            return *iv;
        }
        self.misses += 1;
        let iv = range_enclosure(p, &IntervalBox::new(domain.to_vec()));
        if self.map.len() >= RANGE_CACHE_CAP {
            self.evictions += self.map.len() as u64;
            if dwv_obs::enabled() {
                dwv_obs::event(
                    "poly.range_cache.clear",
                    &[("dropped", self.map.len() as f64)],
                );
            }
            self.map.clear();
        }
        self.map.insert(key, iv);
        iv
    }

    /// Lifetime hit/miss/eviction counters of this cache.
    #[must_use]
    pub fn stats(&self) -> RangeCacheStats {
        RangeCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Number of cached enclosures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

fn strides(counts: &[usize]) -> Vec<usize> {
    // Row-major with the first dimension slowest would complicate the loop;
    // use dimension i stride = product of counts after i.
    let n = counts.len();
    let mut s = vec![1usize; n];
    for i in (0..n.saturating_sub(1)).rev() {
        s[i] = s[i + 1] * counts[i + 1];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 7), 0.0);
        assert_eq!(binomial(20, 10), 184_756.0);
    }

    #[test]
    fn basis_partition_of_unity() {
        // Σ_k B_{k,d}(t) = 1 for all t.
        for d in [1u32, 3, 5] {
            let sum = (0..=d)
                .map(|k| basis_polynomial(d, k))
                .fold(Polynomial::zero(1), |acc, p| acc + p);
            for t in [0.0, 0.3, 0.5, 1.0] {
                assert!((sum.eval(&[t]) - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn basis_coefficients_match_basis_polynomial() {
        // Row k of the dense fit is B_{k,d} in the power basis, bit for bit.
        for d in 0..=8u32 {
            for k in 0..=d {
                let p = basis_polynomial(d, k);
                assert_eq!(p.num_terms() as u32, d - k + 1, "B_{{{k},{d}}} term count");
                for j in 0..=(d - k) {
                    assert_eq!(
                        basis_coefficient(d, k, j).to_bits(),
                        p.coefficient(&[k + j]).to_bits(),
                        "B_{{{k},{d}}} coefficient of t^{}",
                        k + j
                    );
                }
            }
        }
    }

    #[test]
    fn basis_is_nonnegative_on_unit() {
        let p = basis_polynomial(4, 2);
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            assert!(p.eval(&[t]) >= -1e-12);
        }
    }

    #[test]
    fn range_enclosure_contains_samples_and_is_tighter() {
        // p(x) = x^2 - x on [0, 1]: true range [-0.25, 0].
        let x = Polynomial::var(1, 0);
        let p = x.clone() * x.clone() - x;
        let dom = IntervalBox::from_bounds(&[(0.0, 1.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!(enc.contains_value(-0.25));
        assert!(enc.contains_value(0.0));
        // Interval eval gives [-1, 1]; Bernstein must be tighter.
        let naive = p.eval_interval(dom.intervals());
        assert!(enc.width() < naive.width());
        // Bernstein coefficients of x²−x on [0,1] are {0, −1/2, 0}.
        assert!(enc.lo() >= -0.55 && enc.hi() <= 0.05);
    }

    #[test]
    fn range_enclosure_2d() {
        // p(x,y) = x*y on [-1,1]^2: range [-1, 1].
        let p = Polynomial::var(2, 0) * Polynomial::var(2, 1);
        let dom = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!(enc.contains(&dwv_interval::Interval::new(-1.0, 1.0)));
        assert!(enc.width() < 4.5);
    }

    #[test]
    fn range_enclosure_is_exact_for_linear() {
        let p = Polynomial::var(2, 0).scale(2.0) + Polynomial::var(2, 1).scale(-1.0);
        let dom = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 2.0)]);
        let enc = range_enclosure(&p, &dom);
        assert!((enc.lo() - -2.0).abs() < 1e-6);
        assert!((enc.hi() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn approximate_reproduces_polynomials_of_matching_degree() {
        // Bernstein of degree d reproduces affine functions exactly.
        let f = |x: &[f64]| 2.0 * x[0] - x[1] + 0.5;
        let dom = IntervalBox::from_bounds(&[(-1.0, 2.0), (0.0, 1.0)]);
        let b = approximate(f, &[1, 1], &dom);
        for p in dom.grid(5) {
            assert!((b.eval(&p) - f(&p)).abs() < 1e-9, "mismatch at {p:?}");
        }
    }

    #[test]
    fn approximate_converges_with_degree() {
        let f = |x: &[f64]| (x[0]).tanh();
        let dom = IntervalBox::from_bounds(&[(-1.0, 1.0)]);
        let err = |deg: u32| {
            let b = approximate(f, &[deg], &dom);
            dom.grid(41)
                .iter()
                .map(|p| (b.eval(p) - f(p)).abs())
                .fold(0.0f64, f64::max)
        };
        let e2 = err(2);
        let e8 = err(8);
        assert!(e8 < e2, "degree-8 error {e8} not below degree-2 error {e2}");
        assert!(e8 < 0.05);
    }

    #[test]
    fn range_cache_is_bit_identical_to_uncached() {
        let x = Polynomial::var(2, 0);
        let y = Polynomial::var(2, 1);
        let p = x.clone() * x.clone() + y.clone() * y - x.scale(3.0);
        let dom = [
            dwv_interval::Interval::new(-0.5, 0.5),
            dwv_interval::Interval::new(0.25, 0.75),
        ];
        let direct = range_enclosure(&p, &IntervalBox::new(dom.to_vec()));
        let mut cache = RangeCache::new();
        let miss = cache.range_enclosure(&p, &dom);
        assert_eq!(cache.len(), 1);
        let hit = cache.range_enclosure(&p, &dom);
        assert_eq!(cache.len(), 1);
        for iv in [miss, hit] {
            assert_eq!(iv.lo().to_bits(), direct.lo().to_bits());
            assert_eq!(iv.hi().to_bits(), direct.hi().to_bits());
        }
        // A different domain is a different key, not a stale hit.
        let dom2 = [
            dwv_interval::Interval::new(-0.5, 0.5),
            dwv_interval::Interval::new(0.25, 1.0),
        ];
        let other = cache.range_enclosure(&p, &dom2);
        assert_eq!(cache.len(), 2);
        let direct2 = range_enclosure(&p, &IntervalBox::new(dom2.to_vec()));
        assert_eq!(other.lo().to_bits(), direct2.lo().to_bits());
        assert_eq!(other.hi().to_bits(), direct2.hi().to_bits());
    }

    #[test]
    fn nodes_count_and_membership() {
        let dom = IntervalBox::from_bounds(&[(0.0, 1.0), (2.0, 4.0)]);
        let ns = nodes(&[2, 3], &dom);
        assert_eq!(ns.len(), 12);
        for p in &ns {
            assert!(dom.contains_point(p));
        }
        assert!(ns.contains(&vec![0.0, 2.0]));
        assert!(ns.contains(&vec![1.0, 4.0]));
    }
}
