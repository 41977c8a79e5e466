//! The ReachNN abstraction against a term-list reference, bit for bit.
//!
//! `BernsteinAbstraction` fits the network on a dense coefficient tensor,
//! walks its sample grids by index and evaluates the network through
//! reused buffers. This file keeps the straightforward construction as the
//! oracle: a closure-based Bernstein fit that multiplies lifted univariate
//! basis `Polynomial`s node by node and then runs
//! `Polynomial::affine_substitution`, `Vec`-returning layer-by-layer forward
//! passes, a materialised sample grid, `Polynomial::eval`, and a
//! `Vec<Vec<Interval>>` Lipschitz Jacobian. Both must produce the same
//! output models — every coefficient and remainder bit — or the same error,
//! over random ReLU/tanh/sigmoid/identity networks, 1-D to 3-D boxes (tiny
//! and zero-width ones included), degrees 0–4, 1–9 samples per dimension
//! and sign-flipped, large and overflowing output scales. The dense fit
//! behind the abstraction is also checked on its own, through
//! `dwv_poly::bernstein::approximate`, on general boxes where the change of
//! variables is inexact.

use dwv_dynamics::NnController;
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::{Activation, Layer, Network};
use dwv_poly::bernstein::basis_polynomial;
use dwv_poly::Polynomial;
use dwv_reach::{BernsteinAbstraction, NnAbstraction, ReachError};
use dwv_taylor::{unit_domain, TaylorModel, TmVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The oracle: the term-list construction.
// ---------------------------------------------------------------------------

fn oracle_forward(net: &Network, x: &[f64]) -> Vec<f64> {
    let mut h = x.to_vec();
    for layer in net.layers() {
        h = layer.forward(&h).0;
    }
    h
}

fn oracle_grid(b: &IntervalBox, per_dim: usize) -> Vec<Vec<f64>> {
    let n = b.dim();
    let total = per_dim.pow(n as u32);
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; n];
    for _ in 0..total {
        let p = b
            .intervals()
            .iter()
            .enumerate()
            .map(|(d, iv)| {
                if per_dim == 1 {
                    iv.mid()
                } else {
                    iv.lo() + iv.width() * idx[d] as f64 / (per_dim - 1) as f64
                }
            })
            .collect();
        out.push(p);
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < per_dim {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

fn oracle_nodes(degrees: &[u32], domain: &IntervalBox) -> Vec<Vec<f64>> {
    let counts: Vec<usize> = degrees.iter().map(|&d| d as usize + 1).collect();
    let total: usize = counts.iter().product();
    let mut idx = vec![0usize; degrees.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let p: Vec<f64> = idx
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let iv = domain.interval(i);
                if degrees[i] == 0 {
                    iv.mid()
                } else {
                    iv.lo() + iv.width() * k as f64 / degrees[i] as f64
                }
            })
            .collect();
        out.push(p);
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

fn oracle_approximate<F: Fn(&[f64]) -> f64>(
    f: F,
    degrees: &[u32],
    domain: &IntervalBox,
) -> Polynomial {
    let n = domain.dim();
    let mut acc = Polynomial::zero(n);
    let counts: Vec<usize> = degrees.iter().map(|&d| d as usize + 1).collect();
    let mut idx = vec![0usize; n];
    let bases: Vec<Vec<Polynomial>> = degrees
        .iter()
        .map(|&d| (0..=d).map(|k| basis_polynomial(d, k)).collect())
        .collect();
    for node in oracle_nodes(degrees, domain) {
        let fv = f(&node);
        if fv != 0.0 {
            let mut term = Polynomial::constant(n, fv);
            for (dim, &k) in idx.iter().enumerate() {
                let mut lifted = Polynomial::zero(n);
                for (exps, c) in bases[dim][k].iter() {
                    let mut e = vec![0u32; n];
                    e[dim] = exps[0];
                    lifted += Polynomial::monomial(n, e, c);
                }
                term = term * lifted;
            }
            acc += term;
        }
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < counts[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    let a: Vec<f64> = (0..n)
        .map(|i| -domain.interval(i).lo() / domain.interval(i).width())
        .collect();
    let b: Vec<f64> = (0..n).map(|i| 1.0 / domain.interval(i).width()).collect();
    acc.affine_substitution(&a, &b)
}

fn oracle_activation_range(act: Activation, z: Interval) -> Interval {
    match act {
        Activation::Identity => z,
        Activation::ReLU => z.relu(),
        Activation::Tanh => z.tanh(),
        Activation::Sigmoid => z.sigmoid(),
    }
}

fn oracle_activation_derivative_range(act: Activation, z: Interval) -> Interval {
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
            let t = z.abs().mig();
            let hi = 1.0 - t.tanh().powi(2);
            let m = z.mag();
            let lo = 1.0 - m.tanh().powi(2);
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(1.0))
        }
        Activation::Sigmoid => {
            let s = |x: f64| 1.0 / (1.0 + (-x).exp());
            let t = z.abs().mig();
            let hi = s(t) * (1.0 - s(t));
            let m = z.mag();
            let lo = s(m) * (1.0 - s(m));
            Interval::new((lo - 1e-12).max(0.0), (hi + 1e-12).min(0.25))
        }
    }
}

fn oracle_lipschitz(net: &Network, bx: &IntervalBox) -> f64 {
    let n = bx.dim();
    let mut jac: Vec<Vec<Interval>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        Interval::ONE
                    } else {
                        Interval::ZERO
                    }
                })
                .collect()
        })
        .collect();
    let mut h: Vec<Interval> = bx.intervals().to_vec();
    for layer in net.layers() {
        let mut new_jac = Vec::with_capacity(layer.out_dim());
        let mut new_h = Vec::with_capacity(layer.out_dim());
        for o in 0..layer.out_dim() {
            let mut z = Interval::point(layer.bias()[o]);
            for (k, hk) in h.iter().enumerate() {
                z += *hk * layer.weight(o, k);
            }
            let dz = oracle_activation_derivative_range(layer.activation(), z);
            let row: Vec<Interval> = (0..n)
                .map(|i| {
                    let mut acc = Interval::ZERO;
                    for (k, jrow) in jac.iter().enumerate() {
                        acc += jrow[i] * layer.weight(o, k);
                    }
                    acc * dz
                })
                .collect();
            new_jac.push(row);
            new_h.push(oracle_activation_range(layer.activation(), z));
        }
        jac = new_jac;
        h = new_h;
    }
    jac.iter()
        .map(|row| row.iter().map(|iv| iv.mag().powi(2)).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

fn oracle_gradient_bound(g: &Polynomial, bx: &IntervalBox) -> f64 {
    (0..g.nvars())
        .map(|i| {
            let d = g.partial_derivative(i);
            d.eval_interval(bx.intervals()).mag().powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

fn oracle_positive_widths(b: &IntervalBox) -> IntervalBox {
    IntervalBox::new(
        b.intervals()
            .iter()
            .map(|iv| {
                if iv.width() > 0.0 {
                    *iv
                } else {
                    iv.inflate(1e-9)
                }
            })
            .collect(),
    )
}

fn oracle_abstract(
    abs: &BernsteinAbstraction,
    controller: &NnController,
    state: &TmVector,
    domain: &[Interval],
) -> Result<TmVector, ReachError> {
    let net = controller.network();
    let bx = oracle_positive_widths(&state.range_box(domain));
    let n = bx.dim();
    let scale = controller.output_scale();
    let centers = bx.center();
    let radii = bx.radii();
    let unit = IntervalBox::from_bounds(&vec![(-1.0, 1.0); n]);
    let denorm = |y: &[f64]| -> Vec<f64> {
        y.iter()
            .enumerate()
            .map(|(i, &v)| centers[i] + radii[i] * v)
            .collect()
    };
    let y_models: Vec<TaylorModel> = state
        .components()
        .iter()
        .enumerate()
        .map(|(i, x)| x.add_constant(-centers[i]).scale(1.0 / radii[i]))
        .collect();
    let lip_f =
        oracle_lipschitz(net, &bx) * scale.abs() * radii.iter().fold(0.0f64, |m, &r| m.max(r));
    let mut out = Vec::with_capacity(net.out_dim());
    for o in 0..net.out_dim() {
        let f = |y: &[f64]| oracle_forward(net, &denorm(y))[o] * scale;
        let g = oracle_approximate(f, &vec![abs.degree; n], &unit);
        let mut eps = 0.0f64;
        let mut samples_finite = true;
        for p in oracle_grid(&unit, abs.samples_per_dim) {
            let gap = (f(&p) - g.eval(&p)).abs();
            samples_finite &= gap.is_finite();
            eps = eps.max(gap);
        }
        let grid_h = 2.0 / (abs.samples_per_dim.max(2) - 1) as f64;
        let lip_g = oracle_gradient_bound(&g, &unit);
        eps += 0.5 * (lip_f + lip_g) * grid_h * (n as f64).sqrt();
        if !(samples_finite && eps.is_finite() && g.is_finite()) {
            return Err(ReachError::Unsupported(format!(
                "the Bernstein fit of network output {o} is not finite"
            )));
        }
        let g_tm = TaylorModel::new(g, Interval::symmetric(eps));
        out.push(g_tm.compose(&y_models, abs.compose_order, domain));
    }
    Ok(TmVector::new(out))
}

// ---------------------------------------------------------------------------
// Case generation and comparison.
// ---------------------------------------------------------------------------

const ACTIVATIONS: [Activation; 4] = [
    Activation::ReLU,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

fn random_network(rng: &mut StdRng, n: usize) -> Network {
    let hidden = rng.gen_range(0..=2usize);
    let mut sizes = vec![n];
    sizes.extend((0..hidden).map(|_| rng.gen_range(1..=6usize)));
    sizes.push(rng.gen_range(1..=2usize));
    let hidden_act = ACTIVATIONS[rng.gen_range(0..4usize)];
    let out_act = ACTIVATIONS[rng.gen_range(0..4usize)];
    let mut net = Network::new(&sizes, hidden_act, out_act, rng.gen());
    // Non-zero biases and a spread of weight magnitudes.
    let weight_scale = [0.5, 1.0, 3.0][rng.gen_range(0..3usize)];
    let theta: Vec<f64> = net
        .params()
        .iter()
        .map(|&w| {
            if rng.gen_range(0..8usize) == 0 {
                0.0
            } else {
                w * weight_scale + rng.gen_range(-0.3..=0.3)
            }
        })
        .collect();
    net.set_params(&theta);
    net
}

fn random_box(rng: &mut StdRng, n: usize) -> IntervalBox {
    IntervalBox::from_bounds(
        &(0..n)
            .map(|_| {
                let c = rng.gen_range(-1.5..=1.5);
                let w = match rng.gen_range(0..6usize) {
                    0 => 0.0,
                    1 => 1e-12,
                    2 => 1e-6,
                    3 => 0.02,
                    4 => 0.3,
                    _ => 2.0,
                };
                (c - w / 2.0, c + w / 2.0)
            })
            .collect::<Vec<_>>(),
    )
}

/// An affine box state or, every other case, one bent by a product of
/// components (the symbolic-dependency case, where composition matters).
fn random_state(rng: &mut StdRng, bx: &IntervalBox) -> TmVector {
    let state = TmVector::from_box(bx);
    if bx.dim() < 2 || rng.gen_range(0..2usize) == 0 {
        return state;
    }
    let dom = unit_domain(bx.dim());
    let c = state.components();
    let bent = c
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let other = &c[(i + 1) % c.len()];
            t.add(&t.mul(other, 4, &dom).scale(0.05))
        })
        .collect();
    TmVector::new(bent)
}

fn random_scale(rng: &mut StdRng) -> f64 {
    [1.0, 2.5, 7.0, 1e3, 1e6, 1e300][rng.gen_range(0..6usize)]
}

/// `NnController` only takes positive scales; a negative one is the same
/// map as a positive scale on a network whose outputs are negated, which
/// for an identity output layer is negating its weights and biases.
fn maybe_negate_outputs(rng: &mut StdRng, net: Network) -> Network {
    let mut layers = net.layers().to_vec();
    let last = layers.len() - 1;
    let out = &layers[last];
    if out.activation() != Activation::Identity || rng.gen_range(0..2usize) == 0 {
        return net;
    }
    let weights = out.weights().iter().map(|w| -w).collect();
    let bias = out.bias().iter().map(|b| -b).collect();
    layers[last] = Layer::from_params(
        out.in_dim(),
        out.out_dim(),
        weights,
        bias,
        Activation::Identity,
    );
    Network::from_layers(layers)
}

/// Every exponent, coefficient bit pattern and remainder endpoint bit
/// pattern of a model, in term order.
fn model_bits(tm: &TaylorModel) -> Vec<u64> {
    let mut words = Vec::new();
    for (e, c) in tm.poly().iter() {
        words.extend(e.iter().map(|&e| u64::from(e)));
        words.push(c.to_bits());
    }
    let r = tm.remainder();
    words.extend([r.lo().to_bits(), r.hi().to_bits()]);
    words
}

fn assert_same(
    case: usize,
    got: &Result<TmVector, ReachError>,
    want: &Result<TmVector, ReachError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.dim(), w.dim(), "case {case}: output count");
            for (o, (a, b)) in g.components().iter().zip(w.components()).enumerate() {
                assert!(
                    a.poly().bits_eq(b.poly()),
                    "case {case}: output {o} polynomial"
                );
                assert_eq!(
                    model_bits(a),
                    model_bits(b),
                    "case {case}: output {o} model"
                );
            }
        }
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "case {case}: error"),
        _ => panic!("case {case}: got {got:?}, oracle {want:?}"),
    }
}

#[test]
fn bernstein_abstraction_matches_term_list_reference() {
    let mut rng = StdRng::seed_from_u64(0x0B3E_2517);
    let (mut ok, mut err) = (0, 0);
    for case in 0..600 {
        let n = 1 + case % 3;
        let net = random_network(&mut rng, n);
        let net = maybe_negate_outputs(&mut rng, net);
        let ctrl = NnController::with_output_scale(net, random_scale(&mut rng));
        let bx = random_box(&mut rng, n);
        let state = random_state(&mut rng, &bx);
        let dom = unit_domain(n);
        let abs = BernsteinAbstraction {
            degree: rng.gen_range(0..=4u32),
            samples_per_dim: rng.gen_range(1..=9usize),
            compose_order: rng.gen_range(1..=8u32),
        };
        let got = abs.abstract_network(&ctrl, &state, &dom);
        let want = oracle_abstract(&abs, &ctrl, &state, &dom);
        assert_same(case, &got, &want);
        if got.is_ok() {
            ok += 1;
        } else {
            err += 1;
        }
    }
    // Both outcomes must be exercised for the comparison to mean anything.
    assert!(ok > 300 && err > 0, "{ok} fits, {err} errors");
}

#[test]
fn overflowing_network_gives_the_reference_error() {
    // Huge weights overflow the outputs: both constructions refuse with the
    // same error, naming the same output.
    let layer = Layer::from_params(
        2,
        2,
        vec![1e300, 1e300, 1.0, 0.5],
        vec![0.0, 0.1],
        Activation::Identity,
    );
    let out = Layer::from_params(
        2,
        2,
        vec![1e10, 0.0, 0.0, 1.0],
        vec![0.0, 0.0],
        Activation::Identity,
    );
    let ctrl = NnController::new(Network::from_layers(vec![layer, out]));
    let bx = IntervalBox::from_bounds(&[(0.5, 0.6), (-0.1, 0.1)]);
    let state = TmVector::from_box(&bx);
    let dom = unit_domain(2);
    let abs = BernsteinAbstraction::default();
    let got = abs.abstract_network(&ctrl, &state, &dom);
    assert!(matches!(got, Err(ReachError::Unsupported(_))), "{got:?}");
    assert_same(0, &got, &oracle_abstract(&abs, &ctrl, &state, &dom));
}

#[test]
fn approximate_matches_term_list_reference_on_general_boxes() {
    // Off the unit box the substitution t = (x − lo)/w has inexact powers,
    // a zero offset (lo = 0) drops a term, and degrees differ per variable.
    let mut rng = StdRng::seed_from_u64(0xA11_B0C5);
    for case in 0..300 {
        let n = 1 + case % 4;
        let net = random_network(&mut rng, n);
        let bounds: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let lo = [0.0, -1.0, 0.3, -7.25, 1e-3][rng.gen_range(0..5usize)];
                (lo, lo + rng.gen_range(0.01..=3.0))
            })
            .collect();
        let domain = IntervalBox::from_bounds(&bounds);
        let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=3u32)).collect();
        let f = |x: &[f64]| oracle_forward(&net, x)[0];
        let got = dwv_poly::bernstein::approximate(f, &degrees, &domain);
        let want = oracle_approximate(f, &degrees, &domain);
        assert!(got.bits_eq(&want), "case {case}: {got} vs {want}");
    }
}
