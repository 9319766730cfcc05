"""Independent oracles used to freeze expected values in the test suite.

Each oracle computes a reference quantity by a route deliberately
different from the library's own (direct per-term series instead of
recurrences, ODE integration instead of series/asymptotics, quadrature
instead of closed forms, rejection sampling instead of matrix models), so
agreement is evidence rather than tautology.  Only the references near
the end import the package: the path integrator runs the package's
drifts through the recursive per-path traversal the package used before
its batched loop, and the field sampler runs the package's Airy functions
through the sample-by-sample chain rule it used before its batched one.
The pair counter keeps the per-sample 2d histogram of ordered pairs that
the package's order-2 line estimator used before its histogram products.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.integrate import quad, solve_ivp
from scipy.stats import ncx2, norm

from ibrownian.core import RngStream, SingularConfigurationError, StepFailureError
from ibrownian.models import (
    _state_noise,
    diffusion_sigma,
    drift_finite_all,
    drift_limit_truncated_all,
)
from ibrownian.sde import PathEnsemble

# Ai(0) and Ai'(0); standard constants, shared with any correct evaluator.
AIRY_AT_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIRY_PRIME_AT_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def airy_ode_oracle(xs):
    """Solve y'' = x*y from 0 with the Ai initial data, high-accuracy RK.

    Returns (ai, aip) arrays at the requested points (must lie in a range
    the integrator can reach; growth on the right limits practical use to
    roughly x <= 12).
    """
    xs = np.asarray(xs, dtype=float)
    ai = np.empty_like(xs)
    aip = np.empty_like(xs)

    def rhs(t, y):
        return [y[1], t * y[0]]

    for negative_side in (True, False):
        sel = (xs < 0) if negative_side else (xs >= 0)
        if not np.any(sel):
            continue
        pts = xs[sel]
        end = float(np.min(pts)) if negative_side else float(np.max(pts))
        if end == 0.0:
            ai[sel] = AIRY_AT_ZERO
            aip[sel] = AIRY_PRIME_AT_ZERO
            continue
        sol = solve_ivp(
            rhs,
            (0.0, end),
            [AIRY_AT_ZERO, AIRY_PRIME_AT_ZERO],
            method="DOP853",
            rtol=1e-13,
            atol=1e-16,
            dense_output=True,
        )
        vals = sol.sol(pts)
        ai[sel] = vals[0]
        aip[sel] = vals[1]
    return ai, aip


def bessel_series_oracle(alpha: float, x: float, terms: int = 200) -> float:
    """First-kind cylinder function by direct per-term evaluation."""
    if x == 0.0:
        return 1.0 if alpha == 0 else 0.0
    total = 0.0
    for k in range(terms):
        ln_mag = (alpha + 2 * k) * math.log(x / 2.0) - math.lgamma(k + 1.0) - math.lgamma(alpha + k + 1.0)
        term = (-1.0) ** k * math.exp(ln_mag)
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300) and k > 4:
            break
    return total


def bessel_series_prime_oracle(alpha: float, x: float, terms: int = 200) -> float:
    """Derivative of the cylinder function by direct per-term evaluation."""
    total = 0.0
    for k in range(terms):
        ln_mag = (alpha + 2 * k - 1) * math.log(x / 2.0) - math.lgamma(k + 1.0) - math.lgamma(alpha + k + 1.0)
        term = (-1.0) ** k * 0.5 * (alpha + 2.0 * k) * math.exp(ln_mag)
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300) and k > 4:
            break
    return total


def bessel_integral_oracle(alpha: int, x: float, nodes: int = 200001) -> float:
    """Integer-order cylinder function via the cosine integral representation."""
    if alpha != int(alpha):
        raise ValueError("integral representation used for integer order only")
    tau = np.linspace(0.0, math.pi, nodes)
    f = np.cos(alpha * tau - x * np.sin(tau))
    h = tau[1] - tau[0]
    # composite Simpson (nodes is odd)
    s = f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2])
    return float(s * h / 3.0 / math.pi)


def gauss_tail_oracle(t: float, span: float = 13.0, h: float = 1e-5) -> float:
    """Upper normal tail integral by plain trapezoid quadrature."""
    n = int(span / h) + 1
    xs = np.linspace(t, t + span, n)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    step = xs[1] - xs[0]
    return float(step * (0.5 * ys[0] + np.sum(ys[1:-1]) + 0.5 * ys[-1]))


def soft_edge_pair_rejection(beta: float, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Brute-force rejection sampler for the 2-particle edge ensemble.

    Target on raw spectral variables: |l1-l2|^beta * exp(-(beta/4)(l1^2+l2^2)).
    Proposal: iid Normal(0, 4/beta); the weight |d|^beta exp(-beta(s^2+d^2)/16)
    is maximized at s=0, d^2=8.  Returns edge coordinates, shape (n_draws, 2).
    """
    n_sys = 2
    out = np.empty((n_draws, 2))
    w_max = 8.0 ** (beta / 2.0) * math.exp(-beta / 2.0)
    filled = 0
    while filled < n_draws:
        m = max(4 * (n_draws - filled), 1024)
        lam = rng.normal(0.0, math.sqrt(4.0 / beta), size=(m, 2))
        s = lam[:, 0] + lam[:, 1]
        d = lam[:, 0] - lam[:, 1]
        w = np.abs(d) ** beta * np.exp(-beta * (s * s + d * d) / 16.0)
        keep = rng.uniform(0.0, 1.0, size=m) < (w / w_max)
        acc = lam[keep]
        take = min(len(acc), n_draws - filled)
        edge = n_sys ** (1.0 / 6.0) * (acc[:take] - 2.0 * math.sqrt(n_sys))
        out[filled : filled + take] = edge
        filled += take
    return out


def wishart_hard_edge_oracle(n: int, alpha: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Exact matrix-model sampler for the hard-edge equilibrium, integer alpha.

    Eigenvalues u of G*G with G complex standard Gaussian of shape
    (n+alpha, n) follow pdf prop. to prod u^alpha prod |du|^2 exp(-sum u);
    scaling x = 4n*u matches the weight exp(-x/(4n)) x^alpha with
    quadratic-exponent repulsion.  Returns shape (n_samples, n), ascending.
    """
    out = np.empty((n_samples, n))
    for k in range(n_samples):
        g = (rng.standard_normal((n + alpha, n)) + 1j * rng.standard_normal((n + alpha, n))) / math.sqrt(2.0)
        u = np.linalg.eigvalsh(g.conj().T @ g)
        out[k] = 4.0 * n * np.sort(u)
    return out


def cir_cdf(a: float, b: float, q0: float, t: float):
    """CDF at time t of the CIR process dQ = (a - b Q) dt + 2 sqrt(Q) dW
    started at ``q0`` (b > 0): with c = (1 - e^{-bt}) / b, Q_t / c is
    noncentral chi-square with a degrees of freedom and noncentrality
    q0 e^{-bt} / c.

    Two sums of the particle systems are such processes, by Ito's formula
    summed over i:
    * S = sum_i x_i of the n-particle squared hard-edge process
      (``square_bessel``): the pair drifts 4 sum_j x_i / (x_i - x_j) add up
      to 2 n (n - 1) and the noises 2 sqrt(x_i) dW_i to 2 sqrt(S) dW, so
      a = 2n(alpha + n) and b = 1/(2n).  So is sum_i y_i^2 of its
      square-root process (``sqrt_square_bessel``).
    * S = sum_i |z_i|^2 of the n-particle planar process (``ginibre``): the
      pair drifts z_i . sum_j 2 (z_i - z_j) / |z_i - z_j|^2 add up to
      n (n - 1), the two noise coordinates give 2n, the confinement -2S,
      and the noises 2 z_i . dW_i add up to 2 sqrt(S) dW, so a = n(n + 1)
      and b = 2.
    """
    c = -math.expm1(-b * t) / b
    return ncx2(a, q0 * math.exp(-b * t) / c, scale=c).cdf


def airy_center_of_mass_cdf(n: int, beta: float, m0: float, t: float):
    """CDF at time t of M = sum_i x_i of the n-particle soft-edge process
    (``airy``) started at M = ``m0``.

    The pair drifts beta / (2 (x_i - x_j)) cancel in the sum, the
    confinement -(beta / 2)(n^(1/3) + x_i / (2 n^(1/3))) adds up to
    -k (M + 2 n^(5/3)) with k = beta / (4 n^(1/3)), and the n unit noises
    to sqrt(n) dW: M is an Ornstein-Uhlenbeck process, Gaussian at t with
    mean -2 n^(5/3) + (m0 + 2 n^(5/3)) e^(-kt) and variance
    n (1 - e^(-2kt)) / (2k).
    """
    k = beta / (4.0 * n ** (1.0 / 3.0))
    centre = -2.0 * n ** (5.0 / 3.0)
    var = n * -math.expm1(-2.0 * k * t) / (2.0 * k)
    return norm(centre + (m0 - centre) * math.exp(-k * t), math.sqrt(var)).cdf


def matrix_ou_oracle(beta: float, lam0, t: float, g: np.random.Generator) -> np.ndarray:
    """Eigenvalues at matrix time t of Dyson's matrix Ornstein-Uhlenbeck
    process H_t = e^(-beta t/4) H_0 + sqrt(1 - e^(-beta t/2)) G (Dyson
    1962, J. Math. Phys. 3:1191), started at H_0 = diag(lam0): one path per
    row of the (P, n) array ``lam0``, returned as (P, n), ascending per row.

    G is a fresh draw of the stationary Gaussian matrix at that beta; its
    law is invariant under conjugation, so the law of the eigenvalues at t
    depends on those of H_0 alone, and t = math.inf (weight 0 on H_0,
    noise factor 1) gives the stationary law: G's spectrum.  At beta = 2
    G is the matrix ``sampling._edge_spectrum_dense`` diagonalises; the
    beta = 1 and 4 matrices here are the tests' only dense models at those
    betas, their reference independent of the tridiagonal sampler.  The
    eigenvalues solve
    d lambda_i = dW_i + (beta/2) sum_j dt / (lambda_i - lambda_j)
    - (beta/4) lambda_i dt, the ``airy`` family's SDE at that beta under
    the edge map lambda = 2 sqrt(n) + x n^(-1/6) and matrix time
    t = s n^(-1/3).  G is:
    * beta = 1: (A + A^T)/sqrt(2), A real standard normal, so diagonal
      variance 2 and off-diagonal variance 1;
    * beta = 2: (X + X*)/2, X complex standard normal, so E|G_ij|^2 = 1;
    * beta = 4: the 2n x 2n complex form [[X, Y], [-conj(Y), conj(X)]] of a
      self-dual quaternion matrix, X Hermitian with diagonal variance 1/2
      and off-diagonal E|X_ij|^2 = 1/2, Y antisymmetric with
      E|Y_ij|^2 = 1/2; H_0 is diag(lam0, lam0), the eigenvalues come in
      Kramers pairs, and one of each pair is kept.
    """
    lam0 = np.asarray(lam0, dtype=float)
    paths, n = lam0.shape
    diag = np.arange(n)
    if beta == 2.0:
        x = g.standard_normal((paths, n, n)) + 1j * g.standard_normal((paths, n, n))
        h = 0.5 * (x + np.conj(np.swapaxes(x, 1, 2)))
    elif beta == 1.0:
        a = g.standard_normal((paths, n, n))
        h = (a + np.swapaxes(a, 1, 2)) / math.sqrt(2.0)
    elif beta == 4.0:
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        xu = (g.standard_normal((paths, n, n)) + 1j * g.standard_normal((paths, n, n))) / 2.0
        yu = (g.standard_normal((paths, n, n)) + 1j * g.standard_normal((paths, n, n))) / 2.0
        x = np.where(upper, xu, 0.0)
        x = x + np.conj(np.swapaxes(x, 1, 2))
        x[:, diag, diag] = g.standard_normal((paths, n)) / math.sqrt(2.0)
        y = np.where(upper, yu, 0.0)
        y = y - np.swapaxes(y, 1, 2)
        h = np.block([[x, y], [-np.conj(y), np.conj(x)]])
        lam0, diag = np.concatenate([lam0, lam0], axis=1), np.arange(2 * n)
    else:
        raise NotImplementedError("matrix_ou_oracle covers beta in {1, 2, 4}")
    h *= math.sqrt(-math.expm1(-0.5 * beta * t))
    h[:, diag, diag] += math.exp(-0.25 * beta * t) * lam0
    lam = np.linalg.eigvalsh(h)
    return lam if beta != 4.0 else lam[:, ::2]


def gibbs_center_of_mass_cdf(n: int, beta: float, c: float, theta: float, m0: float, t: float):
    """CDF at time t of one coordinate of M = sum_i x_i of the n-particle
    3d process (``lennard_jones`` or ``riesz``) started at M = ``m0`` in
    that coordinate.

    The pair terms are antisymmetric and cancel in the sum, the
    confinement -(beta c / n^theta) x_i adds up to -k M with
    k = beta c / n^theta, and the n unit noises to sqrt(n) dW: each
    coordinate of M is an Ornstein-Uhlenbeck process, Gaussian at t with
    mean m0 e^(-kt) and variance n (1 - e^(-2kt)) / (2k).  The planar
    (``ginibre``) process's M has this law at k = 1: its one-body drift is
    -z_i and its pair terms cancel in the sum too.
    """
    k = beta * c / n**theta
    var = n * -math.expm1(-2.0 * k * t) / (2.0 * k)
    return norm(m0 * math.exp(-k * t), math.sqrt(var)).cdf


def count_variance(a: float, b: float, n: int | None = None) -> float:
    """Exact variance of the number of points of a determinantal process in
    a set B: int_B K(x, x) - int int_(B x B) K(x, y)^2 (Soshnikov 2000,
    Russian Math. Surveys 55:923).

    ``n`` None: the beta = 2 soft-edge limit field on the interval (a, b),
    with the Airy kernel (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y), diagonal
    Ai'(x)^2 - x Ai(x)^2, from ``scipy.special.airy`` on 80 Gauss-Legendre
    nodes.  ``n`` given: the n-point Ginibre ensemble, kernel
    pi^-1 e^(-(|z|^2 + |w|^2)/2) sum_(k<n) (z conj(w))^k / k!, in the
    annulus a <= |z| < b.  The angular integrals leave sum_k p_k (1 - p_k),
    with p_k = P(a^2 <= Gamma(k + 1) < b^2) the annulus mass of the k-th
    radial function.
    """
    if n is not None:
        k = np.arange(n) + 1.0
        p = special.gammainc(k, b * b) - special.gammainc(k, a * a)
        return float(np.sum(p * (1.0 - p)))
    t, w = np.polynomial.legendre.leggauss(80)
    x = 0.5 * (b - a) * t + 0.5 * (a + b)
    w = 0.5 * (b - a) * w
    ai, aip, _, _ = special.airy(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        kxy = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / (x[:, None] - x[None, :])
    kxy[np.diag_indices_from(kxy)] = aip * aip - x * ai * ai
    return float(w @ np.diag(kxy) - w @ (kxy * kxy) @ w)


def pair_distance_cdf_oracle(
    beta: float,
    c: float,
    theta: float,
    n_particles: int,
    pair_potential,
    r_grid: np.ndarray,
    r_max: float,
    nodes: int = 400001,
) -> np.ndarray:
    """CDF of the pair distance for TWO particles in 3d with a quadratic
    confinement c|x|^2 / n^theta and pair potential ``pair_potential``.

    In center/difference coordinates the difference decouples with radial
    density prop. to r^2 exp(-beta*c*r^2/(2 n^theta) - beta*pair_potential(r)).
    """
    rs = np.linspace(0.0, r_max, nodes)
    with np.errstate(divide="ignore", over="ignore"):
        expo = -beta * c * rs**2 / (2.0 * n_particles**theta) - beta * pair_potential(rs)
    expo[0] = -np.inf
    dens = np.where(np.isfinite(expo), rs**2 * np.exp(expo - np.nanmax(expo[np.isfinite(expo)])), 0.0)
    h = rs[1] - rs[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * h)])
    cum /= cum[-1]
    return np.interp(np.asarray(r_grid, dtype=float), rs, cum)


# plain double-loop drift references, one per family ------------------------


def drift_oracle_soft_edge(beta, n, xs, i):
    s = sum(1.0 / (xs[i] - xs[j]) for j in range(n) if j != i)
    cbrt = n ** (1.0 / 3.0)
    return 0.5 * beta * (s - cbrt - xs[i] / (2.0 * cbrt))


def drift_oracle_planar(pts, i):
    x = np.asarray(pts[i], dtype=float)
    acc = -x.copy()
    for j, y in enumerate(pts):
        if j == i:
            continue
        d = x - np.asarray(y, dtype=float)
        acc += d / float(d @ d)
    return acc


def drift_oracle_hard_edge(alpha, n, xs, i):
    s = sum(1.0 / (xs[i] - xs[j]) for j in range(n) if j != i)
    return -1.0 / (8.0 * n) + alpha / (2.0 * xs[i]) + s


def drift_oracle_squared(alpha, n, xs, i):
    s = sum(xs[i] / (xs[i] - xs[j]) for j in range(n) if j != i)
    return 4.0 * (-xs[i] / (8.0 * n) + 0.5 * (alpha + 1.0) + s)


def drift_oracle_root_squared(alpha, n, xs, i):
    s = sum(2.0 * xs[i] / (xs[i] ** 2 - xs[j] ** 2) for j in range(n) if j != i)
    return -xs[i] / (4.0 * n) + (alpha + 0.5) / xs[i] + s


def drift_oracle_lennard_jones(beta, c, theta, n, pts, i):
    x = np.asarray(pts[i], dtype=float)
    acc = -(beta * c / n**theta) * x
    for j, y in enumerate(pts):
        if j == i:
            continue
        d = x - np.asarray(y, dtype=float)
        r = math.sqrt(float(d @ d))
        acc += 0.5 * beta * (12.0 / r**14 - 6.0 / r**8) * d
    return acc


def drift_oracle_riesz(beta, a, c, theta, n, pts, i):
    x = np.asarray(pts[i], dtype=float)
    acc = -(beta * c / n**theta) * x
    for j, y in enumerate(pts):
        if j == i:
            continue
        d = x - np.asarray(y, dtype=float)
        r = math.sqrt(float(d @ d))
        acc += 0.5 * beta * d / r ** (a + 2.0)
    return acc


def truncated_drift_oracle(family, x, env, r, *, beta=2.0, alpha=None, riesz_a=None, variant=None):
    """Truncated limit drift at ``x`` from the points of ``env`` in the window.

    ``family`` is the family's name.  The window is |y| < r for the 1d
    families and the planar origin variant, |x - y| < r for the planar
    centered variant and the 3d families.
    """
    x = [float(v) for v in np.atleast_1d(x)]
    distance_window = family in ("lennard_jones", "riesz") or variant == "centered"
    acc = [0.0] * len(x)
    for y in env:
        y = [float(v) for v in np.atleast_1d(y)]
        diff = [a - b for a, b in zip(x, y)]
        dist = math.sqrt(sum(c * c for c in diff))
        if (dist if distance_window else math.sqrt(sum(c * c for c in y))) >= r:
            continue
        if family == "airy":
            terms = [0.5 * beta / diff[0]]
        elif family == "bessel":
            terms = [1.0 / diff[0]]
        elif family == "square_bessel":
            terms = [4.0 * x[0] / diff[0]]
        elif family == "sqrt_square_bessel":
            terms = [2.0 * x[0] / (x[0] ** 2 - y[0] ** 2)]
        elif family == "ginibre":
            terms = [c / dist**2 for c in diff]
        elif family == "lennard_jones":
            terms = [0.5 * beta * (12.0 / dist**14 - 6.0 / dist**8) * c for c in diff]
        else:
            terms = [0.5 * beta * c / dist ** (riesz_a + 2.0) for c in diff]
        acc = [a + t for a, t in zip(acc, terms)]
    # one-body part of the limit field
    if family == "airy":
        acc[0] -= beta * math.sqrt(r)
    elif family == "ginibre" and variant == "origin":
        acc = [a - c for a, c in zip(acc, x)]
    elif family == "bessel":
        acc[0] += alpha / (2.0 * x[0])
    elif family == "square_bessel":
        acc[0] += 2.0 * (alpha + 1.0)
    elif family == "sqrt_square_bessel":
        acc[0] += (alpha + 0.5) / x[0]
    return np.array(acc)


def airy_band_mean_oracle(r1: float, r2: float, x: float = -1.0, scale: float = math.pi ** (-2.0 / 3.0)) -> float:
    """Exact mean of D(r2) - D(r1), the change between radii r1 < r2 of the
    beta = 2 truncated soft-edge drift at ``x``, for the limit field with
    every coordinate multiplied by ``scale``.

    D(r) sums 1/(x - y) over the points |y| < r and subtracts 2 sqrt(r), so
    the mean is the integral of rho(y) / (x - y) over the band minus
    2 (sqrt(r2) - sqrt(r1)), where rho(y) = K(y/s, y/s) / s is the field's
    density with the diagonal K(u, u) = Ai'(u)^2 - u Ai(u)^2 of the Airy
    kernel.  For r1 >= 10 the band's right half [r1, r2) carries mass below
    exp(-100), so the integral runs over (-r2, -r1] alone.
    """

    def rho(y):
        ai, aip, _, _ = special.airy(y / scale)
        return (aip * aip - (y / scale) * ai * ai) / scale

    integral, _ = quad(lambda y: rho(y) / (x - y), -r2, -r1, epsabs=1e-12, epsrel=1e-12, limit=200)
    return integral - 2.0 * (math.sqrt(r2) - math.sqrt(r1))


def one_sample_ks(values: np.ndarray, cdf) -> float:
    """Kolmogorov distance of an empirical sample to a reference CDF."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    u = np.asarray(cdf(v), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def stein_statistic(x, d, s: float) -> np.ndarray:
    """Stein's statistic sum_i phi_i . d_i + div phi of each state in the
    (P, n, k) stack ``x`` with scores d = grad log p, also (P, n, k); its
    mean under p is 0 (Gorham & Mackey 2015, "Measuring sample quality with
    Stein's method").  The pair test function is
    phi_i = sum_{j != i} (x_i - x_j) e_ij with e_ij = exp(-r_ij^2 / (2 s^2)),
    so div phi = sum_{i != j} e_ij (k - r_ij^2 / s^2).  It reads the pair
    term of d through every pair, not through one pair sum."""
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    n, k = x.shape[1], x.shape[2]
    diff = x[:, :, None, :] - x[:, None, :, :]
    r2 = np.sum(diff * diff, axis=-1)
    e = np.where(np.eye(n, dtype=bool), 0.0, np.exp(-r2 / (2.0 * s * s)))
    phi = np.sum(e[..., None] * diff, axis=2)
    return np.sum(phi * d, axis=(1, 2)) + np.sum(e * (k - r2 / (s * s)), axis=(1, 2))


def stein_one_body(x, d, s: float) -> np.ndarray:
    """Stein's statistic of ``stein_statistic`` for points on (0, inf),
    (P, n, 1), with the one-body test function phi_i = psi(x_i),
    psi(x) = x exp(-x / s), and psi' = (1 - x / s) exp(-x / s).  It weighs
    the points within a few s of 0, where a hard edge's alpha / x term
    lives, and vanishes at 0, so no boundary term enters its mean."""
    x, d = np.asarray(x, dtype=float)[..., 0], np.asarray(d, dtype=float)[..., 0]
    e = np.exp(-x / s)
    return np.sum(x * e * d + (1.0 - x / s) * e, axis=1)


def mean_z(t) -> float:
    """The mean of the per-state statistics ``t`` in standard errors."""
    return t.mean() / (t.std(ddof=1) / math.sqrt(t.size))


def reversal_z(x0, xT, f, g) -> float:
    """z of the per-path antisymmetrised product f(x0) g(xT) - g(x0) f(xT),
    summed over all axes of f and g but the first (the path).  A reversible
    process started from its equilibrium gives an exchangeable pair
    (x0, xT), so the product's mean is 0 for every f and g."""
    t = f(x0) * g(xT) - g(x0) * f(xT)
    return mean_z(t.reshape(len(t), -1).sum(axis=1))


def stein_z(x, d, one_body: bool = False) -> dict:
    """z of ``stein_statistic`` on the (P, n, k) stack ``x`` with scores
    ``d``, and with ``one_body`` of ``stein_one_body`` too, at s = 1 and 3
    median nearest-neighbour gaps of ``x``, keyed by test function and s."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum((x[:, :, None, :] - x[:, None, :, :]) ** 2, axis=-1))
    r[:, np.arange(x.shape[1]), np.arange(x.shape[1])] = np.inf
    gap = float(np.median(r.min(axis=2)))
    statistics = [("pair", stein_statistic)] + ([("one-body", stein_one_body)] if one_body else [])
    z = {}
    for s in (gap, 3.0 * gap):
        for name, statistic in statistics:
            z[f"{name}, s = {s:.3g}"] = mean_z(statistic(x, d, s))
    return z


def normal_cdf(x, mean=0.0, sd=1.0):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return 0.5 * np.array([math.erfc(-t / math.sqrt(2.0)) for t in np.atleast_1d(z)]).reshape(np.shape(z))


def reference_pair_counts(values, bins):
    """Order-2 counts of ``stats.estimate_rho`` on 1d samples, as its old
    per-sample loop made them: a 2d histogram of every ordered pair of
    unequal values, summed over the samples."""
    counts = np.zeros((len(bins) - 1, len(bins) - 1))
    for v in values:
        a = np.repeat(v, len(v))
        b = np.tile(v, len(v))
        keep = a != b
        counts += np.histogram2d(a[keep], b[keep], bins=(bins, bins))[0]
    return counts


# ---------------------------------------------------------------------------
# reference path integrator
# ---------------------------------------------------------------------------
#
# The recursive per-path Euler-Maruyama integrator that the package used
# before its batched loop, kept verbatim as the bitwise reference for
# ``ibrownian.sde.simulate`` and ``step``: each path walks its substep
# tree depth first, one drift call per node.  It is the one oracle here
# that runs library code (drifts, errors, PathEnsemble); what it checks
# is the integrator's traversal, draw order and failure handling.


class _StepStats:
    __slots__ = ("substeps", "max_depth")

    def __init__(self) -> None:
        self.substeps = 0
        self.max_depth = 0


def _drift(spec: ModelSpec, pts: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    try:
        if cfg.truncation is not None:
            return drift_limit_truncated_all(spec, pts, cfg.truncation)
        return drift_finite_all(spec, pts)
    except SingularConfigurationError as exc:
        raise StepFailureError(f"drift evaluation hit a singular configuration: {exc}") from exc


def _min_gap(pts: np.ndarray) -> float:
    n = pts.shape[0]
    if n < 2:
        return math.inf
    if pts.shape[1] == 1:
        x = np.sort(pts[:, 0])
        return float(np.min(np.diff(x)))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    dist[np.diag_indices(n)] = np.inf
    return float(np.min(dist))


def _leaf_move(spec, pts, b, h, g, cfg, stats, depth):
    sig = None
    if _state_noise(spec):
        sig = diffusion_sigma(spec, pts)
    root_h = math.sqrt(h)
    xi = g.standard_normal(pts.shape)
    noise = xi if sig is None else sig * xi
    new = pts + b * h + cfg.noise_scale * root_h * noise
    if spec.nonnegative_domain and np.min(new) <= 0.0:
        new = np.abs(new)
    stats.substeps += 1
    stats.max_depth = max(stats.max_depth, depth)
    return new


def _advance(spec, pts, h, depth, g, cfg, stats) -> np.ndarray:
    b = _drift(spec, pts, cfg)
    bmax = float(np.max(np.sqrt(np.sum(b * b, axis=1)))) if b.size else 0.0
    if math.isnan(bmax):
        raise StepFailureError("drift is not a number")
    gap = _min_gap(pts)
    split = bmax * h > min(0.5, 0.1 * gap)  # a drift cap of 0.5
    if not split and cfg.noise_scale > 0.0 and math.isfinite(gap):
        # the drift cap alone leaves the substep noise at a fixed ~0.45
        # fraction of the gap (both scale with it), which lets diffusion
        # hop a crossing; also resolving the noise against the gap makes
        # label swaps vanish while keeping the same dip statistics
        scaled_root_h = cfg.noise_scale * math.sqrt(h)
        if not _state_noise(spec):
            split = scaled_root_h > 0.1 * gap
        else:
            # state-dependent noise: a swap is a per-pair event, so test
            # each adjacent pair against its own coefficient instead of
            # the global max against the global gap (that bound forces
            # deep substepping of well-separated high-noise particles)
            x = np.sort(pts[:, 0])
            sig = diffusion_sigma(spec, x[:, None])[:, 0]
            pair_sig = np.maximum(sig[1:], sig[:-1])
            split = bool(np.any(scaled_root_h * pair_sig > 0.1 * np.diff(x)))
    if split:
        if depth >= cfg.max_substep_depth:
            raise StepFailureError(
                f"substep depth {cfg.max_substep_depth} exhausted (|b| = {bmax:.3g}, h = {h:.3g})"
            )
        pts = _advance(spec, pts, 0.5 * h, depth + 1, g, cfg, stats)
        return _advance(spec, pts, 0.5 * h, depth + 1, g, cfg, stats)
    return _leaf_move(spec, pts, b, h, g, cfg, stats, depth)


def reference_step(spec: ModelSpec, state, dt: float, rng, cfg: IntegratorConfig) -> np.ndarray:
    """One base step of length dt (substepping internally as needed); the new (n, d) state."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if isinstance(rng, RngStream):
        g = rng.generator()
    elif isinstance(rng, np.random.Generator):
        g = rng
    else:
        raise TypeError("rng must be an RngStream or numpy Generator")
    pts = np.array(state, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return _finite(_advance(spec, pts, float(dt), 0, g, cfg, _StepStats()))


def _finite(pts: np.ndarray) -> np.ndarray:
    """A state at a recording time: refused as a step failure unless finite."""
    if not np.all(np.isfinite(pts)):
        raise StepFailureError("state is not finite")
    return pts


def _integrate_path(task):
    spec, cfg, pts0, stream, path_idx, start_interval, n_rec = task
    m = cfg.substeps_per_record
    rec = np.empty((n_rec + 1,) + pts0.shape)
    rec[0] = pts0
    stats = _StepStats()
    pts = pts0
    try:
        for j in range(n_rec):
            g = stream.generator(path_idx, start_interval + j)
            for _ in range(m):
                pts = _advance(spec, pts, cfg.dt, 0, g, cfg, stats)
            rec[j + 1] = _finite(pts)
    except StepFailureError as exc:
        return None, stats.substeps, stats.max_depth, f"path {path_idx}: {exc}"
    return rec, stats.substeps, stats.max_depth, None


def _count_order_swaps(states: np.ndarray) -> int:
    if states.shape[1] < 2 or states.shape[2] < 2:
        return 0
    sgn = np.sign(np.diff(states[..., 0], axis=2))
    return int(np.sum(sgn[:, 1:, :] * sgn[:, :-1, :] < 0))


def reference_simulate(
    spec: ModelSpec,
    initial,
    cfg: IntegratorConfig,
    rng: RngStream,
    *,
    start_interval: int = 0,
    on_failure: str = "raise",
) -> PathEnsemble:
    """Integrate one trajectory per initial state.

    Noise for path p on recording interval j comes from the substream
    ``rng.generator(p, start_interval + j)``; restarting from a recorded
    state with the matching ``start_interval`` reproduces the tail
    bitwise.

    Near-collisions below the substep resolution end a path with a step
    failure.  ``on_failure="raise"`` propagates the first one with its
    path index; ``"drop"`` excludes flagged paths from the ensemble and
    lists them in ``failed_paths`` (their noise streams are untouched,
    so surviving paths are bitwise independent of the flagged ones).
    """
    if not isinstance(rng, RngStream):
        raise TypeError("simulate requires an RngStream (determinism contract)")
    if start_interval < 0:
        raise ValueError("start_interval must be >= 0")
    if on_failure not in ("raise", "drop"):
        raise ValueError("on_failure must be 'raise' or 'drop'")
    rs = cfg.record_step
    n_rec = round(cfg.t_final / rs)
    if abs(cfg.t_final - n_rec * rs) > 1e-9 * rs:
        raise ValueError("t_final must be an integer multiple of dt_record")

    starts = []
    for state in initial:
        pts = np.array(state, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != spec.dimension:
            raise ValueError(f"initial state dimension {pts.shape[1]} != family dimension {spec.dimension}")
        starts.append(pts)
    if not starts:
        raise ValueError("at least one initial state is required")

    tasks = [(spec, cfg, pts, rng, p, start_interval, n_rec) for p, pts in enumerate(starts)]
    results = [_integrate_path(t) for t in tasks]

    failures = tuple((p, r[3]) for p, r in enumerate(results) if r[0] is None)
    if failures and on_failure == "raise":
        raise StepFailureError(failures[0][1])
    survivors = [p for p, r in enumerate(results) if r[0] is not None]
    if not survivors:
        raise StepFailureError(f"all paths failed; first: {failures[0][1]}")

    states = np.stack([results[p][0] for p in survivors])
    states.setflags(write=False)
    times = (start_interval + np.arange(n_rec + 1)) * rs
    violations = _count_order_swaps(states) if spec.dimension == 1 else None
    return PathEnsemble(
        times=times,
        states=states,
        spec=spec,
        path_seeds=tuple((rng.seed, rng.stream_id, p) for p in survivors),
        substeps=np.array([results[p][1] for p in survivors]),
        max_depth_used=max(results[p][2] for p in survivors),
        ordering_violations=violations,
        failed_paths=failures,
    )


# ---------------------------------------------------------------------------
# reference soft-edge field sampler
# ---------------------------------------------------------------------------
#
# The sample-by-sample window sampler that the package used before its
# batched chain rule, kept verbatim as the bitwise reference for
# ``ibrownian.sampling.sample_airy_field``: a full eigendecomposition, and
# per point one ``Generator.choice`` and one Schur-complement column of
# m x n matrix-vector products.  ``reference_field_kernel`` is its one-shot
# outer-product build of the matrix h*K.


def reference_field_kernel(lo, hi, grid_step):
    from ibrownian.kernels import airy_fn

    m = int(math.ceil((hi - lo) / grid_step))
    h = (hi - lo) / m
    x = lo + h * (np.arange(m) + 0.5)
    ai, aip = airy_fn(x)
    denom = x[:, None] - x[None, :]
    np.fill_diagonal(denom, 1.0)
    km = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / denom
    np.fill_diagonal(km, aip * aip - x * ai * ai)
    return x, h, h * km


def reference_airy_field(window, rng, n_samples, *, grid_step=0.04):
    import time

    from ibrownian.sampling import SamplerReport, _resolve_rng

    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if grid_step <= 0 or (hi - lo) / grid_step > 50_000:
        raise ValueError("grid_step must be positive and resolve the window into <= 50000 cells")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()

    x, h, hkm = reference_field_kernel(lo, hi, grid_step)
    m = x.size
    lam, vecs = np.linalg.eigh(hkm)
    keep = lam > 1e-12
    lam = np.clip(lam[keep], 0.0, 1.0)
    vecs = vecs[:, keep]

    out = []
    for _ in range(n_samples):
        sel = vecs[:, g.random(lam.size) < lam]
        n = sel.shape[1]
        if n == 0:
            out.append(np.zeros(0))
            continue
        diag = np.einsum("ij,ij->i", sel, sel)
        chol = np.empty((m, n))
        cells = np.empty(n, dtype=int)
        for t in range(n):
            p = np.clip(diag, 0.0, None)
            i = g.choice(m, p=p / p.sum())
            col = sel @ sel[i]
            if t:
                col -= chol[:, :t] @ chol[i, :t]
            col /= math.sqrt(max(col[i], 1e-300))
            chol[:, t] = col
            diag -= col * col
            cells[t] = i
        out.append(np.sort(x[cells] + (g.random(n) - 0.5) * h))
    rep = SamplerReport(n_samples=n_samples, acceptance_rate=None, seed=seed, wall_time=time.perf_counter() - t0)
    return out, rep
