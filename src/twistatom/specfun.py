"""Angular-momentum special functions and quadrature rules.

Everything here is pure; the only state is a small cache of read-only
quadrature rules.  Spherical harmonics use the Condon-Shortley phase
convention throughout; Wigner rotation matrices follow
D^l_{mm'}(alpha, beta, gamma) = exp(-i m alpha) d^l_{mm'}(beta) exp(-i m' gamma).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericsError

_FACT_TABLE_SIZE = 41
_LOG_FACT = np.array([math.lgamma(k + 1) for k in range(_FACT_TABLE_SIZE)])
_FACT = np.array([math.factorial(k) for k in range(_FACT_TABLE_SIZE)], dtype=float)


def _log_factorial(n: int) -> float:
    if n < 0:
        raise DomainError(f"factorial of negative integer {n}")
    if n < _FACT_TABLE_SIZE:
        return float(_LOG_FACT[n])
    return math.lgamma(n + 1)


@dataclass(frozen=True)
class WignerIndex:
    """Index triple (l, m, m') of a Wigner rotation matrix element."""
    l: int
    m: int
    m_prime: int

    def __post_init__(self):
        if self.l < 0:
            raise DomainError(f"l must be non-negative, got {self.l}")
        if abs(self.m) > self.l or abs(self.m_prime) > self.l:
            raise DomainError(
                f"|m| and |m'| must not exceed l: got {self}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian rule.

    kind is 'finite-interval' (Gauss-Legendre on [-1, 1]) or
    'semi-infinite-exponential' (Gauss-Laguerre, weight e^{-x} on [0, inf)).
    """
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape:
            raise DomainError("node/weight counts differ")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")


def wigner_small_d(idx: WignerIndex, theta: float) -> float:
    """Wigner small-d matrix element d^l_{m m'}(theta).

    Explicit factorial sum with log-factorial stabilization; valid for
    integer l (intended use is l <= 10).
    """
    l, m, mp = idx.l, idx.m, idx.m_prime
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    pref = 0.5 * (_log_factorial(l + m) + _log_factorial(l - m)
                  + _log_factorial(l + mp) + _log_factorial(l - mp))
    k_min = max(0, mp - m)
    k_max = min(l + mp, l - m)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_den = (_log_factorial(l + mp - k) + _log_factorial(k)
                   + _log_factorial(m - mp + k) + _log_factorial(l - m - k))
        pc = 2 * l + mp - m - 2 * k
        ps = m - mp + 2 * k
        # 0^0 = 1 at the endpoints theta = 0, pi
        trig = (c ** pc if pc else 1.0) * (s ** ps if ps else 1.0)
        total += (-1.0) ** (m - mp + k) * math.exp(pref - log_den) * trig
    return total


def bessel_j(order: int, x):
    """Integer-order Bessel function of the first kind J_n(x).

    Orders 0 and 1 are j0 and j1.  For |n| >= 2 and |x| >= |n| the value
    comes from the forward recurrence J_{k+1} = (2k/x) J_k - J_{k-1} seeded
    with j0 and j1, which is stable there (DLMF 10.74(iv)); only the core
    |x| < |n| calls jv.  Negative orders use J_{-n} = (-1)^n J_n.  Agrees
    with scipy's jv within 1e-14 absolute for |n| <= 40.  A scalar x gives
    a scalar.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("bessel_j requires finite argument")
    n = abs(int(order))
    if n == 0:
        out = sp.j0(x)
    elif n == 1:
        out = sp.j1(x)
    else:
        out = np.empty_like(x)
        far = np.abs(x) >= n
        xf = x[far]
        j_prev, j = sp.j0(xf), sp.j1(xf)
        for k in range(1, n):
            j_prev, j = j, (2.0 * k / xf) * j - j_prev
        out[far] = j
        out[~far] = sp.jv(n, x[~far])
    if order < 0 and n % 2:
        out = -out
    return out[()]


def spherical_bessel_j(order: int, x):
    """Spherical Bessel function j_L(x), L >= 0, x >= 0."""
    if order < 0:
        raise DomainError(f"spherical order must be >= 0, got {order}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError("spherical_bessel_j requires finite x >= 0")
    return sp.spherical_jn(int(order), x)


def sph_harm_y(l: int, m: int, theta, phi):
    """Spherical harmonic Y_{lm}(theta, phi), Condon-Shortley phase."""
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid (l, m) = ({l}, {m})")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.exp(_log_factorial(l - ma) - _log_factorial(l + ma)))
    # lpmv carries the Condon-Shortley (-1)^m
    p = sp.lpmv(ma, l, np.cos(theta))
    y = norm * p * np.exp(1j * ma * phi)
    if m < 0:
        y = (-1.0) ** ma * np.conj(y)
    return y


def _triangle_ok(j1: int, j2: int, j3: int) -> bool:
    return abs(j1 - j2) <= j3 <= j1 + j2


def three_j(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    """Wigner 3j symbol for integer angular momenta (Racah formula)."""
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if j < 0 or abs(m) > j:
            raise DomainError(f"invalid (j, m) = ({j}, {m})")
    if m1 + m2 + m3 != 0 or not _triangle_ok(j1, j2, j3):
        return 0.0
    log_delta = 0.5 * (_log_factorial(j1 + j2 - j3) + _log_factorial(j1 - j2 + j3)
                       + _log_factorial(-j1 + j2 + j3) - _log_factorial(j1 + j2 + j3 + 1))
    log_pref = 0.5 * (_log_factorial(j1 + m1) + _log_factorial(j1 - m1)
                      + _log_factorial(j2 + m2) + _log_factorial(j2 - m2)
                      + _log_factorial(j3 + m3) + _log_factorial(j3 - m3))
    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_den = (_log_factorial(t) + _log_factorial(j3 - j2 + t + m1)
                   + _log_factorial(j3 - j1 + t - m2) + _log_factorial(j1 + j2 - j3 - t)
                   + _log_factorial(j1 - t - m1) + _log_factorial(j2 - t + m2))
        total += (-1.0) ** t * math.exp(log_delta + log_pref - log_den)
    return (-1.0) ** (j1 - j2 - m3) * total


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    """<j1 m1, j2 m2 | j3 m3> for integer angular momenta."""
    if m1 + m2 != m3:
        return 0.0
    return ((-1.0) ** (j1 - j2 + m3) * math.sqrt(2 * j3 + 1)
            * three_j(j1, m1, j2, m2, j3, -m3))


def gaunt_coefficient(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Integral of Y_{l1 m1} Y_{l2 m2} Y_{l3 m3} over the unit sphere."""
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if l < 0 or abs(m) > l:
            raise DomainError(f"invalid (l, m) = ({l}, {m})")
    if m1 + m2 + m3 != 0 or not _triangle_ok(l1, l2, l3):
        return 0.0
    if (l1 + l2 + l3) % 2 != 0:
        return 0.0
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return pref * three_j(l1, 0, l2, 0, l3, 0) * three_j(l1, m1, l2, m2, l3, m3)


@functools.lru_cache(maxsize=8)
def build_quadrature(kind: str, n_points: int) -> QuadratureRule:
    """Gaussian quadrature rule of the requested kind.

    'finite-interval': Gauss-Legendre on [-1, 1].
    'semi-infinite-exponential': Gauss-Laguerre with weight e^{-x} on [0, inf).
    Rules are cached and shared, so their node and weight arrays are
    read-only.
    """
    if n_points < 2:
        raise DomainError(f"need at least 2 quadrature points, got {n_points}")
    if kind == "finite-interval":
        nodes, weights = np.polynomial.legendre.leggauss(n_points)
    elif kind == "semi-infinite-exponential":
        nodes, weights = np.polynomial.laguerre.laggauss(n_points)
    else:
        raise DomainError(f"unknown quadrature kind {kind!r}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, kind=kind)


def integrate_semi_infinite(f, scale: float, n_points: int = 64):
    """Integrate f(r) over [0, inf) for integrands decaying like e^{-scale r}.

    Substitutes x = scale * r into Gauss-Laguerre rules of n_points and
    2 * n_points nodes; f takes the array of radii and returns the integrand
    there.  Exact when f(r) = polynomial(r) * exp(-scale r) of low enough
    degree.  Returns the finer value; raises NumericsError when the two
    differ by more than 1e-10 * max(1, |value|).
    """
    def run(npts):
        rule = build_quadrature("semi-infinite-exponential", npts)
        return np.sum(rule.weights * np.exp(rule.nodes) * f(rule.nodes / scale)) / scale

    coarse, fine = run(n_points), run(2 * n_points)
    if abs(coarse - fine) > 1e-10 * max(1.0, abs(fine)):
        raise NumericsError(f"radial quadrature not converged: {coarse} vs {fine}")
    return fine
