"""Hydrogen-like bound orbitals in atomic units (hbar = m_e = e = 1).

Orbitals are R_{nl}(r) Y_{lm}(theta, phi) with nonrelativistic Coulomb
energies -Z^2/(2 n^2) Hartree.  The cyclic components of -i grad acting on an
orbital are evaluated analytically via the two-branch gradient decomposition

    e_s . grad[f Y_lm] = sqrt((l+1)/(2l+3)) <l m; 1 s | l+1 m+s> (f' - l f/r) Y_{l+1, m+s}
                       - sqrt(l/(2l-1))    <l m; 1 s | l-1 m+s> (f' + (l+1) f/r) Y_{l-1, m+s}

with cyclic unit vectors e_{+1} = -(x + iy)/sqrt(2), e_0 = z,
e_{-1} = (x - iy)/sqrt(2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from .errors import DomainError
from .specfun import clebsch_gordan, integrate_semi_infinite, sph_harm_y


@dataclass(frozen=True)
class BoundOrbital:
    Z: int
    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.Z < 1:
            raise DomainError(f"Z must be a positive integer, got {self.Z}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.l < self.n:
            raise DomainError(f"need 0 <= l < n, got l={self.l}, n={self.n}")
        if abs(self.m) > self.l:
            raise DomainError(f"need |m| <= l, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class OrbitalValue:
    """Orbital value and cyclic components of -i grad at one point."""
    value: complex
    gradient_cyclic: dict  # sigma in {-1, 0, +1} -> complex


def orbital_energy(orb: BoundOrbital) -> float:
    """Coulomb bound-state energy -Z^2/(2 n^2) in Hartree."""
    return -orb.Z ** 2 / (2.0 * orb.n ** 2)


def _radial_norm(Z: int, n: int, l: int) -> float:
    return math.sqrt((2.0 * Z / n) ** 3
                     * math.factorial(n - l - 1)
                     / (2.0 * n * math.factorial(n + l)))


def radial_R(orb: BoundOrbital, r) -> np.ndarray:
    """Normalized radial function R_{nl}(r), r in Bohr."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be >= 0")
    Z, n, l = orb.Z, orb.n, orb.l
    rho = 2.0 * Z * r / n
    lag = eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    return _radial_norm(Z, n, l) * np.exp(-rho / 2.0) * rho ** l * lag


def radial_R_prime(orb: BoundOrbital, r) -> np.ndarray:
    """Analytic derivative dR_{nl}/dr."""
    r = np.asarray(r, dtype=float)
    Z, n, l = orb.Z, orb.n, orb.l
    rho = 2.0 * Z * r / n
    norm = _radial_norm(Z, n, l)
    lag = eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    dlag = -eval_genlaguerre(n - l - 2, 2 * l + 2, rho) if n - l - 2 >= 0 else 0.0
    # d(rho^l)/drho; max() spares l = 0 the 0 * rho^-1 = nan at r = 0
    inner = (-0.5 * rho ** l + l * rho ** max(l - 1, 0)) * lag + rho ** l * dlag
    return norm * np.exp(-rho / 2.0) * inner * (2.0 * Z / n)


def _gradient_terms(orb: BoundOrbital, sigma: int):
    """Angular decomposition of the sigma cyclic component of grad(R Y_lm).

    Returns a list of (l_out, coeff, branch) with branch '+' for the
    (R' - l R/r) radial factor and '-' for (R' + (l+1) R/r); the magnetic
    quantum number of each output harmonic is m + sigma.
    """
    l, m = orb.l, orb.m
    terms = []
    if abs(m + sigma) <= l + 1:
        c = math.sqrt((l + 1) / (2 * l + 3)) * clebsch_gordan(l, m, 1, sigma, l + 1, m + sigma)
        if c != 0.0:
            terms.append((l + 1, c, "+"))
    if l >= 1 and abs(m + sigma) <= l - 1:
        c = -math.sqrt(l / (2 * l - 1)) * clebsch_gordan(l, m, 1, sigma, l - 1, m + sigma)
        if c != 0.0:
            terms.append((l - 1, c, "-"))
    return terms


def momentum_sigma_parts(orb: BoundOrbital, sigma: int):
    """Decomposition of p_sigma phi = -i (e_sigma . grad) phi.

    Returns a list of (l_out, m_out, radial_fn) with
    p_sigma phi = sum -i * radial_fn(r) * Y_{l_out, m_out}(theta, phi),
    where the -i is folded into radial_fn.
    """
    parts = []
    for l_out, coeff, branch in _gradient_terms(orb, sigma):
        def radial(r, coeff=coeff, branch=branch, orb=orb):
            r = np.asarray(r, dtype=float)
            rp = radial_R_prime(orb, r)
            if orb.l == 0:
                g = rp if branch == "+" else np.zeros_like(rp)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    over_r = radial_R(orb, r) / r
                g = rp - orb.l * over_r if branch == "+" else rp + (orb.l + 1) * over_r
            return -1j * coeff * g
        parts.append((l_out, orb.m + sigma, radial))
    return parts


def evaluate_orbital(orb: BoundOrbital, point) -> OrbitalValue:
    """Orbital value and cyclic momentum components at a Cartesian point."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise DomainError("point must be a finite 3-vector")
    r = float(np.linalg.norm(p))
    if r == 0.0:
        # analytic limits: value 0 for l >= 1; gradient from the r -> 0 series
        theta, phi = 0.0, 0.0
    else:
        theta = math.acos(max(-1.0, min(1.0, p[2] / r)))
        phi = math.atan2(p[1], p[0])
    value = complex(radial_R(orb, r) * sph_harm_y(orb.l, orb.m, theta, phi)) if r > 0 else \
        (complex(radial_R(orb, 0.0) * sph_harm_y(0, 0, 0.0, 0.0)) if orb.l == 0 else 0.0 + 0.0j)
    grad = {}
    for sigma in (-1, 0, 1):
        total = 0.0 + 0.0j
        for l_out, m_out, radial in momentum_sigma_parts(orb, sigma):
            g = complex(radial(r)) if r > 0 else complex(radial(1e-300)) * 0.0 if orb.l >= 2 \
                else complex(radial(max(r, 1e-12)))
            total += g * complex(sph_harm_y(l_out, m_out, theta, phi))
        grad[sigma] = total
    return OrbitalValue(value=value, gradient_cyclic=grad)


def _overlap_scale(orb_a: BoundOrbital, orb_b: BoundOrbital) -> float:
    return orb_a.Z / orb_a.n + orb_b.Z / orb_b.n


def radial_integral(orb_a: BoundOrbital, orb_b: BoundOrbital, power: int = 1,
                    n_points: int = 64) -> float:
    """Integral R_{n_b l_b}(r) r^power R_{n_a l_a}(r) r^2 dr on [0, inf).

    Gauss-Laguerre with the exponent of the product absorbed into the
    substitution, so hydrogenic integrands are polynomials and the rule is
    essentially exact.
    """
    if orb_a.Z != orb_b.Z:
        raise DomainError("orbitals must share the nuclear charge")
    return float(integrate_semi_infinite(
        lambda r: radial_R(orb_b, r) * r ** power * radial_R(orb_a, r) * r ** 2,
        _overlap_scale(orb_a, orb_b), n_points))


def dipole_radial_integral(orb_a: BoundOrbital, orb_b: BoundOrbital) -> float:
    """Radial dipole integral between two orbitals of the same atom."""
    return radial_integral(orb_a, orb_b, power=1)
