"""Electronic transition matrix elements for one-photon absorption.

The collinear element M(0,0) is built by expanding exp(ikz) in spherical
Bessel functions (Rayleigh expansion), contracting the angular parts with
Gaunt coefficients, and doing the radial integrals with a scaled
Gauss-Laguerre rule.  Off-axis plane-wave components follow from the two
Wigner-d rotations of the initial and final orbitals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .hydrogenic import BoundOrbital, momentum_sigma_parts, radial_R
from .photon import ALPHA
from .specfun import (WignerIndex, gaunt_coefficient, integrate_semi_infinite,
                      spherical_bessel_j, wigner_small_d)

L_MAX_HARD = 40


@dataclass(frozen=True)
class TransitionChannel:
    orbital_a: BoundOrbital
    orbital_b: BoundOrbital
    helicity: int
    omega: float

    def __post_init__(self):
        if self.orbital_a.Z != self.orbital_b.Z:
            raise DomainError("initial and final orbitals must share Z")
        if self.helicity not in (-1, 1):
            raise DomainError(f"helicity must be +-1, got {self.helicity}")
        if self.omega <= 0:
            raise DomainError("photon energy must be positive")


@dataclass(frozen=True)
class TransitionAmplitude:
    value: complex
    m_b: int
    m_a: int
    theta_k: float
    form: str  # collinear | rotated | plane-wave


@lru_cache(maxsize=1024)  # bounded: sweeps over new omega would grow it forever
def _collinear_cached(Z: int, n_a: int, l_a: int, n_b: int, l_b: int,
                      helicity: int, omega: float,
                      m_a_prime: int, m_b_prime: int) -> complex:
    orb_a = BoundOrbital(Z, n_a, l_a, 0)
    orb_b = BoundOrbital(Z, n_b, l_b, 0)
    k = omega * ALPHA
    mu = m_a_prime + helicity
    if m_b_prime != mu:
        # exp(ikz) conserves m; p_Lambda shifts it by Lambda
        return 0.0 + 0.0j
    orb_a_m = BoundOrbital(Z, n_a, l_a, m_a_prime)
    parts = momentum_sigma_parts(orb_a_m, helicity)
    scale = Z / n_a + Z / n_b

    total = 0.0 + 0.0j
    for lp, m_out, radial_fn in parts:
        if m_out != mu:
            continue
        # the Gaunt triangle |l_b - lp| <= L <= l_b + lp ends the Rayleigh sum
        L_lo, L_hi = abs(l_b - lp), l_b + lp
        if L_hi > L_MAX_HARD:
            raise NumericsError("partial-wave sum exceeds hard L cap")
        for L in range(L_lo, L_hi + 1):
            ang = (-1.0) ** m_b_prime * gaunt_coefficient(
                l_b, -m_b_prime, L, 0, lp, mu)
            if ang == 0.0:
                continue
            radial = complex(integrate_semi_infinite(
                lambda r: radial_R(orb_b, r) * spherical_bessel_j(L, k * r)
                * radial_fn(r) * r ** 2, scale))
            total += (1j ** L) * math.sqrt(4.0 * math.pi * (2 * L + 1)) * ang * radial
    prefactor = 2.0 * math.pi * 1j / math.sqrt(2.0 * omega)
    return prefactor * total


def collinear_matrix_element(channel: TransitionChannel, m_a_prime: int,
                             m_b_prime: int) -> complex:
    """Collinear matrix element M_{m_b' m_a'}(0, 0)."""
    a, b = channel.orbital_a, channel.orbital_b
    if abs(m_a_prime) > a.l or abs(m_b_prime) > b.l:
        raise DomainError("magnetic quantum number out of range")
    return _collinear_cached(a.Z, a.n, a.l, b.n, b.l, channel.helicity,
                             channel.omega, m_a_prime, m_b_prime)


def _wigner_rotated_sum(channel: TransitionChannel, m_b: int, m_a: int,
                        theta_k: float) -> complex:
    """sum over m_b', m_a' of d^{l_b}_{m_b m_b'} d^{l_a}_{m_a m_a'} M_{m_b' m_a'}(0, 0)."""
    a, b = channel.orbital_a, channel.orbital_b
    total = 0.0 + 0.0j
    for m_b_prime in range(-b.l, b.l + 1):
        d_b = wigner_small_d(WignerIndex(b.l, m_b, m_b_prime), theta_k)
        if d_b == 0.0:
            continue
        for m_a_prime in range(-a.l, a.l + 1):
            d_a = wigner_small_d(WignerIndex(a.l, m_a, m_a_prime), theta_k)
            if d_a == 0.0:
                continue
            total += d_b * d_a * collinear_matrix_element(channel, m_a_prime, m_b_prime)
    return total


def rotated_amplitude(channel: TransitionChannel, m_b: int, m_a: int,
                      theta_k: float) -> complex:
    """Amplitude for a plane-wave component at polar angle theta_k.

    Double Wigner-d sum over the collinear elements with the i^{m_a - m_b}
    phase of the twisted-state synthesis.
    """
    if not 0.0 <= theta_k < math.pi / 2:
        raise DomainError("theta_k must lie in [0, pi/2)")
    return (1j ** (m_a - m_b)) * _wigner_rotated_sum(channel, m_b, m_a, theta_k)


def plane_wave_matrix_element(channel: TransitionChannel, m_b: int, m_a: int,
                              theta_k: float, phi_k: float) -> complex:
    """Full plane-wave matrix element M_{m_b m_a}(theta_k, phi_k)."""
    return np.exp(1j * (m_a - m_b) * phi_k) * _wigner_rotated_sum(channel, m_b, m_a, theta_k)


def normalized_amplitude_sweep(channel: TransitionChannel, m_a: int,
                               m_b_list, theta_grid) -> np.ndarray:
    """|M~_{m_b m_a}(theta)| / |M~_{1 0}(0)| over a theta grid.

    Returns an array of shape (len(theta_grid), len(m_b_list)).  Magnitudes
    are emitted; the complex values are phase-convention dependent.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    denom = abs(rotated_amplitude(channel, 1, 0, 0.0))
    if denom == 0.0:
        raise ConfigError("normalization amplitude M~_{1 0}(0) vanishes")
    out = np.empty((theta_grid.size, len(m_b_list)))
    for i, th in enumerate(theta_grid):
        for j, m_b in enumerate(m_b_list):
            out[i, j] = abs(rotated_amplitude(channel, m_b, m_a, th)) / denom
    return out
