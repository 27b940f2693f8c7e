"""Photon wavefunctions: plane-wave, twisted Bessel, and general paraxial modes.

All fields are evaluated in atomic units with c = 1/alpha.  The twisted mode
is available both in its closed Bessel form and as an azimuthal plane-wave
superposition; both are normalized to the momentum-integral convention, i.e.
the closed form carries an extra sqrt(kappa/(2 pi)) relative to the bare
three-term Bessel sum.  Overall phase is not an observable; the closed-form
phases follow the spin-basis decomposition with coefficients i^{-sigma}
d^1_{sigma Lambda}(theta_k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericsError
from .specfun import WignerIndex, bessel_j, wigner_small_d, build_quadrature

ALPHA = 7.2973525693e-3  # fine-structure constant, CODATA 2018
SPEED_OF_LIGHT = 1.0 / ALPHA

CHI = {
    +1: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    -1: np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0),
}


@dataclass(frozen=True)
class SpinVector:
    """Eigenvector chi_sigma of the spin-1 projection s_z."""
    sigma: int

    def __post_init__(self):
        if self.sigma not in (-1, 0, 1):
            raise DomainError(f"sigma must be in {{-1,0,+1}}, got {self.sigma}")

    @property
    def components(self) -> np.ndarray:
        return CHI[self.sigma].copy()


@dataclass(frozen=True)
class PlaneWavePhoton:
    wave_vector: np.ndarray
    helicity: int
    omega: float

    def __post_init__(self):
        if self.helicity not in (-1, 1):
            raise DomainError(f"helicity must be +-1, got {self.helicity}")
        k = np.asarray(self.wave_vector, dtype=float)
        object.__setattr__(self, "wave_vector", k)
        if self.omega <= 0:
            raise DomainError("photon energy must be positive")
        if abs(np.linalg.norm(k) - self.omega * ALPHA) > 1e-10 * self.omega * ALPHA:
            raise DomainError("|wave_vector| must equal omega * alpha")


@dataclass(frozen=True)
class TwistedPhoton:
    """Bessel mode with definite k_z, kappa, TAM projection and helicity."""
    k_z: float
    kappa: float
    m_gamma: int
    helicity: int
    impact_parameter: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")
        if self.k_z <= 0:
            raise DomainError("k_z must be positive")
        if self.helicity not in (-1, 1):
            raise DomainError(f"helicity must be +-1, got {self.helicity}")
        b = np.asarray(self.impact_parameter, dtype=float)
        if b.shape != (2,):
            raise DomainError("impact parameter must be a 2-vector")
        object.__setattr__(self, "impact_parameter", b)

    @property
    def theta_k(self) -> float:
        return math.atan2(self.kappa, self.k_z)

    @property
    def omega(self) -> float:
        return math.hypot(self.kappa, self.k_z) / ALPHA


def rotation_matrix(theta_k: float, phi_k: float) -> np.ndarray:
    """R = Rz(phi_k) Ry(theta_k), mapping z-hat onto k-hat."""
    ct, st = math.cos(theta_k), math.sin(theta_k)
    cp, sp = math.cos(phi_k), math.sin(phi_k)
    ry = np.array([[ct, 0, st], [0, 1, 0], [-st, 0, ct]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry


def polarization_vector(theta_k: float, phi_k: float, helicity: int) -> np.ndarray:
    """Helicity eigenvector for propagation direction (theta_k, phi_k).

    Obtained by rotating chi_Lambda with Rz(phi) Ry(theta); transverse to
    k-hat by construction.
    """
    if helicity not in (-1, 1):
        raise DomainError(f"helicity must be +-1, got {helicity}")
    if not 0.0 <= theta_k <= math.pi:
        raise DomainError("theta_k must lie in [0, pi]")
    return rotation_matrix(theta_k, phi_k) @ CHI[helicity]


def plane_wave_field(photon: PlaneWavePhoton, point) -> np.ndarray:
    """A = eps_{k Lambda} / sqrt(2 omega) * exp(i k . r)."""
    p = np.asarray(point, dtype=float)
    k = photon.wave_vector
    kn = np.linalg.norm(k)
    theta = math.acos(max(-1.0, min(1.0, k[2] / kn)))
    phi = math.atan2(k[1], k[0])
    eps = polarization_vector(theta, phi, photon.helicity)
    return eps / math.sqrt(2.0 * photon.omega) * np.exp(1j * np.dot(k, p))


def bessel_mode_field(photon: TwistedPhoton, point) -> np.ndarray:
    """Closed Bessel form of the twisted mode at a Cartesian point."""
    p = np.asarray(point, dtype=float)
    return bessel_mode_grid(photon, np.array([p[0]]), np.array([p[1]]), p[2])[0]


def bessel_mode_grid(photon: TwistedPhoton, x, y, z: float) -> np.ndarray:
    """Closed Bessel form on flat coordinate arrays; returns (n, 3) complex."""
    x = np.asarray(x, dtype=float) - photon.impact_parameter[0]
    y = np.asarray(y, dtype=float) - photon.impact_parameter[1]
    r_perp = np.hypot(x, y)
    phi_r = np.arctan2(y, x)
    theta_k = photon.theta_k
    out = np.zeros(x.shape + (3,), dtype=complex)
    for sigma in (-1, 0, 1):
        d = wigner_small_d(WignerIndex(1, sigma, photon.helicity), theta_k)
        order = photon.m_gamma - sigma
        radial = bessel_j(order, photon.kappa * r_perp)
        term = (1j ** (-sigma)) * d * radial * np.exp(1j * order * phi_r)
        out += term[..., None] * CHI[sigma]
    norm = math.sqrt(photon.kappa / (2.0 * math.pi))
    return out * norm * np.exp(1j * photon.k_z * z)


def _superposition_once(photon: TwistedPhoton, x, y, z: float, n_phi: int) -> np.ndarray:
    theta_k = photon.theta_k
    lam = photon.helicity
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    eps = np.empty((n_phi, 3), dtype=complex)
    for j, ph in enumerate(phi):
        eps[j] = polarization_vector(theta_k, ph, lam)
    # delta-reduced transverse integral: ring of radius kappa, trapezoid in phi
    weights = ((-1j) ** photon.m_gamma * np.exp(1j * photon.m_gamma * phi)
               * math.sqrt(photon.kappa / (2.0 * math.pi)) / n_phi)
    phase = np.exp(1j * photon.kappa * (np.outer(x, np.cos(phi)) + np.outer(y, np.sin(phi))))
    return (phase @ (weights[:, None] * eps)) * np.exp(1j * photon.k_z * z)


def plane_wave_superposition_grid(photon: TwistedPhoton, x, y, z: float,
                                  tol: float = 1e-8, n_phi_max: int = 2 ** 14) -> np.ndarray:
    """Twisted mode as an azimuthal quadrature over plane-wave components.

    Doubles the azimuthal sampling until successive evaluations agree to tol
    (relative to the field maximum); raises NumericsError past n_phi_max.
    """
    x = np.asarray(x, dtype=float) - photon.impact_parameter[0]
    y = np.asarray(y, dtype=float) - photon.impact_parameter[1]
    n_phi = 8 * (abs(photon.m_gamma) + 2)
    n_phi = max(32, 1 << (n_phi - 1).bit_length())
    prev = _superposition_once(photon, x, y, z, n_phi)
    while n_phi < n_phi_max:
        n_phi *= 2
        cur = _superposition_once(photon, x, y, z, n_phi)
        scale = max(np.max(np.abs(cur)), 1e-300)
        if np.max(np.abs(cur - prev)) / scale < tol:
            return cur
        prev = cur
    raise NumericsError("azimuthal superposition did not converge")


def plane_wave_superposition_field(photon: TwistedPhoton, point) -> np.ndarray:
    """Pointwise evaluation of the plane-wave superposition form."""
    p = np.asarray(point, dtype=float)
    return plane_wave_superposition_grid(
        photon, np.array([p[0] + photon.impact_parameter[0]]),
        np.array([p[1] + photon.impact_parameter[1]]), p[2])[0]


@dataclass(frozen=True)
class ParaxialProfile:
    """Transverse momentum-space amplitude a(k_perp) of a paraxial mode.

    amplitude_fn maps (kx, ky) arrays to complex amplitudes.  For
    label='bessel' the profile is the singular delta-ring mode and must be
    built through bessel_profile(); the ring parameters are stored instead of
    being sampled.
    """
    amplitude_fn: object
    label: str
    k_support: float = 0.0
    ring_kappa: float = 0.0
    ring_m: int = 0

    def __post_init__(self):
        if self.label not in ("bessel", "hermite-gauss", "airy", "custom", "gauss"):
            raise DomainError(f"unknown profile label {self.label!r}")
        if self.label == "bessel":
            if self.ring_kappa <= 0:
                raise DomainError("bessel profile needs ring_kappa > 0")
            return
        if self.k_support <= 0:
            raise DomainError("profile needs a positive support radius")
        # square-integrability probe on the declared support
        rule = build_quadrature("finite-interval", 32)
        k = 0.5 * self.k_support * (rule.nodes + 1.0)
        wk = 0.5 * self.k_support * rule.weights
        phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        kk, pp = np.meshgrid(k, phi, indexing="ij")
        a = np.asarray(self.amplitude_fn(kk * np.cos(pp), kk * np.sin(pp)))
        total = np.sum(wk[:, None] * kk * np.abs(a) ** 2) * (2.0 * math.pi / 64)
        if not np.isfinite(total):
            raise DomainError("profile is not square-integrable on its support")


def bessel_profile(kappa: float, m_oam: int) -> ParaxialProfile:
    """Delta-ring profile carrying OAM m_oam (scalar part of a Bessel mode)."""
    return ParaxialProfile(amplitude_fn=None, label="bessel",
                           ring_kappa=kappa, ring_m=m_oam)


def paraxial_scalar(profile: ParaxialProfile, x, y,
                    n_radial: int = 96, n_phi: int = 256) -> np.ndarray:
    """Scalar transverse integral of the profile at transverse points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if profile.label == "bessel":
        r = np.hypot(x, y)
        phi_r = np.arctan2(y, x)
        return (math.sqrt(profile.ring_kappa / (2.0 * math.pi))
                * bessel_j(profile.ring_m, profile.ring_kappa * r)
                * np.exp(1j * profile.ring_m * phi_r))
    rule = build_quadrature("finite-interval", n_radial)
    k = 0.5 * profile.k_support * (rule.nodes + 1.0)
    wk = 0.5 * profile.k_support * rule.weights
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    kk, pp = np.meshgrid(k, phi, indexing="ij")
    kx = kk * np.cos(pp)
    ky = kk * np.sin(pp)
    a = np.asarray(profile.amplitude_fn(kx, ky), dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        phase = np.exp(1j * (kx * x[idx] + ky * y[idx]))
        out[idx] = np.sum(wk[:, None] * kk * a * phase) * (2.0 * math.pi / n_phi) / (4.0 * math.pi ** 2)
    if not np.all(np.isfinite(out)):
        raise NumericsError("paraxial transverse quadrature diverged")
    return out


def paraxial_field(profile: ParaxialProfile, helicity: int, k_z: float, point) -> np.ndarray:
    """Paraxial vector potential chi_Lambda e^{i k_z z} times the scalar integral."""
    if helicity not in (-1, 1):
        raise DomainError(f"helicity must be +-1, got {helicity}")
    p = np.asarray(point, dtype=float)
    scalar = paraxial_scalar(profile, np.array([p[0]]), np.array([p[1]]))[0]
    return CHI[helicity] * scalar * np.exp(1j * k_z * p[2])
