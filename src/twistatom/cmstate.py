"""Kinematics and synthesis of the final center-of-mass state.

The collinear convention is counter-propagating: the atom moves along +z with
P_{z,a} and the absorbed photon momentum enters as P_{z,b} = P_{z,a} - k_z.
A geometry flag switches to co-propagation.  All momenta and energies are in
atomic units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, KinematicsError, NumericsError
from .hydrogenic import orbital_energy
from .matrixel import TransitionChannel, rotated_amplitude
from .photon import (ALPHA, ParaxialProfile, PlaneWavePhoton, TwistedPhoton,
                     paraxial_scalar)
from .specfun import bessel_j

DEFAULT_GRID_POINTS = 257


@dataclass(frozen=True)
class KinematicConfig:
    M_total: float
    P_a: np.ndarray
    photon: object  # TwistedPhoton or PlaneWavePhoton
    channel: TransitionChannel
    geometry: str = "counter"  # counter | co

    def __post_init__(self):
        if self.M_total <= 0:
            raise DomainError("atom mass must be positive")
        p = np.asarray(self.P_a, dtype=float)
        if p.shape != (3,):
            raise DomainError("P_a must be a 3-vector")
        object.__setattr__(self, "P_a", p)
        if self.geometry not in ("counter", "co"):
            raise DomainError(f"geometry must be 'counter' or 'co', got {self.geometry!r}")
        if not isinstance(self.photon, (TwistedPhoton, PlaneWavePhoton)):
            raise DomainError("photon must be TwistedPhoton or PlaneWavePhoton")


@dataclass(frozen=True)
class CMTwistedState:
    E_b: float
    P_zb: float
    kappa: float
    tam_projection: int | None
    tilt: np.ndarray
    amplitude_scale: complex
    form: str = "twisted"  # twisted | plane-wave
    momentum: np.ndarray | None = None  # plane-wave form only

    def __post_init__(self):
        t = np.asarray(self.tilt, dtype=float)
        if t.shape != (2,):
            raise DomainError("tilt must be a 2-vector")
        object.__setattr__(self, "tilt", t)

    @property
    def theta_Pb(self) -> float:
        return math.atan2(self.kappa, self.P_zb)


@dataclass(frozen=True)
class ComplexGrid:
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    z_slice: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.real)) or not np.all(np.isfinite(self.values.imag)):
            raise NumericsError("grid contains non-finite values")


def _sign(geometry: str) -> float:
    return -1.0 if geometry == "counter" else 1.0


def solve_resonance(config: KinematicConfig, energy_shift: float = 0.0,
                    tol: float = 1e-12, max_iter: int = 500) -> float:
    """Photon energy satisfying E_a + eps_a + omega = E_b + eps_b.

    Fixed-point iteration seeded at the bare transition energy; the recoil
    enters through E_b evaluated at the photon momentum of the current
    iterate.  energy_shift is added to the electronic transition energy
    (e.g. a Zeeman sublevel shift).
    """
    ch = config.channel
    de = orbital_energy(ch.orbital_b) - orbital_energy(ch.orbital_a) + energy_shift
    if de <= 0:
        raise KinematicsError("transition is not an excitation")
    M = config.M_total
    E_a = float(np.dot(config.P_a, config.P_a)) / (2.0 * M)
    s = _sign(config.geometry)

    if isinstance(config.photon, TwistedPhoton):
        theta_k = config.photon.theta_k

        def E_b(omega):
            k = omega * ALPHA
            pz = config.P_a[2] + s * k * math.cos(theta_k)
            return (pz ** 2 + (k * math.sin(theta_k)) ** 2
                    + config.P_a[0] ** 2 + config.P_a[1] ** 2) / (2.0 * M)
    else:
        khat = config.photon.wave_vector / np.linalg.norm(config.photon.wave_vector)

        def E_b(omega):
            p = config.P_a + omega * ALPHA * khat
            return float(np.dot(p, p)) / (2.0 * M)

    omega = de
    for _ in range(max_iter):
        nxt = de + E_b(omega) - E_a
        if nxt <= 0:
            raise KinematicsError("no positive photon energy solves the resonance")
        if abs(nxt - omega) < tol:
            return nxt
        omega = nxt
    raise KinematicsError("resonance iteration did not converge")


def _resonant_pieces(config: KinematicConfig):
    omega = solve_resonance(config)
    channel = replace(config.channel, omega=omega)
    return omega, channel


def synthesize_cm_state(config: KinematicConfig) -> CMTwistedState:
    """Final center-of-mass state after absorption at exact resonance.

    For a twisted photon the photon momenta are re-derived from the solved
    resonance energy at the photon's opening angle, so kappa and k_z are
    consistent with energy conservation.
    """
    omega, channel = _resonant_pieces(config)
    M = config.M_total
    s = _sign(config.geometry)
    if isinstance(config.photon, PlaneWavePhoton):
        khat = config.photon.wave_vector / np.linalg.norm(config.photon.wave_vector)
        k = omega * ALPHA * khat
        p_b = config.P_a + k
        E_b = float(np.dot(p_b, p_b)) / (2.0 * M)
        kn = np.linalg.norm(k)
        theta_k = math.acos(max(-1.0, min(1.0, k[2] / kn)))
        phi_k = math.atan2(k[1], k[0])
        from .matrixel import plane_wave_matrix_element
        amp = plane_wave_matrix_element(channel, channel.orbital_b.m,
                                        channel.orbital_a.m, theta_k, phi_k)
        return CMTwistedState(E_b=E_b, P_zb=float(p_b[2]),
                              kappa=float(np.hypot(p_b[0], p_b[1])),
                              tam_projection=None, tilt=np.zeros(2),
                              amplitude_scale=amp, form="plane-wave",
                              momentum=p_b)
    photon = config.photon
    theta_k = photon.theta_k
    k = omega * ALPHA
    k_z = k * math.cos(theta_k)
    kappa = k * math.sin(theta_k)
    P_zb = config.P_a[2] + s * k_z
    tilt = config.P_a[:2].copy()
    E_b = (P_zb ** 2 + kappa ** 2 + tilt[0] ** 2 + tilt[1] ** 2) / (2.0 * M)
    nu = channel.orbital_a.m + photon.m_gamma - channel.orbital_b.m
    amp = rotated_amplitude(channel, channel.orbital_b.m,
                            channel.orbital_a.m, theta_k)
    return CMTwistedState(E_b=E_b, P_zb=P_zb, kappa=kappa,
                          tam_projection=nu, tilt=tilt,
                          amplitude_scale=amp)


def cm_state_value(state: CMTwistedState, x, y,
                   impact_parameter=(0.0, 0.0), z: float = 0.0):
    """Transverse wavefunction of the twisted CM state at points (x, y, z).

    sqrt(kappa/2pi) J_nu(kappa |R-b|) e^{i nu arg(R-b)} e^{i tilt.R}, with the
    longitudinal phase e^{i P_zb z}.
    """
    if state.form != "twisted":
        raise DomainError("cm_state_value requires a twisted state")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx, by = float(impact_parameter[0]), float(impact_parameter[1])
    dx = x - bx
    dy = y - by
    r = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx)
    nu = state.tam_projection
    vals = (math.sqrt(state.kappa / (2.0 * math.pi))
            * bessel_j(nu, state.kappa * r) * np.exp(1j * nu * phi))
    tilt_phase = np.exp(1j * (state.tilt[0] * x + state.tilt[1] * y))
    return vals * tilt_phase * np.exp(1j * state.P_zb * z)


def evaluate_cm_grid(state: CMTwistedState, window: float | None = None,
                     resolution: int = DEFAULT_GRID_POINTS,
                     impact_parameter=(0.0, 0.0), z: float = 0.0) -> ComplexGrid:
    """Cartesian grid of the CM wavefunction; window is the full width."""
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    if window is None:
        window = 12.0 / state.kappa
    if not (window > 0 and np.isfinite(window)):
        raise DomainError("window must be finite and positive")
    ax = np.linspace(-window / 2.0, window / 2.0, resolution)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    vals = cm_state_value(state, X, Y, impact_parameter, z)
    return ComplexGrid(x=ax, y=ax, values=vals, z_slice=z)


def _bilinear(grid: ComplexGrid, xs, ys):
    gx, gy = grid.x, grid.y
    if np.any(xs < gx[0]) or np.any(xs > gx[-1]) or np.any(ys < gy[0]) or np.any(ys > gy[-1]):
        raise DomainError("sampling circle leaves the grid window")
    ix = np.clip(np.searchsorted(gx, xs) - 1, 0, len(gx) - 2)
    iy = np.clip(np.searchsorted(gy, ys) - 1, 0, len(gy) - 2)
    tx = (xs - gx[ix]) / (gx[ix + 1] - gx[ix])
    ty = (ys - gy[iy]) / (gy[iy + 1] - gy[iy])
    v = grid.values
    return ((1 - tx) * (1 - ty) * v[ix, iy] + tx * (1 - ty) * v[ix + 1, iy]
            + (1 - tx) * ty * v[ix, iy + 1] + tx * ty * v[ix + 1, iy + 1])


def winding_number(grid: ComplexGrid, center=(0.0, 0.0), radius: float = 1.0,
                   n_samples: int = 1024):
    """Topological charge of the grid phase around a circle.

    Returns (winding, residual); residual is the distance of the raw phase
    sum from the nearest integer.  Raises NumericsError when the winding is
    ambiguous (residual > 0.1), which signals coarse sampling or a circle
    through an amplitude zero.
    """
    if n_samples < 256:
        raise DomainError("need at least 256 circle samples")
    if radius <= 0:
        raise DomainError("radius must be positive")
    ang = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    xs = center[0] + radius * np.cos(ang)
    ys = center[1] + radius * np.sin(ang)
    vals = _bilinear(grid, xs, ys)
    if np.any(np.abs(vals) == 0.0):
        raise NumericsError("circle passes through an exact amplitude zero")
    ph = np.angle(vals)
    diffs = np.diff(np.concatenate([ph, ph[:1]]))
    diffs = (diffs + math.pi) % (2.0 * math.pi) - math.pi
    raw = float(np.sum(diffs) / (2.0 * math.pi))
    wind = int(round(raw))
    residual = abs(raw - wind)
    if residual > 0.1:
        raise NumericsError(f"ambiguous winding: raw={raw}")
    return wind, residual


def pick_winding_radius(state: CMTwistedState, window: float,
                        start: float | None = None, center=(0.0, 0.0)) -> float:
    """Radius where |J_nu(kappa r)| is safely nonzero and the circle around
    center stays inside the window."""
    nu = abs(state.tam_projection)
    r = start if start is not None else (nu + 1.5) / state.kappa
    step = 0.2 / state.kappa
    limit = min(0.45 * window, 0.5 * window - max(abs(center[0]), abs(center[1])))
    for _ in range(200):
        if r < limit and abs(bessel_j(nu, state.kappa * r)) > 1e-3:
            return r
        r += step
        if r >= limit:
            r = 0.5 / state.kappa
    if limit < 0.45 * window:
        raise DomainError("impact offset leaves no winding circle inside the grid window")
    raise NumericsError("no safe winding radius found")


def infinite_mass_channel(channel: TransitionChannel, m_gamma: int,
                          m_a: int, m_b: int, theta_k: float = 0.0):
    """Infinite-mass selection rule: allowed iff m_gamma = m_b - m_a.

    Returns (allowed, amplitude); the amplitude is the rotated electronic
    amplitude when allowed and zero otherwise.
    """
    allowed = (m_gamma == m_b - m_a)
    amp = rotated_amplitude(channel, m_b, m_a, theta_k) if allowed else 0.0 + 0.0j
    return allowed, amp


def paraxial_transfer(profile: ParaxialProfile, config: KinematicConfig,
                      window: float | None = None,
                      resolution: int = DEFAULT_GRID_POINTS,
                      z: float = 0.0) -> ComplexGrid:
    """CM grid for a general paraxial photon profile (collinear kinematics).

    The transverse factor is the same scalar integral that shapes the photon;
    it is scaled by the rotated amplitude and carries the longitudinal
    (P_{z,a} - k_z) phase.
    """
    if not isinstance(config.photon, TwistedPhoton):
        raise DomainError("paraxial transfer needs a twisted-photon config")
    if np.hypot(config.P_a[0], config.P_a[1]) != 0.0:
        raise DomainError("paraxial transfer assumes collinear kinematics")
    state = synthesize_cm_state(config)
    if window is None:
        window = 12.0 / state.kappa
    ax = np.linspace(-window / 2.0, window / 2.0, resolution)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    scalar = paraxial_scalar(profile, X, Y)
    vals = state.amplitude_scale * scalar * np.exp(1j * state.P_zb * z)
    return ComplexGrid(x=ax, y=ax, values=vals, z_slice=z)
