import math

import numpy as np
import pytest

from twistatom import matrixel
from twistatom.errors import ConfigError, DomainError, NumericsError
from twistatom.hydrogenic import (BoundOrbital, dipole_radial_integral,
                                  evaluate_orbital, orbital_energy, radial_R)
from twistatom.matrixel import (TransitionChannel, _collinear_cached,
                                collinear_matrix_element, normalized_amplitude_sweep,
                                plane_wave_matrix_element, rotated_amplitude)
from twistatom.photon import ALPHA, polarization_vector
from twistatom.specfun import sph_harm_y


def direct_matrix_element(channel, m_b, m_a, theta_k, phi_k,
                          n_r=32, n_theta=20, n_phi=20):
    """Brute-force 3D quadrature of the plane-wave matrix element.

    Evaluates conj(phi_b) exp(ik.r) (eps . p phi_a) on a spherical product
    grid, with the Cartesian momentum components rebuilt from the
    independently validated cyclic gradients.  No Rayleigh expansion, Gaunt
    contraction, or Wigner rotation is involved.
    """
    a = BoundOrbital(channel.orbital_a.Z, channel.orbital_a.n,
                     channel.orbital_a.l, m_a)
    b = BoundOrbital(channel.orbital_b.Z, channel.orbital_b.n,
                     channel.orbital_b.l, m_b)
    omega = channel.omega
    kmag = omega * ALPHA
    kvec = kmag * np.array([math.sin(theta_k) * math.cos(phi_k),
                            math.sin(theta_k) * math.sin(phi_k),
                            math.cos(theta_k)])
    eps = polarization_vector(theta_k, phi_k, channel.helicity)

    xr, wr = np.polynomial.laguerre.laggauss(n_r)
    scale = a.Z / a.n + b.Z / b.n
    r = xr / scale
    wr = wr * np.exp(xr) / scale
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    th = np.arccos(xt)
    ph = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    wp = 2.0 * math.pi / n_phi

    total = 0.0 + 0.0j
    for ri, wri in zip(r, wr):
        for ti, wti in zip(th, wt):
            st, ct = math.sin(ti), math.cos(ti)
            for pi in ph:
                point = ri * np.array([st * math.cos(pi), st * math.sin(pi), ct])
                va = evaluate_orbital(a, point)
                g = va.gradient_cyclic
                px = (g[-1] - g[1]) / math.sqrt(2.0)
                py = 1j * (g[-1] + g[1]) / math.sqrt(2.0)
                pz = g[0]
                pb = complex(radial_R(b, ri) * sph_harm_y(b.l, b.m, ti, pi))
                total += (wri * wti * wp * ri ** 2 * np.conj(pb)
                          * np.exp(1j * np.dot(kvec, point))
                          * (eps[0] * px + eps[1] * py + eps[2] * pz))
    return 2.0 * math.pi * 1j / math.sqrt(2.0 * omega) * total


@pytest.fixture(scope="module")
def channel_1s2p():
    a = BoundOrbital(1, 1, 0, 0)
    b = BoundOrbital(1, 2, 1, 1)
    return TransitionChannel(a, b, 1, orbital_energy(b) - orbital_energy(a))


class TestCollinear:
    def test_selection_rule(self, channel_1s2p):
        for m_b in (-1, 0):
            assert abs(collinear_matrix_element(channel_1s2p, 0, m_b)) < 1e-12
        assert abs(collinear_matrix_element(channel_1s2p, 0, 1)) > 1e-3

    def test_dipole_limit(self):
        # k -> 0: |M| approaches the length-form dipole value through the
        # momentum-energy (hypervirial) relation
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 2, 1, 1)
        omega = 1e-6 / ALPHA
        ch = TransitionChannel(a, b, 1, omega)
        got = abs(collinear_matrix_element(ch, 0, 1))
        de = orbital_energy(b) - orbital_energy(a)
        expect = (2.0 * math.pi / math.sqrt(2.0 * omega)
                  * de * dipole_radial_integral(a, b) / math.sqrt(3.0))
        assert got == pytest.approx(expect, rel=1e-5)

    def test_cache_is_bounded(self):
        maxsize = _collinear_cached.cache_info().maxsize
        for i in range(maxsize + 50):
            # m_b' != m_a' + helicity returns at once, so each call is cheap
            _collinear_cached(1, 1, 0, 2, 1, 1, 0.3 + 1e-6 * i, 0, 0)
        assert _collinear_cached.cache_info().currsize <= maxsize

    def test_partial_wave_cap(self, monkeypatch):
        # l_b + l_a + 1 = 41 > L_MAX_HARD: refused before any radial quadrature
        def no_quadrature(*args):
            raise AssertionError("quadrature ran past the L cap")

        monkeypatch.setattr(matrixel, "integrate_semi_infinite", no_quadrature)
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 41, 40, 1)
        ch = TransitionChannel(a, b, 1, orbital_energy(b) - orbital_energy(a))
        assert b.l + a.l + 1 > matrixel.L_MAX_HARD
        with pytest.raises(NumericsError, match="L cap"):
            collinear_matrix_element(ch, 0, 1)

    def test_out_of_range_m_rejected(self, channel_1s2p):
        with pytest.raises(DomainError):
            collinear_matrix_element(channel_1s2p, 1, 0)

    def test_channel_validation(self):
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(2, 2, 1, 0)
        with pytest.raises(DomainError):
            TransitionChannel(a, b, 1, 0.375)
        with pytest.raises(DomainError):
            TransitionChannel(a, BoundOrbital(1, 2, 1, 0), 0, 0.375)
        with pytest.raises(DomainError):
            TransitionChannel(a, BoundOrbital(1, 2, 1, 0), 1, -0.1)


class TestPlaneWaveElement:
    def test_matches_direct_quadrature_1s2p(self, channel_1s2p):
        theta_k, phi_k = 0.37, 1.1
        for m_b in (1, 0, -1):
            got = plane_wave_matrix_element(channel_1s2p, m_b, 0, theta_k, phi_k)
            oracle = direct_matrix_element(channel_1s2p, m_b, 0, theta_k, phi_k)
            assert abs(got - oracle) < 1e-10 * max(1.0, abs(oracle))

    def test_matches_direct_quadrature_2p3d(self):
        a = BoundOrbital(1, 2, 1, 1)
        b = BoundOrbital(1, 3, 2, 2)
        ch = TransitionChannel(a, b, 1, orbital_energy(b) - orbital_energy(a))
        got = plane_wave_matrix_element(ch, 2, 1, 0.25, 0.6)
        oracle = direct_matrix_element(ch, 2, 1, 0.25, 0.6)
        assert abs(got - oracle) < 1e-10 * max(1.0, abs(oracle))

    def test_azimuthal_phase(self, channel_1s2p):
        v0 = plane_wave_matrix_element(channel_1s2p, 0, 0, 0.3, 0.0)
        v1 = plane_wave_matrix_element(channel_1s2p, 0, 0, 0.3, 0.8)
        # m_a - m_b = 0 phase convention
        assert v1 == pytest.approx(v0, abs=1e-14)
        w0 = plane_wave_matrix_element(channel_1s2p, 1, 0, 0.3, 0.0)
        w1 = plane_wave_matrix_element(channel_1s2p, 1, 0, 0.3, 0.8)
        assert w1 == pytest.approx(w0 * np.exp(-1j * 0.8), abs=1e-14)


class TestRotatedAmplitude:
    def test_reduces_to_collinear_at_zero(self, channel_1s2p):
        got = rotated_amplitude(channel_1s2p, 1, 0, 0.0)
        # i^{m_a - m_b} = i^{-1} = -i
        expect = -1j * collinear_matrix_element(channel_1s2p, 0, 1)
        assert got == pytest.approx(expect, abs=1e-14)

    def test_magnitude_matches_plane_wave(self, channel_1s2p):
        for th in (0.1, 0.5, 1.2):
            for m_b in (1, 0, -1):
                r = abs(rotated_amplitude(channel_1s2p, m_b, 0, th))
                p = abs(plane_wave_matrix_element(channel_1s2p, m_b, 0, th, 0.4))
                assert r == pytest.approx(p, abs=1e-14)

    def test_domain(self, channel_1s2p):
        with pytest.raises(DomainError):
            rotated_amplitude(channel_1s2p, 1, 0, math.pi / 2)
        with pytest.raises(DomainError):
            rotated_amplitude(channel_1s2p, 1, 0, -0.1)


class TestSweep:
    def test_theta_zero_row(self, channel_1s2p):
        table = normalized_amplitude_sweep(channel_1s2p, 0, [1, 0, -1],
                                           np.array([0.0]))
        assert table.shape == (1, 3)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table[0, 1] < 1e-12 and table[0, 2] < 1e-12

    def test_columns_are_magnitudes(self, channel_1s2p):
        table = normalized_amplitude_sweep(channel_1s2p, 0, [1, 0, -1],
                                           np.linspace(0.0, 1.0, 5))
        assert np.all(table >= 0.0)
