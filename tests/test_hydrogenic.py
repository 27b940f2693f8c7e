import math

import numpy as np
import pytest

from twistatom.errors import DomainError
from twistatom.hydrogenic import (BoundOrbital, dipole_radial_integral,
                                  evaluate_orbital, momentum_sigma_parts,
                                  orbital_energy, radial_R, radial_R_prime,
                                  radial_integral)
from twistatom.specfun import sph_harm_y


class TestBoundOrbital:
    def test_validation(self):
        with pytest.raises(DomainError):
            BoundOrbital(0, 1, 0, 0)
        with pytest.raises(DomainError):
            BoundOrbital(1, 1, 1, 0)
        with pytest.raises(DomainError):
            BoundOrbital(1, 2, 1, 2)

    def test_energy(self):
        assert orbital_energy(BoundOrbital(1, 1, 0, 0)) == -0.5
        assert orbital_energy(BoundOrbital(1, 2, 1, 0)) == -0.125
        assert orbital_energy(BoundOrbital(2, 1, 0, 0)) == -2.0


class TestRadial:
    def test_1s_closed_form(self):
        r = np.linspace(0.0, 10.0, 50)
        assert np.allclose(radial_R(BoundOrbital(1, 1, 0, 0), r),
                           2.0 * np.exp(-r), atol=1e-14)

    def test_2p_closed_form(self):
        r = np.linspace(0.0, 10.0, 50)
        expect = r * np.exp(-r / 2.0) / (2.0 * math.sqrt(6.0))
        assert np.allclose(radial_R(BoundOrbital(1, 2, 1, 0), r), expect, atol=1e-14)

    @pytest.mark.parametrize("nl", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_normalization(self, nl):
        n, l = nl
        orb = BoundOrbital(1, n, l, 0)
        assert radial_integral(orb, orb, power=0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        a = BoundOrbital(1, 2, 0, 0)
        b = BoundOrbital(1, 3, 0, 0)
        assert abs(radial_integral(a, b, power=0)) < 1e-12

    def test_derivative_vs_finite_difference(self):
        for nl in [(1, 0), (2, 1), (3, 2), (4, 1)]:
            orb = BoundOrbital(1, nl[0], nl[1], 0)
            r = np.linspace(0.3, 12.0, 40)
            h = 1e-6
            fd = (radial_R(orb, r + h) - radial_R(orb, r - h)) / (2.0 * h)
            assert np.allclose(radial_R_prime(orb, r), fd, atol=1e-7)
            # r = 0: second-order one-sided difference; dR_21/dr(0) = 0.2041
            at_0 = (-3.0 * radial_R(orb, 0.0) + 4.0 * radial_R(orb, h)
                    - radial_R(orb, 2.0 * h)) / (2.0 * h)
            assert radial_R_prime(orb, 0.0) == pytest.approx(at_0, abs=1e-7)

    def test_dipole_1s2p_analytic(self):
        # <R_21 | r | R_10> = 128 sqrt(6) / 243 for Z = 1
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 2, 1, 0)
        assert dipole_radial_integral(a, b) == pytest.approx(
            128.0 * math.sqrt(6.0) / 243.0, rel=1e-12)

    def test_mismatched_Z_rejected(self):
        with pytest.raises(DomainError):
            radial_integral(BoundOrbital(1, 1, 0, 0), BoundOrbital(2, 2, 1, 0))


class TestGradient:
    @pytest.mark.parametrize("orb", [
        BoundOrbital(1, 1, 0, 0), BoundOrbital(1, 2, 1, 1),
        BoundOrbital(1, 3, 2, -1), BoundOrbital(2, 2, 1, 0)])
    def test_cyclic_momentum_vs_finite_difference(self, orb):
        point = np.array([0.7, -0.4, 0.9])
        h = 1e-5

        def phi(p):
            p = np.asarray(p, dtype=float)
            r = np.linalg.norm(p)
            th = math.acos(p[2] / r)
            ph = math.atan2(p[1], p[0])
            return complex(radial_R(orb, r) * sph_harm_y(orb.l, orb.m, th, ph))

        grad = np.array([
            (phi(point + h * e) - phi(point - h * e)) / (2.0 * h)
            for e in np.eye(3)])
        p_fd = {
            +1: -1j * (-(grad[0] + 1j * grad[1]) / math.sqrt(2.0)),
            0: -1j * grad[2],
            -1: -1j * ((grad[0] - 1j * grad[1]) / math.sqrt(2.0)),
        }
        val = evaluate_orbital(orb, point)
        for sigma in (-1, 0, 1):
            assert val.gradient_cyclic[sigma] == pytest.approx(p_fd[sigma], abs=5e-8)

    def test_sigma_parts_magnetic_numbers(self):
        orb = BoundOrbital(1, 2, 1, 1)
        for sigma in (-1, 0, 1):
            for l_out, m_out, _ in momentum_sigma_parts(orb, sigma):
                assert m_out == orb.m + sigma
                assert l_out in (orb.l - 1, orb.l + 1)

    def test_hypervirial_identity(self):
        # <b| p_0 |a> = i (eps_b - eps_a) <b| z |a> for 1s -> 2p(m=0)
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 2, 1, 0)
        de = orbital_energy(b) - orbital_energy(a)
        (l_out, m_out, radial), = momentum_sigma_parts(a, 0)
        assert (l_out, m_out) == (1, 0)
        r = np.linspace(1e-6, 60.0, 200001)
        p_form = np.trapezoid(radial_R(b, r) * radial(r) * r ** 2, r)
        # z = r cos(theta) with <Y_10| cos |Y_00> = 1/sqrt(3)
        length_form = 1j * de * dipole_radial_integral(a, b) / math.sqrt(3.0)
        assert abs(p_form - length_form) < 1e-8 * abs(length_form)

    def test_origin_is_finite(self):
        val = evaluate_orbital(BoundOrbital(1, 2, 1, 0), np.zeros(3))
        assert val.value == 0.0
        for sigma in (-1, 0, 1):
            assert np.isfinite(val.gradient_cyclic[sigma].real)

    def test_bad_point_rejected(self):
        with pytest.raises(DomainError):
            evaluate_orbital(BoundOrbital(1, 1, 0, 0), [1.0, float("inf"), 0.0])
