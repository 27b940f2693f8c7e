import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from twistatom.errors import DomainError
from twistatom.specfun import (QuadratureRule, WignerIndex, bessel_j,
                               build_quadrature, clebsch_gordan,
                               gaunt_coefficient, spherical_bessel_j,
                               sph_harm_y, wigner_small_d)


def rotated_harmonic_oracle(l, m, mp, theta, n_theta=80, n_phi=128):
    """d^l_{mm'}(theta) from the overlap of a rotated spherical harmonic.

    Independent of the factorial-sum implementation: integrates
    Y_{lm}(Ry(theta) n) Y*_{lm'}(n) over the sphere by quadrature.
    """
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    th = np.arccos(x)
    ph = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    ct, st = math.cos(theta), math.sin(theta)
    nx = np.sin(TH) * np.cos(PH)
    ny = np.sin(TH) * np.sin(PH)
    nz = np.cos(TH)
    rx = ct * nx + st * nz
    rz = -st * nx + ct * nz
    th_r = np.arccos(np.clip(rz, -1, 1))
    ph_r = np.arctan2(ny, rx)
    f = sph_harm_y(l, m, th_r, ph_r) * np.conj(sph_harm_y(l, mp, TH, PH))
    val = np.sum(wx[:, None] * f) * (2.0 * math.pi / n_phi)
    return np.conj(val)


def bessel_series_oracle(m, x, terms=60):
    total = 0.0
    for j in range(terms):
        total += (-1.0) ** j * (x / 2.0) ** (m + 2 * j) / (
            math.factorial(j) * math.factorial(m + j))
    return total


def spherical_series_oracle(L, x, terms=40):
    # ascending series j_L(x) = sum_k (-x^2/2)^k / (k! (2L+2k+1)!!) * x^L
    total = 0.0
    for k in range(terms):
        dfact = 1.0
        for n in range(2 * L + 2 * k + 1, 0, -2):
            dfact *= n
        total += (-0.5 * x * x) ** k / (math.factorial(k) * dfact)
    return x ** L * total


class TestWignerSmallD:
    def test_identity_at_zero(self):
        for l in range(5):
            for m in range(-l, l + 1):
                for mp in range(-l, l + 1):
                    d = wigner_small_d(WignerIndex(l, m, mp), 0.0)
                    assert abs(d - (1.0 if m == mp else 0.0)) < 1e-15

    def test_l1_closed_form(self):
        assert wigner_small_d(WignerIndex(1, 1, 1), 0.0) == pytest.approx(1.0, abs=1e-15)
        assert wigner_small_d(WignerIndex(1, 1, 1), math.pi / 2) == pytest.approx(0.5, abs=1e-14)

    def test_against_rotated_harmonic_oracle(self):
        val = wigner_small_d(WignerIndex(2, 2, 1), 0.3)
        oracle = rotated_harmonic_oracle(2, 2, 1, 0.3)
        assert abs(oracle.imag) < 1e-12
        assert abs(val - oracle.real) < 1e-12

    @pytest.mark.parametrize("l", range(5))
    def test_unitarity(self, l):
        for theta in np.linspace(0.0, math.pi, 50):
            for m in range(-l, l + 1):
                s = sum(wigner_small_d(WignerIndex(l, m, mp), theta) ** 2
                        for mp in range(-l, l + 1))
                assert abs(s - 1.0) < 1e-12

    def test_index_symmetry(self):
        for l in range(5):
            for m in range(-l, l + 1):
                for mp in range(-l, l + 1):
                    a = wigner_small_d(WignerIndex(l, m, mp), 0.81)
                    b = wigner_small_d(WignerIndex(l, mp, m), 0.81)
                    assert abs(a - (-1.0) ** (m - mp) * b) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            WignerIndex(1, 2, 0)
        with pytest.raises(DomainError):
            WignerIndex(-1, 0, 0)


class TestBessel:
    def test_trivial_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_negative_order_reflection(self):
        for m in range(1, 6):
            for x in (0.4, 2.2, 9.7):
                assert bessel_j(-m, x) == pytest.approx((-1.0) ** m * bessel_j(m, x), abs=1e-14)

    def test_first_zero_of_j4_vs_series(self):
        lo, hi = 7.0, 8.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bessel_j(4, lo) * bessel_j(4, mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert abs(bessel_series_oracle(4, root)) < 1e-10

    def test_recurrence(self):
        for m in range(1, 9):
            for x in np.linspace(0.1, 20.0, 25):
                res = bessel_j(m - 1, x) + bessel_j(m + 1, x) - 2 * m / x * bessel_j(m, x)
                assert abs(res) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(0, float("nan"))

    def test_matches_jv_on_both_sides_of_switch(self):
        dense = np.linspace(0.0, 200.0, 4001)
        negative = np.linspace(-60.0, 0.0, 1201)
        for n in range(-40, 41):
            a = abs(n)
            x = np.concatenate([dense, negative, np.linspace(a - 1.0, a + 1.0, 201),
                                [0.0, a, a - 1e-9, a + 1e-9, -a, -a - 1e-9, -a + 1e-9]])
            assert np.max(np.abs(bessel_j(n, x) - sp.jv(n, x))) <= 1e-14, n

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-20, 20), st.floats(-100.0, 100.0))
    @example(2, 2.0)
    @example(-7, -7.0 - 1e-9)
    @example(20, 100.0)
    def test_matches_jv_property(self, n, x):
        assert abs(bessel_j(n, x) - sp.jv(n, x)) <= 1e-14

    def test_scalar_in_scalar_out(self):
        for n in (0, 1, -3, 5):
            for x in (7.5, np.float64(0.5), np.array(12.0)):
                value = bessel_j(n, x)
                assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
                assert value == pytest.approx(sp.jv(n, float(x)), abs=1e-14)


class TestSphericalBessel:
    def test_trivial(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(1, 0.0) == 0.0

    def test_series_oracle(self):
        assert spherical_bessel_j(2, 1.0) == pytest.approx(
            spherical_series_oracle(2, 1.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            spherical_bessel_j(2, -1.0)


def gaunt_quadrature_oracle(l1, m1, l2, m2, l3, m3, n=60):
    x, w = np.polynomial.legendre.leggauss(n)
    th = np.arccos(x)
    ph = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    f = (sph_harm_y(l1, m1, TH, PH) * sph_harm_y(l2, m2, TH, PH)
         * sph_harm_y(l3, m3, TH, PH))
    return float(np.real(np.sum(w[:, None] * f) * (2.0 * math.pi / len(ph))))


class TestGaunt:
    def test_constant_harmonics(self):
        assert gaunt_coefficient(0, 0, 0, 0, 0, 0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-14)

    def test_parity_selection(self):
        assert gaunt_coefficient(1, 0, 1, 0, 1, 0) == 0.0

    def test_example_value_vs_quadrature(self):
        g = gaunt_coefficient(1, 1, 1, -1, 0, 0)
        assert abs(g - gaunt_quadrature_oracle(1, 1, 1, -1, 0, 0)) < 1e-10

    def test_all_l_up_to_two_vs_quadrature(self):
        for l1 in range(3):
            for l2 in range(3):
                for l3 in range(3):
                    for m1 in range(-l1, l1 + 1):
                        for m2 in range(-l2, l2 + 1):
                            for m3 in range(-l3, l3 + 1):
                                g = gaunt_coefficient(l1, m1, l2, m2, l3, m3)
                                q = gaunt_quadrature_oracle(l1, m1, l2, m2, l3, m3)
                                assert abs(g - q) < 1e-10

    def test_invalid_indices(self):
        with pytest.raises(DomainError):
            gaunt_coefficient(1, 2, 0, 0, 1, -2)


class TestClebschGordan:
    def test_orthogonality_row(self):
        # sum over (m1, m2) of C^2 = 1 for each (j3, m3)
        for j3 in (0, 1, 2):
            for m3 in range(-j3, j3 + 1):
                s = sum(clebsch_gordan(1, m1, 1, m3 - m1, j3, m3) ** 2
                        for m1 in (-1, 0, 1) if abs(m3 - m1) <= 1)
                assert s == pytest.approx(1.0, abs=1e-13)


class TestQuadrature:
    def test_two_point_legendre(self):
        rule = build_quadrature("finite-interval", 2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_legendre_polynomial_exactness(self):
        rule = build_quadrature("finite-interval", 16)
        val = np.sum(rule.weights * rule.nodes ** 10)
        assert val == pytest.approx(2.0 / 11.0, abs=1e-14)

    def test_laguerre_moment(self):
        rule = build_quadrature("semi-infinite-exponential", 32)
        val = np.sum(rule.weights * rule.nodes ** 4)
        assert val == pytest.approx(24.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            build_quadrature("finite-interval", 1)

    def test_rules_are_shared_and_read_only(self):
        rule = build_quadrature("semi-infinite-exponential", 64)
        assert build_quadrature("semi-infinite-exponential", 64) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights *= 2.0

    def test_rule_invariants(self):
        for kind in ("finite-interval", "semi-infinite-exponential"):
            rule = build_quadrature(kind, 24)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    def test_mismatched_rule_rejected(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([1.0]),
                           kind="finite-interval")
