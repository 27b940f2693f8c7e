import math

import numpy as np
import pytest

from twistatom.cmstate import (CMTwistedState, KinematicConfig,
                               cm_state_value, evaluate_cm_grid,
                               infinite_mass_channel, paraxial_transfer,
                               pick_winding_radius, solve_resonance,
                               synthesize_cm_state, winding_number)
from twistatom.errors import DomainError, KinematicsError, NumericsError
from twistatom.hydrogenic import BoundOrbital, orbital_energy
from twistatom.matrixel import TransitionChannel
from twistatom.photon import (ALPHA, PlaneWavePhoton, TwistedPhoton,
                              bessel_profile)

M_HYDROGEN = 1836.15267343


def make_config(m_gamma=4, theta_k=0.2, m_b=1, P_z=0.0, M=M_HYDROGEN,
                geometry="counter", tilt=(0.0, 0.0), m_a=0):
    a = BoundOrbital(1, 1, 0, m_a)
    b = BoundOrbital(1, 2, 1, m_b)
    omega0 = orbital_energy(b) - orbital_energy(a)
    k = omega0 * ALPHA
    photon = TwistedPhoton(k_z=k * math.cos(theta_k), kappa=k * math.sin(theta_k),
                           m_gamma=m_gamma, helicity=1)
    channel = TransitionChannel(a, b, 1, omega0)
    P_a = np.array([tilt[0], tilt[1], P_z])
    return KinematicConfig(M_total=M, P_a=P_a, photon=photon,
                           channel=channel, geometry=geometry)


class TestResonance:
    def test_atom_at_rest_recoil_shift(self):
        cfg = make_config(P_z=0.0)
        omega = solve_resonance(cfg)
        de = 0.375
        # analytic leading recoil: omega = de + (de*alpha)^2 / (2M)
        expect = de + (de * ALPHA) ** 2 / (2.0 * M_HYDROGEN)
        assert omega == pytest.approx(expect, abs=1e-12)

    def test_head_on_doppler_sign(self):
        # counter-propagating atom: E_b - E_a = k_z (k_z - 2 P cos(theta)) / 2M < 0
        # for P >> k_z, so the resonant photon energy sits below the bare line
        cfg = make_config(P_z=10.0, theta_k=0.2, geometry="counter")
        omega = solve_resonance(cfg)
        de = 0.375
        k = de * ALPHA
        expect = de + (k * math.cos(0.2) * (k * math.cos(0.2) - 2.0 * 10.0)
                       + (k * math.sin(0.2)) ** 2) / (2.0 * M_HYDROGEN)
        assert omega < de
        # leading-order expansion; the solver keeps a ~6e-10 self-consistency term
        assert omega == pytest.approx(expect, abs=5e-9)

    def test_co_geometry_flips_shift(self):
        om_counter = solve_resonance(make_config(P_z=10.0, geometry="counter"))
        om_co = solve_resonance(make_config(P_z=10.0, geometry="co"))
        assert om_counter < 0.375 < om_co

    def test_energy_shift_passthrough(self):
        cfg = make_config()
        d = 1e-5
        assert solve_resonance(cfg, energy_shift=d) - solve_resonance(cfg) == \
            pytest.approx(d, abs=1e-10)

    def test_deexcitation_rejected(self):
        a = BoundOrbital(1, 2, 1, 0)
        b = BoundOrbital(1, 1, 0, 0)
        ch = TransitionChannel(a, b, 1, 0.375)
        k = 0.375 * ALPHA
        photon = TwistedPhoton(k_z=k, kappa=0.1 * k, m_gamma=1, helicity=1)
        cfg = KinematicConfig(M_total=M_HYDROGEN, P_a=np.zeros(3),
                              photon=photon, channel=ch)
        with pytest.raises(KinematicsError):
            solve_resonance(cfg)


class TestSynthesis:
    def test_energy_momentum_bookkeeping(self):
        cfg = make_config(P_z=5.0, theta_k=0.2)
        st = synthesize_cm_state(cfg)
        omega = solve_resonance(cfg)
        k = omega * ALPHA
        assert st.kappa == pytest.approx(k * math.sin(0.2), rel=1e-12)
        assert st.P_zb == pytest.approx(5.0 - k * math.cos(0.2), rel=1e-12)
        assert st.E_b == pytest.approx((st.P_zb ** 2 + st.kappa ** 2)
                                       / (2.0 * M_HYDROGEN), rel=1e-12)
        # energy conservation: E_a + eps_a + omega = E_b + eps_b
        lhs = 5.0 ** 2 / (2.0 * M_HYDROGEN) - 0.5 + omega
        assert lhs == pytest.approx(st.E_b - 0.125, abs=1e-10)

    def test_tam_projection(self):
        st = synthesize_cm_state(make_config(m_gamma=4, m_b=1))
        assert st.tam_projection == 0 + 4 - 1
        st = synthesize_cm_state(make_config(m_gamma=2, m_b=-1))
        assert st.tam_projection == 3

    def test_plane_wave_branch(self):
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 2, 1, 1)
        omega0 = 0.375
        photon = PlaneWavePhoton(np.array([0.0, 0.0, omega0 * ALPHA]), 1, omega0)
        ch = TransitionChannel(a, b, 1, omega0)
        cfg = KinematicConfig(M_total=M_HYDROGEN, P_a=np.zeros(3),
                              photon=photon, channel=ch)
        st = synthesize_cm_state(cfg)
        assert st.form == "plane-wave"
        assert st.tam_projection is None
        omega = solve_resonance(cfg)
        assert np.allclose(st.momentum, [0.0, 0.0, omega * ALPHA], atol=1e-15)


class TestGridAndWinding:
    def test_azimuthal_eigenvalue(self):
        st = synthesize_cm_state(make_config(m_gamma=4, m_b=1))
        nu = st.tam_projection
        r = 2.5 / st.kappa
        h = 5e-4 / nu
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        f0 = cm_state_value(st, r * np.cos(ang), r * np.sin(ang))
        fp = cm_state_value(st, r * np.cos(ang + h), r * np.sin(ang + h))
        fm = cm_state_value(st, r * np.cos(ang - h), r * np.sin(ang - h))
        lz = -1j * (fp - fm) / (2.0 * h) / f0
        assert np.max(np.abs(lz - nu)) / nu < 1e-6

    def test_transverse_laplacian_eigenvalue(self):
        st = synthesize_cm_state(make_config(m_gamma=2, m_b=0))
        kap = st.kappa
        h = 0.01 / kap
        x0, y0 = 1.7 / kap, 0.9 / kap

        def f(x, y):
            return cm_state_value(st, np.array([x]), np.array([y]))[0]

        # 4th-order 5-point stencil in each direction
        def d2(g, t0):
            return (-g(t0 + 2 * h) + 16 * g(t0 + h) - 30 * g(t0)
                    + 16 * g(t0 - h) - g(t0 - 2 * h)) / (12.0 * h * h)

        lap = d2(lambda x: f(x, y0), x0) + d2(lambda y: f(x0, y), y0)
        got = -lap / f(x0, y0)
        assert abs(got - kap ** 2) / kap ** 2 < 1e-4

    def test_winding_matches_tam(self):
        st = synthesize_cm_state(make_config(m_gamma=4, m_b=-1))
        window = 14.0 / st.kappa
        grid = evaluate_cm_grid(st, window=window, resolution=513)
        r = pick_winding_radius(st, window)
        w, res = winding_number(grid, radius=r)
        assert w == st.tam_projection == 5
        assert res < 0.1

    def test_winding_with_impact_parameter(self):
        st = synthesize_cm_state(make_config(m_gamma=2, m_b=1))
        window = 30.0 / st.kappa
        b = (2.0 / st.kappa, -1.0 / st.kappa)
        grid = evaluate_cm_grid(st, window=window, resolution=513,
                                impact_parameter=b)
        r = pick_winding_radius(st, window)
        w, _ = winding_number(grid, center=b, radius=r)
        assert w == st.tam_projection == 1

    def test_radius_fits_around_impact_offset(self):
        st = synthesize_cm_state(make_config(m_gamma=4, m_b=1))
        window = 12.0 / st.kappa
        for b in ((0.4 * window, 0.0), (-0.1 * window, 0.3 * window)):
            grid = evaluate_cm_grid(st, window=window, resolution=145,
                                    impact_parameter=b)
            r = pick_winding_radius(st, window, center=b)
            assert r + max(abs(b[0]), abs(b[1])) < 0.5 * window
            assert winding_number(grid, center=b, radius=r)[0] == 3
        with pytest.raises(DomainError):
            pick_winding_radius(st, window, center=(0.5 * window, 0.0))

    def test_winding_guards(self):
        st = synthesize_cm_state(make_config(m_gamma=4, m_b=1))
        grid = evaluate_cm_grid(st, window=10.0 / st.kappa, resolution=257)
        with pytest.raises(DomainError):
            winding_number(grid, radius=100.0 / st.kappa)
        with pytest.raises(DomainError):
            winding_number(grid, radius=1.0 / st.kappa, n_samples=64)
        with pytest.raises(DomainError):
            winding_number(grid, radius=-1.0)

    def test_grid_requires_twisted_form(self):
        st = CMTwistedState(E_b=0.0, P_zb=0.0, kappa=1.0, tam_projection=None,
                            tilt=np.zeros(2), amplitude_scale=1.0,
                            form="plane-wave", momentum=np.zeros(3))
        with pytest.raises(DomainError):
            cm_state_value(st, np.array([0.0]), np.array([0.0]))


class TestInfiniteMass:
    def test_truth_table(self):
        a = BoundOrbital(1, 1, 0, 0)
        b = BoundOrbital(1, 2, 1, 0)
        ch = TransitionChannel(a, b, 1, 0.375)
        for m_gamma in range(-3, 4):
            for m_b in (-1, 0, 1):
                chan = TransitionChannel(a, BoundOrbital(1, 2, 1, m_b), 1, 0.375)
                allowed, amp = infinite_mass_channel(chan, m_gamma, 0, m_b, 0.1)
                assert allowed == (m_gamma == m_b - 0)
                if not allowed:
                    assert amp == 0.0


class TestParaxialTransfer:
    def test_bessel_profile_matches_cm_grid(self):
        cfg = make_config(m_gamma=4, m_b=1, theta_k=0.2)
        st = synthesize_cm_state(cfg)
        prof = bessel_profile(st.kappa, st.tam_projection)
        window = 12.0 / st.kappa
        got = paraxial_transfer(prof, cfg, window=window, resolution=65)
        ref = evaluate_cm_grid(st, window=window, resolution=65)
        diff = got.values / st.amplitude_scale - ref.values
        assert np.max(np.abs(diff)) < 1e-8

    def test_requires_collinear(self):
        cfg = make_config(tilt=(0.5, 0.0))
        prof = bessel_profile(1e-4, 3)
        with pytest.raises(DomainError):
            paraxial_transfer(prof, cfg)
