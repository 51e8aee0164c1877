import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WAVELENGTH_28GHZ
from mmscatter.geometry import SurfacePaths
from mmscatter.lobes import (
    ALPHA_MAX,
    ALPHA_MIN,
    SWEEP_RANGE_M,
    LobeModel,
    LobeParams,
    NormalizationMode,
    RadioLink,
    _hemisphere_cos_fractions,
    element_constant,
    lobe_mix,
    mixed_power,
    normalization_f,
    pattern_sweep,
    single_lobe_norm,
)
from mmscatter.materials import IncidenceContext, initial_scattering_coefficient

def single(s, alpha_r):
    return LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=s, alpha_r=alpha_r)


def dual(s, alpha_r, alpha_i, lam):
    return LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=s, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)


REFERENCE_THETAS_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 89.9)


def hemisphere_lobe_integral(alpha, theta_i):
    """Solid-angle integral of the specular lobe over the upward hemisphere.

    Tensor rule: 40-node Gauss-Legendre in theta_s on [0, pi/2] times the
    48-point periodic trapezoid in phi, which is exact for the lobe's
    trigonometric polynomial of degree alpha <= 10 in phi.
    """
    x, w = np.polynomial.legendre.leggauss(40)
    ts = (x + 1.0) * math.pi / 4.0
    wt = w * math.pi / 4.0
    ps = np.arange(48) * (2.0 * math.pi / 48)
    tt, pp = np.meshgrid(ts, ps, indexing="ij")
    cos_psi_r = math.sin(theta_i) * np.sin(tt) * np.cos(pp) + math.cos(theta_i) * np.cos(tt)
    integrand = ((1.0 + cos_psi_r) / 2.0) ** alpha * np.sin(tt)
    return float(wt @ integrand.sum(axis=1)) * (2.0 * math.pi / 48)


def line_lobe_integral(alpha, theta_i):
    """In-plane integral of the lobe with |sin theta_s| weighting.

    Composite 8-node Gauss-Legendre on 16 panels per half-interval, split
    at theta_s = 0 where |sin| has its kink.
    """
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-math.pi / 2, math.pi / 2, 33)
    half = np.diff(edges)[:, None] / 2.0
    ts = (edges[:-1, None] + half * (x + 1.0)).ravel()
    wt = (half * w).ravel()
    return float(wt @ (((1.0 + np.cos(ts - theta_i)) / 2.0) ** alpha * np.abs(np.sin(ts))))


def rx_scale(link):
    """G_r lambda^2 / (480 pi^2): received power per unit |E_s|^2."""
    return link.g_r * link.wavelength**2 / (480.0 * math.pi**2)


# the indices of pattern_sweep's pair of sweeps
INCIDENT, SPECULAR = 0, 1


def sweep_power(material, params, link, direction, theta_deg, mode=NormalizationMode.HEMISPHERE, fixed_s=0.3):
    return pattern_sweep(material, params, link, [theta_deg], mode, fixed_s=fixed_s)[direction][0]


def forward_lobe_ratio(material, alpha, theta_deg, link):
    """Single-lobe incident / specular sweep power: the lobe gain at psi_R = 2 theta_i.

    Both receivers see the element at the same distances and incidence
    angle, and the specular one sits on the lobe axis (gain 1).
    """
    params = single(0.3, alpha)
    incident = sweep_power(material, params, link, INCIDENT, theta_deg)
    return incident / sweep_power(material, params, link, SPECULAR, theta_deg)


class TestLobeParams:
    def test_single_rejects_dual_fields(self):
        with pytest.raises(ValueError):
            LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=0.3, alpha_r=4, alpha_i=2)
        with pytest.raises(ValueError):
            LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=0.3, alpha_r=4, lambda_mix=0.5)

    def test_dual_requires_both(self):
        with pytest.raises(ValueError):
            LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=0.3, alpha_r=4)
        with pytest.raises(ValueError):
            LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=0.3, alpha_r=4, alpha_i=2, lambda_mix=1.5)

    def test_alpha_ranges(self):
        with pytest.raises(ValueError):
            single(0.3, 0)
        with pytest.raises(ValueError):
            single(0.3, 11)
        with pytest.raises(ValueError):
            single(0.3, 4.0)

    def test_s_range(self):
        with pytest.raises(ValueError):
            single(1.0, 4)
        with pytest.raises(ValueError):
            single(-0.1, 4)

    @settings(max_examples=200)
    @given(
        s=st.floats(0.0, 1.0, exclude_max=True),
        alpha_r=st.integers(1, 10),
        alpha_i=st.integers(1, 10),
        lam=st.floats(0.0, 1.0),
        model=st.sampled_from(LobeModel),
    )
    def test_from_shape_inverts_shape(self, s, alpha_r, alpha_i, lam, model):
        params = single(s, alpha_r) if model is LobeModel.SINGLE_LOBE else dual(s, alpha_r, alpha_i, lam)
        assert LobeParams.from_shape(params.model, params.s_coeff, params.shape) == params


class TestLobeGain:
    # the lobe shape ((1 + cos psi) / 2)^alpha as pattern_sweep applies it

    def test_anchors(self, materials_db, paper_link):
        wall = materials_db.get("rough_wall")
        assert forward_lobe_ratio(wall, 3, 30.0, paper_link) == pytest.approx(0.421875, rel=1e-14)
        assert forward_lobe_ratio(wall, 2, 45.0, paper_link) == pytest.approx(0.25, rel=1e-14)
        assert forward_lobe_ratio(wall, 5, 89.99, paper_link) == pytest.approx(0.0, abs=1e-30)

    def test_monotone_in_psi(self, materials_db, paper_link):
        wall = materials_db.get("rough_wall")
        for alpha in (1, 4, 10):
            values = [forward_lobe_ratio(wall, alpha, float(t), paper_link) for t in range(1, 90)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_alpha(self, materials_db, paper_link):
        wall = materials_db.get("rough_wall")
        values = [forward_lobe_ratio(wall, a, 25.0, paper_link) for a in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))


def hemisphere_power_series(alpha):
    """Exact q_m of F_hemi / 2pi = sum_m q_m cos(m theta_i), by a second derivation.

    With c = cos(theta_i) and x = cos(theta_s), the azimuthal ring integral
    of ((1 + c x + sqrt(1-c^2) sqrt(1-x^2) cos phi)/2)^alpha over 2pi is
        2pi 2^-alpha sum_{k even} C(alpha,k) C(k,k/2) 2^-k (1 + c x)^(alpha-k) ((1-c^2)(1-x^2))^(k/2);
    integrating over x in [0, 1] leaves a polynomial in c, and
    c^p = 2^-p sum_j C(p,j) cos((p-2j) theta_i) turns it into the cosine basis.
    """
    in_c = [Fraction(0)] * (alpha + 1)
    for k in range(0, alpha + 1, 2):
        n = k // 2
        ring = Fraction(math.comb(alpha, k) * math.comb(k, n), 2 ** (alpha + k))
        for j in range(alpha - k + 1):
            # int_0^1 x^j (1-x^2)^n dx, times the c^j coefficient of (1 + c x)^(alpha-k)
            x_integral = sum(Fraction((-1) ** i * math.comb(n, i), j + 2 * i + 1) for i in range(n + 1))
            for i in range(n + 1):
                in_c[j + 2 * i] += ring * math.comb(alpha - k, j) * x_integral * (-1) ** i * math.comb(n, i)
    q = [Fraction(0)] * (alpha + 1)
    for p, coeff in enumerate(in_c):
        for j in range(p + 1):
            q[abs(p - 2 * j)] += coeff * Fraction(math.comb(p, j), 2**p)
    return q


class TestNormalization:
    @pytest.mark.parametrize("alpha", range(1, 11))
    def test_hemisphere_normal_incidence(self, alpha):
        # 2pi int_0^1 ((1+x)/2)^alpha dx = 4pi (1 - 2^-(alpha+1)) / (alpha+1)
        got = normalization_f(single(0.1, alpha), 0.0, NormalizationMode.HEMISPHERE)
        assert got == pytest.approx(4.0 * math.pi * (1.0 - 2.0 ** -(alpha + 1)) / (alpha + 1), rel=1e-15)

    @pytest.mark.parametrize("alpha", range(1, 11))
    def test_hemisphere_coefficients_equal_the_power_series(self, alpha):
        numerators, d = _hemisphere_cos_fractions(alpha)
        exact = [Fraction(n, d) for n in numerators]
        assert exact == hemisphere_power_series(alpha)
        assert all(exact[m] == 0 for m in range(2, alpha + 1, 2))

    @pytest.mark.parametrize(
        ("mode", "reference"),
        [(NormalizationMode.HEMISPHERE, hemisphere_lobe_integral), (NormalizationMode.PAPER_LINE, line_lobe_integral)],
    )
    def test_matches_reference_integral(self, mode, reference):
        thetas = np.radians(REFERENCE_THETAS_DEG)
        for alpha in range(1, 11):
            got = single_lobe_norm(mode, alpha, thetas)
            assert got.shape == thetas.shape
            for theta_i, value in zip(thetas, got):
                assert value == pytest.approx(reference(alpha, theta_i), rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(alpha=st.integers(1, 10), theta_i=st.floats(0.0, math.pi / 2, exclude_max=True))
    def test_hemisphere_density_is_normalized(self, alpha, theta_i):
        norm = normalization_f(single(0.1, alpha), theta_i, NormalizationMode.HEMISPHERE)
        assert norm > 0.0
        assert hemisphere_lobe_integral(alpha, theta_i) / norm == pytest.approx(1.0, rel=1e-12)

    def test_paperline_matches_fine_trapezoid(self):
        theta_i = math.radians(30.0)
        xs = np.linspace(-math.pi / 2, math.pi / 2, 1_000_001)
        ys = ((1.0 + np.cos(xs - theta_i)) / 2.0) ** 2 * np.abs(np.sin(xs))
        oracle = float(np.trapezoid(ys, xs))
        got = normalization_f(single(0.1, 2), theta_i, NormalizationMode.PAPER_LINE)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_dual_mix_degenerates(self):
        theta_i = math.radians(35.0)
        for mode in NormalizationMode:
            forward_only = normalization_f(dual(0.1, 3, 8, 1.0), theta_i, mode)
            assert forward_only == pytest.approx(normalization_f(single(0.1, 3), theta_i, mode), rel=1e-14)
            back_only = normalization_f(dual(0.1, 3, 8, 0.0), theta_i, mode)
            assert back_only == pytest.approx(normalization_f(single(0.1, 8), theta_i, mode), rel=1e-14)

    def test_hemisphere_density_integrates_to_one(self):
        # composite-Simpson check over the upward hemisphere in solid angle
        def density_integral(params, theta_i):
            n_t, n_p = 2000, 2000
            ts = np.linspace(0.0, math.pi / 2, n_t + 1)
            ps = np.linspace(0.0, 2.0 * math.pi, n_p + 1)
            tt, pp = np.meshgrid(ts, ps, indexing="ij")
            cos_psi_r = np.sin(theta_i) * np.sin(tt) * np.cos(pp) + np.cos(theta_i) * np.cos(tt)
            g = ((1.0 + cos_psi_r) / 2.0) ** params.alpha_r
            if params.model is LobeModel.DUAL_LOBE:
                cos_psi_i = -np.sin(theta_i) * np.sin(tt) * np.cos(pp) + np.cos(theta_i) * np.cos(tt)
                g = params.lambda_mix * g + (1.0 - params.lambda_mix) * (
                    (1.0 + cos_psi_i) / 2.0
                ) ** params.alpha_i
            integrand = g * np.sin(tt) / normalization_f(params, theta_i, NormalizationMode.HEMISPHERE)

            def simpson_weights(n):
                w = np.ones(n + 1)
                w[1:-1:2] = 4.0
                w[2:-1:2] = 2.0
                return w

            wt = simpson_weights(n_t) * (math.pi / 2 / n_t / 3.0)
            wp = simpson_weights(n_p) * (2.0 * math.pi / n_p / 3.0)
            return float(wt @ integrand @ wp)

        assert density_integral(single(0.1, 4), math.radians(30.0)) == pytest.approx(1.0, abs=1e-6)
        assert density_integral(dual(0.1, 2, 9, 0.3), math.radians(50.0)) == pytest.approx(1.0, abs=1e-6)

    def test_theta_range_error(self):
        with pytest.raises(ValueError):
            normalization_f(single(0.1, 2), math.pi / 2)


class TestScatteredField:
    def test_zero_s_scatters_nothing(self, materials_db, paper_link):
        grid = [float(t) for t in range(1, 90)]
        for params in (single(0.0, 4), dual(0.0, 2, 9, 0.3)):
            for powers in pattern_sweep(materials_db.get("rough_wall"), params, paper_link, grid, fixed_s=0.0):
                assert powers == [0.0] * len(grid)

    def test_inverse_square_pair(self, paper_link):
        near = element_constant(paper_link, 1.5, 1.5, math.cos(0.4), 0.7)
        far = element_constant(paper_link, 3.0, 3.0, math.cos(0.4), 0.7)
        assert near / far == pytest.approx(16.0, rel=1e-12)

    def test_frozen_transcription_value(self, materials_db, paper_link):
        # independent high-precision transcription of the single-lobe formula
        # (S=0.3, alpha_R=4, theta_i=30 deg, psi_R=0, r_i=r_s=1.5, l=1,
        #  K from 10 dBm / 15 dBi, hemisphere normalization)
        assert SWEEP_RANGE_M == 1.5
        power = sweep_power(materials_db.get("rough_wall"), single(0.3, 4), paper_link, SPECULAR, 30.0)
        assert power / rx_scale(paper_link) == pytest.approx(0.12594525392857644, rel=1e-14)

    def test_dual_mix_component_decomposition(self, materials_db, paper_link):
        # result(mix) splits into mix-weighted forward and backward lobes
        # under the shared normalization, to 1e-12; the incident receiver
        # sits at psi_R = 2 theta_i and psi_i = 0
        theta = math.radians(30.0)
        for lam in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            params = dual(0.4, 3, 7, lam)
            wall = materials_db.get("rough_wall")
            full = sweep_power(wall, params, paper_link, INCIDENT, 30.0, fixed_s=0.4)
            base = (
                (0.4 * paper_link.k_const / (1.5 * 1.5)) ** 2
                * math.cos(theta)
                / normalization_f(params, theta)
                * rx_scale(paper_link)
            )
            forward = base * ((1.0 + math.cos(2.0 * theta)) / 2.0) ** 3
            backward = base
            assert abs(full - (lam * forward + (1.0 - lam) * backward)) <= 1e-12 * full

    def test_specular_peak_dominance(self, materials_db, paper_link):
        # the specular receiver sits on the lobe axis, the incident one at psi_R = 2 theta_i
        wall = materials_db.get("rough_wall")
        for theta_deg in range(1, 90, 3):
            peak = sweep_power(wall, single(0.3, 5), paper_link, SPECULAR, float(theta_deg))
            off = sweep_power(wall, single(0.3, 5), paper_link, INCIDENT, float(theta_deg))
            assert peak >= off

    def test_full_grid_finite_nonnegative(self, materials_db, paper_link):
        grid = [float(t) for t in range(1, 90)]
        wall = materials_db.get("rough_wall")
        for alpha in range(1, 11):
            shapes = [single(0.3, alpha)] + [dual(0.3, alpha, 11 - alpha, round(k * 0.1, 10)) for k in range(11)]
            for params in shapes:
                for powers in pattern_sweep(wall, params, paper_link, grid, fixed_s=0.3):
                    for p_r in powers:
                        assert math.isfinite(p_r) and p_r >= 0.0

    def test_degenerate_geometry(self):
        # the kernel's geometry rejects a Tx on an element, a Tx that does not
        # illuminate the surface, and a receiver behind the wall plane
        normal = np.array([1.0, 0.0, 0.0])
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(ValueError):
            SurfacePaths(np.array([0.0, 0.5, 0.0]), points, normal)
        with pytest.raises(ValueError):
            SurfacePaths(np.array([-1.0, 0.0, 0.0]), points, normal)
        paths = SurfacePaths(np.array([1.0, -0.5, 0.0]), points, normal)
        with pytest.raises(ValueError):
            paths.receiver(np.array([[-0.5, 0.5, 0.0]]))
        with pytest.raises(ValueError):
            paths.receiver(points[1:])


class TestReceivedPower:
    # element_constant carries K^2 and the receive factor G_r lambda^2 / (480 pi^2)

    def test_zero(self, paper_link):
        # an element seen edge-on from the Tx (cos theta_i = 0) scatters nothing
        assert element_constant(paper_link, 1.5, 1.5, 0.0, 1.0) == 0.0

    def test_frozen_value(self, paper_link):
        got = element_constant(paper_link, 1.0, 1.0, 1.0, 1.0) / paper_link.k_const**2
        assert got == pytest.approx(7.6627642426813431e-07, rel=1e-12)
        assert got == pytest.approx(7.66e-7, rel=1e-3)

    def test_linearity(self):
        low = RadioLink(p_t=0.01, g_t=10.0, g_r=10.0, wavelength=WAVELENGTH_28GHZ)
        high = RadioLink(p_t=0.01, g_t=10.0, g_r=100.0, wavelength=WAVELENGTH_28GHZ)
        base = element_constant(low, 1.5, 2.0, 0.8, 0.25)
        assert element_constant(high, 1.5, 2.0, 0.8, 0.25) == pytest.approx(10.0 * base, rel=1e-14)
        assert element_constant(low, 1.5, 2.0, 0.8, 2.5) == pytest.approx(10.0 * base, rel=1e-14)
        power = mixed_power(0.3, base, 0.4, 0.5, 0.2, 2.0, 3.0)
        assert mixed_power(0.3, 10.0 * base, 0.4, 0.5, 0.2, 2.0, 3.0) == pytest.approx(10.0 * power, rel=1e-14)


class TestRadioLink:
    def test_k_const_consistency(self):
        link = RadioLink(p_t=0.01, g_t=10**1.5, g_r=10**1.5, wavelength=WAVELENGTH_28GHZ)
        assert abs(link.k_const - math.sqrt(60.0 * link.p_t * link.g_t)) < 1e-12 * link.k_const

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioLink(p_t=0.0, g_t=1.0, g_r=1.0, wavelength=0.01)
        with pytest.raises(ValueError):
            RadioLink(p_t=0.01, g_t=1.0, g_r=1.0, wavelength=0.0)


class TestPatternSweep:
    def test_grid_validation(self, materials_db, paper_link):
        with pytest.raises(ValueError):
            pattern_sweep(materials_db.get("rough_wall"), single(0.0, 4), paper_link, [0.0])
        with pytest.raises(ValueError):
            pattern_sweep(materials_db.get("rough_wall"), single(0.0, 4), paper_link, [90.0])

    def test_fixed_s_override(self, materials_db, paper_link):
        mat = materials_db.get("rough_wall")
        fixed = pattern_sweep(mat, single(0.0, 4), paper_link, [30.0], fixed_s=0.5)[SPECULAR][0]
        theory = pattern_sweep(mat, single(0.0, 4), paper_link, [30.0])[SPECULAR][0]
        assert fixed != theory

    def test_specular_not_below_incident_single_lobe(self, materials_db, paper_link):
        mat = materials_db.get("smooth_wall")
        grid = [float(t) for t in range(5, 90, 5)]
        inc, spec = pattern_sweep(mat, single(0.0, 4), paper_link, grid)
        for s_p, i_p in zip(spec, inc):
            assert s_p >= i_p

    def test_material_smoke_caches(self, materials_db, paper_link):
        # repeat calls agree exactly
        mat = materials_db.get("marble_wall")
        a = pattern_sweep(mat, single(0.0, 4), paper_link, [20.0, 40.0])
        b = pattern_sweep(mat, single(0.0, 4), paper_link, [20.0, 40.0])
        assert a == b

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize("params", [single(0.0, 4), dual(0.0, 2, 9, 0.3)], ids=["single", "dual"])
    def test_matches_written_out_formula(self, materials_db, paper_link, params, mode):
        # the per-angle formula, written out here with the theory S of each angle:
        # P_r = (S K / r^2)^2 cos(theta) / F * gain * G_r lambda^2 / (480 pi^2)
        grid = [float(t) for t in range(1, 90)]
        for name in materials_db.names():
            material = materials_db.get(name)
            for direction, powers in enumerate(pattern_sweep(material, params, paper_link, grid, mode)):
                assert len(powers) == len(grid)
                for theta_deg, p_r in zip(grid, powers):
                    theta = math.radians(theta_deg)
                    s = initial_scattering_coefficient(material, IncidenceContext(theta, paper_link.wavelength)).s_coeff
                    off_axis = (1.0 + math.cos(2.0 * theta)) / 2.0
                    forward, back = (1.0, off_axis) if direction == SPECULAR else (off_axis, 1.0)
                    gain = forward**params.alpha_r
                    if params.model is LobeModel.DUAL_LOBE:
                        gain = params.lambda_mix * gain + (1.0 - params.lambda_mix) * back**params.alpha_i
                    field_sq = (s * paper_link.k_const / 1.5**2) ** 2 * math.cos(theta) / normalization_f(
                        params, theta, mode
                    ) * gain
                    assert p_r == pytest.approx(field_sq * rx_scale(paper_link), rel=1e-14)


# a 5 x 5 grid of surface points on the wall plane x = 0, whose outward normal is +x
WALL_NORMAL = np.array([1.0, 0.0, 0.0])
WALL_POINTS = np.array([[0.0, y, z] for y in np.linspace(-1.0, 1.0, 5) for z in np.linspace(-1.0, 1.0, 5)])


def antenna(distance, theta_deg, phi_deg):
    """A point in front of the wall, theta_deg from its normal."""
    theta, phi = math.radians(theta_deg), math.radians(phi_deg)
    return distance * np.array([math.cos(theta), math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)])


def lobe_norm(params, mode, theta_i):
    """Normalization F of params at the incidence angles theta_i (rad)."""
    norm = single_lobe_norm(mode, params.alpha_r, theta_i)
    if params.model is LobeModel.DUAL_LOBE:
        norm = lobe_mix(params.lambda_mix, norm, single_lobe_norm(mode, params.alpha_i, theta_i))
    return norm


def element_powers(tx, rx, params, link, mode):
    """Received power over each wall point from tx to rx, with cos(theta_i) and cos(theta_s)."""
    paths = SurfacePaths(tx, WALL_POINTS, WALL_NORMAL)
    r_s, cos_psi_r, cos_psi_i = (row[0] for row in paths.receiver(rx[None, :]))
    cos_ts = paths.cos_ts(rx)
    gain = ((1.0 + cos_psi_r) / 2.0) ** params.alpha_r
    if params.model is LobeModel.DUAL_LOBE:
        gain = lobe_mix(params.lambda_mix, gain, ((1.0 + cos_psi_i) / 2.0) ** params.alpha_i)
    const = element_constant(link, paths.r_i, r_s, paths.cos_ti, 1.0)
    power = params.s_coeff * params.s_coeff * const * gain / lobe_norm(params, mode, np.arccos(paths.cos_ti))
    return power, paths.cos_ti, cos_ts


class TestReciprocity:
    """Swapping Tx and Rx scales each element's power by cos(ti) F(ts) / (cos(ts) F(ti)).

    The lobe gains and path lengths are symmetric in the two antennas; the
    incidence cosine and the normalization F are taken on the Tx side only,
    so the model is not reciprocal.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        mode=st.sampled_from(list(NormalizationMode)),
        dual_lobe=st.booleans(),
        alpha_r=st.integers(1, 10),
        alpha_i=st.integers(1, 10),
        lam=st.floats(0.0, 1.0),
        s=st.floats(0.05, 0.95),
        tx=st.tuples(st.floats(0.5, 5.0), st.floats(0.0, 80.0), st.floats(0.0, 360.0)),
        rx=st.tuples(st.floats(0.5, 5.0), st.floats(0.0, 80.0), st.floats(0.0, 360.0)),
    )
    def test_swap_ratio_identity(self, mode, dual_lobe, alpha_r, alpha_i, lam, s, tx, rx, paper_link):
        params = dual(s, alpha_r, alpha_i, lam) if dual_lobe else single(s, alpha_r)
        tx_pos, rx_pos = antenna(*tx), antenna(*rx)
        forward, cos_ti, cos_ts = element_powers(tx_pos, rx_pos, params, paper_link, mode)
        backward, _, _ = element_powers(rx_pos, tx_pos, params, paper_link, mode)
        f_i = lobe_norm(params, mode, np.arccos(cos_ti))
        f_s = lobe_norm(params, mode, np.arccos(cos_ts))
        assert np.allclose(forward / backward, cos_ti * f_s / (cos_ts * f_i), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    def test_model_is_not_reciprocal(self, mode, paper_link):
        tx_pos, rx_pos = antenna(1.5, 30.0, 180.0), antenna(1.5, 70.0, 0.0)
        forward, _, _ = element_powers(tx_pos, rx_pos, single(0.3, 4), paper_link, mode)
        backward, _, _ = element_powers(rx_pos, tx_pos, single(0.3, 4), paper_link, mode)
        assert np.all(np.abs(forward / backward - 1.0) > 0.01)


@pytest.mark.parametrize("alpha", range(ALPHA_MIN, ALPHA_MAX + 1))
def test_power_into_a_buffer_equals_the_operator(alpha):
    # the passes raise lobe bases in [0, 1] with np.power(..., out=); ** may take its own fast path
    base = np.concatenate([np.linspace(0.0, 1.0, 10_001), [5e-324, 1e-310, 2.2250738585072014e-308, 1.0 - 2**-53]])
    buf = np.empty_like(base)
    assert np.power(base, alpha, out=buf).tobytes() == (base**alpha).tobytes()
