import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WAVELENGTH_28GHZ
from mmscatter.lobes import (
    Direction,
    LobeModel,
    LobeParams,
    NormalizationMode,
    RadioLink,
    ScatterGeometry,
    lobe_gain,
    normalization_f,
    pattern_sweep,
    received_scatter_power,
    scattered_field_sq,
    single_lobe_norm,
)

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


def make_geom(theta_i_deg=30.0, psi_r_deg=25.0, psi_i_deg=75.0, r_i=1.5, r_s=2.0, extent=0.7, theta_s_deg=40.0):
    return ScatterGeometry(
        r_i=r_i,
        r_s=r_s,
        theta_i=math.radians(theta_i_deg),
        theta_s=math.radians(theta_s_deg),
        psi_r=math.radians(psi_r_deg),
        psi_i=math.radians(psi_i_deg),
        surface_extent=extent,
    )


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


class TestLobeGain:
    def test_anchors(self):
        assert lobe_gain(0.0, 1) == 1.0
        assert lobe_gain(0.0, 10) == 1.0
        assert lobe_gain(math.pi / 2, 2) == pytest.approx(0.25, rel=1e-15)
        assert lobe_gain(math.pi, 5) == pytest.approx(0.0, abs=1e-30)

    def test_monotone_in_psi(self):
        for alpha in (1, 4, 10):
            values = [lobe_gain(math.radians(p), alpha) for p in range(0, 181, 2)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_alpha(self):
        psi = math.radians(50.0)
        values = [lobe_gain(psi, a) for a in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_error(self):
        with pytest.raises(ValueError):
            lobe_gain(-0.01, 3)


class TestNormalization:
    def test_hemisphere_alpha1_normal_incidence(self):
        # closed form for the hemisphere integral of (1+cos)/2: 3*pi/2
        got = normalization_f(single(0.1, 1), 0.0, NormalizationMode.HEMISPHERE)
        assert got == pytest.approx(3.0 * math.pi / 2.0, rel=1e-14)

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
    def test_zero_s_scatters_nothing(self, paper_link):
        assert scattered_field_sq(single(0.0, 4), make_geom(), paper_link) == 0.0

    def test_inverse_square_pair(self, paper_link):
        near = scattered_field_sq(single(0.3, 4), make_geom(r_i=1.5, r_s=1.5), paper_link)
        far = scattered_field_sq(single(0.3, 4), make_geom(r_i=3.0, r_s=3.0), paper_link)
        assert near / far == pytest.approx(16.0, rel=1e-12)

    def test_frozen_transcription_value(self, paper_link):
        # independent high-precision transcription of the single-lobe formula
        # (S=0.3, alpha_R=4, theta_i=30 deg, psi_R=0, r_i=r_s=1.5, l=1,
        #  K from 10 dBm / 15 dBi, hemisphere normalization)
        geom = make_geom(theta_i_deg=30.0, psi_r_deg=0.0, psi_i_deg=60.0, r_i=1.5, r_s=1.5, extent=1.0, theta_s_deg=30.0)
        got = scattered_field_sq(single(0.3, 4), geom, paper_link, NormalizationMode.HEMISPHERE)
        assert got == pytest.approx(0.12594525392857644, rel=1e-14)

    def test_dual_mix_component_decomposition(self, paper_link):
        # result(mix) splits into mix-weighted forward and backward lobes
        # under the shared normalization, to 1e-12
        geom = make_geom()
        for lam in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            params = dual(0.4, 3, 7, lam)
            full = scattered_field_sq(params, geom, paper_link)
            norm = normalization_f(params, geom.theta_i)
            base = (
                (params.s_coeff * paper_link.k_const / (geom.r_i * geom.r_s)) ** 2
                * geom.surface_extent
                * math.cos(geom.theta_i)
                / norm
            )
            forward = base * lobe_gain(geom.psi_r, params.alpha_r)
            backward = base * lobe_gain(geom.psi_i, params.alpha_i)
            assert abs(full - (lam * forward + (1.0 - lam) * backward)) <= 1e-12 * max(full, 1.0)

    def test_specular_peak_dominance(self, paper_link):
        peak = scattered_field_sq(single(0.3, 5), make_geom(psi_r_deg=0.0), paper_link)
        for psi in range(1, 181, 6):
            off = scattered_field_sq(single(0.3, 5), make_geom(psi_r_deg=float(psi)), paper_link)
            assert peak >= off

    def test_full_grid_finite_nonnegative(self, paper_link):
        for theta_deg in range(1, 90, 1):
            theta = math.radians(theta_deg)
            geom = ScatterGeometry(
                r_i=1.5, r_s=1.5, theta_i=theta, theta_s=theta, psi_r=0.0, psi_i=min(2 * theta, math.pi)
            )
            for alpha in range(1, 11):
                value = scattered_field_sq(single(0.3, alpha), geom, paper_link)
                assert math.isfinite(value) and value >= 0.0
                for tenths in range(0, 11):
                    lam = round(tenths * 0.1, 10)
                    value = scattered_field_sq(dual(0.3, alpha, 11 - alpha, lam), geom, paper_link)
                    assert math.isfinite(value) and value >= 0.0

    def test_degenerate_geometry(self):
        with pytest.raises(ValueError):
            make_geom(r_i=0.0)
        with pytest.raises(ValueError):
            make_geom(r_s=0.0)


class TestReceivedPower:
    def test_zero(self):
        assert received_scatter_power(0.0, 10**1.5, WAVELENGTH_28GHZ) == 0.0

    def test_frozen_value(self):
        got = received_scatter_power(1.0, 10**1.5, WAVELENGTH_28GHZ)
        assert got == pytest.approx(7.6627642426813431e-07, rel=1e-12)
        assert got == pytest.approx(7.66e-7, rel=1e-3)

    def test_linearity(self):
        base = received_scatter_power(2.5, 10.0, WAVELENGTH_28GHZ)
        assert received_scatter_power(25.0, 10.0, WAVELENGTH_28GHZ) == pytest.approx(10.0 * base, rel=1e-14)

    def test_negative_error(self):
        with pytest.raises(ValueError):
            received_scatter_power(-1.0, 10.0, WAVELENGTH_28GHZ)


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
            pattern_sweep(materials_db.get("rough_wall"), single(0.0, 4), paper_link, Direction.SPECULAR, [0.0])
        with pytest.raises(ValueError):
            pattern_sweep(materials_db.get("rough_wall"), single(0.0, 4), paper_link, Direction.SPECULAR, [90.0])

    def test_fixed_s_override(self, materials_db, paper_link):
        mat = materials_db.get("rough_wall")
        fixed = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.SPECULAR, [30.0], fixed_s=0.5)[0]
        theory = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.SPECULAR, [30.0])[0]
        assert fixed.p_r_watts != theory.p_r_watts

    def test_specular_not_below_incident_single_lobe(self, materials_db, paper_link):
        mat = materials_db.get("smooth_wall")
        grid = [float(t) for t in range(5, 90, 5)]
        spec = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.SPECULAR, grid)
        inc = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.INCIDENT, grid)
        for s_row, i_row in zip(spec, inc):
            assert s_row.p_r_watts >= i_row.p_r_watts

    def test_material_smoke_caches(self, materials_db, paper_link):
        # second call must hit the normalization cache and agree exactly
        mat = materials_db.get("marble_wall")
        a = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.SPECULAR, [20.0, 40.0])
        b = pattern_sweep(mat, single(0.0, 4), paper_link, Direction.SPECULAR, [20.0, 40.0])
        assert [r.p_r_watts for r in a] == [r.p_r_watts for r in b]
