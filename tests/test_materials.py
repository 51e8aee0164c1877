import math
import random

import pytest

from conftest import WAVELENGTH_28GHZ, series_i0
from mmscatter.materials import (
    IncidenceContext,
    Material,
    MaterialDatabase,
    Polarization,
    ReflectionBundle,
    bessel_i0,
    fresnel_gamma,
    initial_scattering_coefficient,
    rayleigh_factor,
)


class TestBesselI0:
    def test_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_frozen_values(self):
        # series-oracle values
        assert bessel_i0(0.26371) == pytest.approx(1.0174614531560155, rel=1e-12)
        assert bessel_i0(2.0) == pytest.approx(2.2795853023360673, rel=1e-12)

    def test_matches_series_on_dense_grid(self):
        for i in range(0, 2001):
            x = 20.0 * i / 2000
            assert bessel_i0(x) == pytest.approx(series_i0(x), rel=1e-10), x

    def test_at_least_one(self):
        for x in (0.0, 0.5, 3.0, 14.9, 15.1, 100.0, 700.0):
            assert bessel_i0(x) >= 1.0

    def test_branch_agreement_at_switch(self):
        assert bessel_i0(15.0) == pytest.approx(series_i0(15.0, terms=60), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i0(-1e-9)
        with pytest.raises(ValueError):
            bessel_i0(700.1)


class TestFresnelGamma:
    def test_no_contrast(self):
        for theta in (0.0, 0.3, 1.2):
            for pol in Polarization:
                assert fresnel_gamma(1.0, theta, pol) == 0.0

    def test_brewster_null(self):
        eps = 10.5
        brewster = math.atan(math.sqrt(eps))
        assert abs(fresnel_gamma(eps, brewster, Polarization.TM)) < 1e-14

    def test_frozen_te_value(self):
        # direct evaluation of (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
        got = fresnel_gamma(6.0, math.radians(30.0), Polarization.TE)
        assert got == pytest.approx(-0.46933761370819251, rel=1e-12)
        assert got == pytest.approx(-0.4694, abs=1e-4)

    def test_magnitude_bounded(self):
        rng = random.Random(7)
        for _ in range(500):
            eps = 1.0 + 14.0 * rng.random()
            theta = rng.random() * (math.pi / 2 - 1e-6)
            for pol in Polarization:
                assert abs(fresnel_gamma(eps, theta, pol)) <= 1.0

    def test_tm_crosses_zero_once(self):
        eps = 6.0
        values = [fresnel_gamma(eps, math.radians(t / 10.0), Polarization.TM) for t in range(0, 899)]
        crossings = sum(1 for a, b in zip(values, values[1:]) if a > 0.0 >= b or a < 0.0 <= b)
        assert crossings == 1

    def test_eps_error(self):
        with pytest.raises(ValueError):
            fresnel_gamma(0.5, 0.3)


class TestRayleighFactor:
    def test_smooth_limit(self):
        assert rayleigh_factor(0.0, math.radians(30.0), WAVELENGTH_28GHZ) == 1.0

    def test_grazing_limit(self):
        # cos(theta) -> 0 forces g -> 0 and R -> 1
        r = rayleigh_factor(5e-3, math.pi / 2 - 1e-9, WAVELENGTH_28GHZ)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_frozen_rough_wall_value(self):
        got = rayleigh_factor(0.715e-3, math.radians(30.0), WAVELENGTH_28GHZ)
        assert got == pytest.approx(0.78160596806848609, rel=1e-12)
        assert got == pytest.approx(0.7817, abs=1e-3)

    def test_decreasing_in_g(self):
        # larger h_rms at fixed angle/wavelength means larger g, smaller R
        values = [rayleigh_factor(h * 1e-4, math.radians(30.0), WAVELENGTH_28GHZ) for h in range(1, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_angle(self):
        values = [rayleigh_factor(0.715e-3, math.radians(t), WAVELENGTH_28GHZ) for t in range(0, 90)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_wavelength_error(self):
        with pytest.raises(ValueError):
            rayleigh_factor(1e-3, 0.3, 0.0)


def bundle_for(gamma, r):
    """ReflectionBundle of the split of initial_scattering_coefficient at the given Gamma and R."""
    s_coeff = math.sqrt((1.0 - r * r) * gamma * gamma)
    return ReflectionBundle(gamma=gamma, rayleigh_r=r, gamma_rough=r * gamma, s_coeff=s_coeff)


class TestRoughReflection:
    """Gamma_rough = R * Gamma, as initial_scattering_coefficient computes it and ReflectionBundle checks it."""

    def test_smooth_limit(self):
        mat = Material("mirror", eps_r=6.0, h_rms=0.0, thickness=0.01)
        bundle = initial_scattering_coefficient(mat, IncidenceContext(math.radians(30.0), WAVELENGTH_28GHZ))
        assert bundle.rayleigh_r == 1.0
        assert bundle.gamma_rough == bundle.gamma
        assert bundle_for(-0.62, 1.0).gamma_rough == -0.62

    def test_zero_gamma(self):
        # eps_r = 1 has no dielectric contrast
        mat = Material("void", eps_r=1.0, h_rms=1e-3, thickness=0.01)
        bundle = initial_scattering_coefficient(mat, IncidenceContext(math.radians(30.0), WAVELENGTH_28GHZ))
        assert bundle.gamma_rough == 0.0
        assert bundle_for(0.0, 0.8).gamma_rough == 0.0

    def test_frozen_product(self):
        assert bundle_for(-0.4694, 0.9853).gamma_rough == pytest.approx(-0.46249982, rel=1e-12)

    def test_never_exceeds_gamma(self):
        rng = random.Random(3)
        for _ in range(200):
            gamma = rng.uniform(-1.0, 1.0)
            r = rng.uniform(1e-6, 1.0)
            assert abs(bundle_for(gamma, r).gamma_rough) <= abs(gamma)
        for _ in range(200):
            mat = Material("x", eps_r=1.0 + 14.0 * rng.random(), h_rms=rng.random() * 2e-3, thickness=0.1)
            ctx = IncidenceContext(rng.random() * (math.pi / 2 - 1e-3), 5e-3 + rng.random() * 25e-3)
            bundle = initial_scattering_coefficient(mat, ctx)
            assert bundle.gamma_rough == bundle.rayleigh_r * bundle.gamma
            assert abs(bundle.gamma_rough) <= abs(bundle.gamma)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            bundle_for(1.2, 0.5)
        with pytest.raises(ValueError):
            bundle_for(0.5, 0.0)


class TestInitialScatteringCoefficient:
    def test_smooth_surface_scatters_nothing(self):
        mat = Material("mirror", eps_r=6.0, h_rms=0.0, thickness=0.01)
        ctx = IncidenceContext(math.radians(30.0), WAVELENGTH_28GHZ)
        bundle = initial_scattering_coefficient(mat, ctx)
        assert bundle.s_coeff == 0.0
        assert bundle.rayleigh_r == 1.0
        assert bundle.gamma_rough == bundle.gamma

    def test_frozen_rough_wall_value(self):
        mat = Material("rough_wall", eps_r=10.5, h_rms=0.715e-3, thickness=0.32)
        ctx = IncidenceContext(math.radians(30.0), WAVELENGTH_28GHZ, Polarization.TE)
        bundle = initial_scattering_coefficient(mat, ctx)
        assert bundle.s_coeff == pytest.approx(0.35815911224983579, rel=1e-12)
        assert bundle.s_coeff == pytest.approx(0.358, abs=5e-4)

    def test_energy_split_identity_randomized(self):
        # S^2 + Gamma_rough^2 = Gamma^2 across 1000 random material/context draws
        rng = random.Random(42)
        for _ in range(1000):
            mat = Material(
                "x",
                eps_r=1.0 + 14.0 * rng.random(),
                h_rms=rng.random() * 2e-3,
                thickness=0.01 + rng.random(),
            )
            ctx = IncidenceContext(
                theta_i=rng.random() * (math.pi / 2 - 1e-3),
                wavelength=5e-3 + rng.random() * 25e-3,
                polarization=rng.choice(list(Polarization)),
            )
            b = initial_scattering_coefficient(mat, ctx)
            assert abs(b.s_coeff**2 + b.gamma_rough**2 - b.gamma**2) <= 1e-12

    def test_gamma_one_reduction(self):
        # with |Gamma| = 1 the split reduces to S = sqrt(1 - R^2)
        r = rayleigh_factor(0.715e-3, math.radians(20.0), WAVELENGTH_28GHZ)
        assert math.sqrt((1.0 - r * r) * 1.0) == pytest.approx(math.sqrt(1.0 - r * r), rel=1e-15)


class TestValidation:
    def test_material_invariants(self):
        with pytest.raises(ValueError):
            Material("bad", eps_r=0.9, h_rms=1e-4, thickness=0.1)
        with pytest.raises(ValueError):
            Material("bad", eps_r=2.0, h_rms=-1e-6, thickness=0.1)
        with pytest.raises(ValueError):
            Material("bad", eps_r=2.0, h_rms=1e-4, thickness=0.0)
        with pytest.raises(ValueError):
            Material("", eps_r=2.0, h_rms=1e-4, thickness=0.1)

    def test_database_rejects_duplicates(self):
        db = MaterialDatabase([Material("a", 2.0, 1e-4, 0.1)])
        with pytest.raises(ValueError):
            db.add(Material("a", 3.0, 1e-4, 0.1))
        with pytest.raises(KeyError):
            db.get("nope")

    def test_incidence_context_ranges(self):
        with pytest.raises(ValueError):
            IncidenceContext(math.pi / 2, WAVELENGTH_28GHZ)
        with pytest.raises(ValueError):
            IncidenceContext(-0.01, WAVELENGTH_28GHZ)
        with pytest.raises(ValueError):
            IncidenceContext(0.3, 0.0)

    def test_reflection_bundle_invariants(self):
        with pytest.raises(ValueError):
            ReflectionBundle(gamma=0.5, rayleigh_r=0.9, gamma_rough=0.40, s_coeff=0.1)
        with pytest.raises(ValueError):
            ReflectionBundle(gamma=0.5, rayleigh_r=0.9, gamma_rough=0.45, s_coeff=0.5)
