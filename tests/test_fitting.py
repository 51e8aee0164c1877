import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dual_scores_by_mix
from mmscatter import raytrace, watts_to_dbm
from mmscatter.fileio import Scan, ScanPoint, default_materials, scan_from_records
from mmscatter.fitting import (
    FVU_TIE_TOL,
    MAX_POWER_DB,
    DegenerateScanError,
    ScanEvaluator,
    _shape_grid,
    compare_models,
    fvu,
    grid_fit,
    lambda_grid,
    lambda_prior,
    s_grid,
)
from mmscatter.geometry import DEFAULT_CYLINDER_HEIGHTS, ScanSpec, paper_scene, scan_positions
from mmscatter.lobes import ALPHA_MIN, LobeModel, LobeParams, NormalizationMode
from mmscatter.materials import IncidenceContext, initial_scattering_coefficient
from mmscatter.raytrace import (
    _CERTIFICATE_MARGIN,
    _LENGTH_GATE,
    DEFAULT_TILE_EDGE,
    ScanPattern,
    _ShapeTable,
    _tile_anchor_sums,
    build_pattern,
    simulate_scan,
)


def single(s, alpha_r=4):
    return LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=s, alpha_r=alpha_r)


def dual(s, alpha_r, alpha_i, lam):
    return LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=s, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)


def shapes_of(pattern, model):
    """The model's stage-A shapes; the screen's column n is shape n."""
    return pattern.shape_table(_shape_grid(model)).shapes


def stage_a(pattern, model, s):
    """(s_values, columns) of every stage-A shape of the model at S s."""
    n = len(shapes_of(pattern, model))
    return [s] * n, range(n)


def distinct_shapes(alphas_r, alphas_i, lambdas):
    """The product alphas_r x alphas_i x lambdas, less each shape whose zero-weight lobe is not the first width."""
    return [
        (alpha_r, alpha_i, lam)
        for alpha_r, alpha_i, lam in itertools.product(alphas_r, alphas_i, lambdas)
        if (lam < 1.0 or alpha_i == alphas_i[0]) and (lam > 0.0 or alpha_r == alphas_r[0])
    ]


@pytest.fixture
def scene30():
    return paper_scene("rough_wall", 30.0)


@pytest.fixture
def evaluator(paper_link, materials_db):
    """ScanEvaluator of a scan on 0.5 m tiles."""

    def make(scan, scene, plane_only=False):
        return ScanEvaluator(scan, scene, paper_link, materials_db, tile_edge=0.5, plane_only=plane_only)

    return make


def synthetic_scan(scene, params, link, db, heights=(0.0,), tile_edge=0.5):
    spec = ScanSpec(height_offsets=heights)
    return scan_from_records(simulate_scan(scene, spec, params, link, db, tile_edge))


def with_noise(scan, seed, sigma_db=1.0):
    rng = random.Random(seed)
    points = (ScanPoint(p.azimuth_deg, p.delta_h_cm, p.power_dbm + rng.gauss(0.0, sigma_db)) for p in scan.points)
    return Scan(tuple(points))


class TestFvu:
    def test_perfect_match(self):
        assert fvu([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_prediction_is_one(self):
        measured = [-60.0, -50.0, -40.0]
        mean = sum(measured) / 3.0
        assert fvu(measured, [mean] * 3) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_hand_case(self):
        # sum |m - s|^2 = 36, sum |m - mean|^2 = 200
        assert fvu([0.0, 10.0, 20.0], [0.0, 10.0, 26.0]) == pytest.approx(math.sqrt(36.0 / 200.0), rel=1e-15)
        assert fvu([0.0, 10.0, 20.0], [0.0, 10.0, 26.0]) == pytest.approx(0.4243, abs=5e-5)

    def test_shift_invariance(self):
        m = [-61.2, -55.8, -70.1, -64.4]
        s = [-60.9, -57.0, -69.2, -65.0]
        base = fvu(m, s)
        shifted = fvu([x + 13.25 for x in m], [x + 13.25 for x in s])
        assert abs(base - shifted) <= 1e-12

    def test_scale_invariance(self):
        m = [-61.2, -55.8, -70.1, -64.4]
        s = [-60.9, -57.0, -69.2, -65.0]
        base = fvu(m, s)
        scaled = fvu([3.5 * x for x in m], [3.5 * x for x in s])
        assert abs(base - scaled) <= 1e-12

    def test_constant_measured_rejected(self):
        with pytest.raises(DegenerateScanError):
            fvu([-60.0, -60.0, -60.0], [-59.0, -61.0, -60.0])

    def test_overflowing_spread_rejected(self):
        # finite powers whose squared spread overflows: every FVU would be inf / inf = nan;
        # at 1.5e154 the denominator (1.5e308) is finite, but every residual sum overflows
        for measured in (
            [-60.0, 1e160, -61.0], [1e308, -1e308, -60.0], [1e308, 1e308, -1e308, -1e308], [-60.0, 1.5e154, -61.0]
        ):
            with pytest.raises(DegenerateScanError, match="measured powers spread too widely"):
                fvu(measured, [-60.0] * len(measured))

    def test_power_bound_is_inclusive(self):
        m = [-MAX_POWER_DB, MAX_POWER_DB]
        assert fvu(m, m) == 0.0
        with pytest.raises(DegenerateScanError):
            fvu([-60.0, math.nextafter(MAX_POWER_DB, math.inf)], [-60.0, -60.0])
        with pytest.raises(DegenerateScanError):
            fvu([-60.0, math.nan], [-60.0, -60.0])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            fvu([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fvu([1.0], [1.0])


class TestGrids:
    def test_s_grid_contains_initial(self):
        grid = s_grid(0.30)
        assert grid == [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]

    def test_s_grid_clamps_to_open_interval(self):
        assert s_grid(0.10) == [0.05, 0.1, 0.15, 0.2, 0.25]
        assert s_grid(0.95) == [0.8, 0.85, 0.9, 0.95]

    def test_lambda_grid(self):
        grid = lambda_grid()
        assert grid == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_lambda_prior_decreases(self):
        values = [lambda_prior(math.radians(t)) for t in (10.0, 30.0, 60.0)]
        assert values[0] > values[1] > values[2]


class TestGridFit:
    def test_exact_recovery_single(self, scene30, paper_link, materials_db, evaluator):
        truth = single(0.30, 4)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        report = grid_fit(evaluator(scan, scene30), LobeModel.SINGLE_LOBE, 0.30)
        assert report.fvu == 0.0
        assert report.best == truth
        assert report.converged

    def test_exhaustive_oracle_confirms_unique_minimum(self, scene30, paper_link, materials_db, evaluator):
        truth = single(0.30, 4)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        evaluate = evaluator(scan, scene30)
        zero_candidates = []
        for s_value in s_grid(0.30):
            for alpha in range(1, 11):
                params = single(s_value, alpha)
                if evaluate(params) <= 1e-12:
                    zero_candidates.append(params)
        assert zero_candidates == [truth]

    def test_dual_lambda_containment(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.35, 2, 9, 0.2)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        report = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.35)
        assert report.fvu == 0.0
        assert report.best.lambda_mix == 0.2
        assert report.best == truth

    def test_best_attains_trace_minimum(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.40, 3, 8, 0.35)  # off the mix grid, so the fit cannot reach zero
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        report = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.40)
        assert report.fvu > 0.0
        assert all(entry.fvu >= report.fvu - 1e-12 for entry in report.trace)

    def test_fvu_recomputes_from_best(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.40, 3, 8, 0.35)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        report = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.40)
        evaluate = evaluator(scan, scene30)
        assert abs(evaluate(report.best) - report.fvu) <= 1e-12

    def test_monotone_rounds(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.40, 3, 8, 0.35)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        report = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.40)
        per_round = {}
        running = math.inf
        for entry in report.trace:
            running = min(running, entry.fvu)
            per_round[entry.round] = running
        values = [per_round[r] for r in sorted(per_round)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_repeat_runs_identical(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.40, 1, 10, 0.2)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        a = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.40)
        b = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, 0.40)
        assert a == b

    def test_plane_only_vs_3d_differ_on_off_grid_truth(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.45, 3, 8, 0.35)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db, heights=(0.0, 0.10, 0.20, 0.30))
        plane = grid_fit(evaluator(scan, scene30, plane_only=True), LobeModel.DUAL_LOBE, 0.45)
        full = grid_fit(evaluator(scan, scene30, plane_only=False), LobeModel.DUAL_LOBE, 0.45)
        assert plane.plane_only and not full.plane_only
        assert plane.best != full.best
        evaluate_plane = evaluator(scan.plane_only(), scene30)
        assert abs(evaluate_plane(full.best) - plane.fvu) <= 0.1

    def test_plane_only_needs_inplane_points(self, scene30, evaluator):
        points = (ScanPoint(0.0, 10.0, -60.0), ScanPoint(10.0, 10.0, -61.0), ScanPoint(20.0, 10.0, -63.0))
        with pytest.raises(DegenerateScanError):
            grid_fit(evaluator(Scan(points), scene30, plane_only=True), LobeModel.SINGLE_LOBE, 0.3)

    def test_s_initial_validation(self, scene30, evaluator):
        points = (ScanPoint(0.0, 0.0, -60.0), ScanPoint(10.0, 0.0, -61.0))
        with pytest.raises(ValueError):
            grid_fit(evaluator(Scan(points), scene30), LobeModel.SINGLE_LOBE, 0.0)

    def test_constant_scan_rejected(self, scene30, evaluator):
        points = (ScanPoint(0.0, 0.0, -60.0), ScanPoint(10.0, 0.0, -60.0))
        with pytest.raises(DegenerateScanError):
            grid_fit(evaluator(Scan(points), scene30), LobeModel.SINGLE_LOBE, 0.3)


class TestGridMinimum:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the staged search is coordinate descent (stage A: shapes at one S, stage B: S at one shape)"
        " and stops in a local minimum above the grid minimum",
    )
    def test_fit_reaches_grid_minimum(self, paper_link, materials_db):
        scene = paper_scene("rough_wall", 37.0)
        truth = dual(0.3, 3, 8, 0.3)
        scan = synthetic_scan(scene, truth, paper_link, materials_db, DEFAULT_CYLINDER_HEIGHTS, DEFAULT_TILE_EDGE)
        ctx = IncidenceContext(theta_i=scene.incidence_angle, wavelength=paper_link.wavelength)
        s_initial = initial_scattering_coefficient(materials_db.get("rough_wall"), ctx).s_coeff
        evaluate = ScanEvaluator(scan, scene, paper_link, materials_db)
        report = grid_fit(evaluate, LobeModel.DUAL_LOBE, s_initial)
        # every shape at every S of the fit's own S grid, in one screen call
        n = len(shapes_of(evaluate.pattern, LobeModel.DUAL_LOBE))
        s_values = [s for s in s_grid(s_initial) for _ in range(n)]
        columns = list(range(n)) * len(s_grid(s_initial))
        assert report.fvu <= evaluate.screen(LobeModel.DUAL_LOBE, s_values, columns).min() + FVU_TIE_TOL


# dual truths (theta_i deg, S, alpha_r, alpha_i, lambda) whose S lies off the fit's S grid
OFF_GRID_TRUTHS = [
    (30.0, 0.4663, 6, 1, 0.1),
    (50.0, 0.2815, 10, 9, 0.4),  # the grid minimum has the right shape
    (30.0, 0.3364, 9, 7, 0.6),
    (20.0, 0.4231, 1, 9, 0.5),
    (50.0, 0.3958, 4, 2, 0.3),
    (20.0, 0.2744, 5, 4, 0.4),
]


class TestOffGridRecovery:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="S is searched only on s_initial +/- 0.15 in 0.05 steps, so a truth between two grid S values"
        " is fitted with a lobe shape that absorbs the S error",
    )
    def test_fit_recovers_shape_and_s_of_off_grid_truths(self, paper_link, materials_db):
        misses = []
        for theta_deg, s_coeff, alpha_r, alpha_i, lam in OFF_GRID_TRUTHS:
            scene = paper_scene("rough_wall", theta_deg)
            truth = dual(s_coeff, alpha_r, alpha_i, lam)
            scan = synthetic_scan(scene, truth, paper_link, materials_db, DEFAULT_CYLINDER_HEIGHTS, DEFAULT_TILE_EDGE)
            ctx = IncidenceContext(theta_i=scene.incidence_angle, wavelength=paper_link.wavelength)
            s_initial = initial_scattering_coefficient(materials_db.get("rough_wall"), ctx).s_coeff
            best = grid_fit(ScanEvaluator(scan, scene, paper_link, materials_db), LobeModel.DUAL_LOBE, s_initial).best
            if best.shape != truth.shape or abs(best.s_coeff - s_coeff) > 1e-3:
                misses.append((theta_deg, truth, best))
        assert misses == []


class TestBatchedScoring:
    def test_mixes_scored_together_equal_call(self, scene30, paper_link, materials_db, evaluator):
        # acceptance criterion 5 scores its exhaustive dual grid through
        # dual_scores_by_mix; every dB power and FVU must be ScanEvaluator.__call__'s
        scan = with_noise(synthetic_scan(scene30, dual(0.35, 3, 8, 0.3), paper_link, materials_db), 1)
        evaluate = evaluator(scan, scene30)
        mismatches = []
        for s_value in (0.2, 0.35, 0.5):
            for alpha_r, alpha_i in itertools.product(range(1, 11), repeat=2):
                simulated, values = dual_scores_by_mix(evaluate, s_value, alpha_r, alpha_i)
                for k, lam in enumerate(lambda_grid()):
                    params = dual(s_value, alpha_r, alpha_i, lam)
                    powers = [watts_to_dbm(float(w)) for w in evaluate.pattern.predict(params)[0]]
                    if simulated[:, k].tolist() != powers or values[k] != evaluate(params):
                        mismatches.append(params)
        assert mismatches == []


class TestCompareModels:
    def test_dual_nests_single(self, scene30, paper_link, materials_db, evaluator):
        truth = single(0.30, 4)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        comparison = compare_models(evaluator(scan, scene30), 0.30)
        assert comparison.dual.fvu <= comparison.single.fvu

    def test_dual_truth_prefers_dual(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.35, 1, 10, 0.1)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        comparison = compare_models(evaluator(scan, scene30), 0.35)
        assert comparison.dual.fvu < comparison.single.fvu
        assert comparison.winner is LobeModel.DUAL_LOBE

    def test_tie_goes_to_single(self, scene30, paper_link, materials_db, evaluator):
        truth = single(0.30, 4)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        comparison = compare_models(evaluator(scan, scene30), 0.30)
        assert comparison.single.fvu == 0.0 and comparison.dual.fvu == 0.0
        assert comparison.winner is LobeModel.SINGLE_LOBE

    def test_each_table_pass_runs_once(self, monkeypatch, scene30, paper_link, materials_db, evaluator):
        calls = []
        for name in ("_specular_window_sums", "_tile_anchor_sums"):

            def spy(pattern, alphas_r, alphas_i, lambdas, *rows, table_pass=getattr(raytrace, name), name=name):
                calls.append((name, len(alphas_r) * len(alphas_i) * len(lambdas)))
                return table_pass(pattern, alphas_r, alphas_i, lambdas, *rows)

            monkeypatch.setattr(raytrace, name, spy)
        scan = synthetic_scan(scene30, dual(0.35, 1, 10, 0.1), paper_link, materials_db)
        comparison = compare_models(evaluator(scan, scene30), 0.35)
        # one pass of each over the 1,100 products of the dual grid serves both fits
        assert sorted(calls) == [("_specular_window_sums", 1_100), ("_tile_anchor_sums", 1_100)]
        calls.clear()
        # a single-lobe fit on its own builds its 10 columns only, and fits as compare_models does
        assert grid_fit(evaluator(scan, scene30), LobeModel.SINGLE_LOBE, 0.35) == comparison.single
        assert sorted(calls) == [("_specular_window_sums", 10), ("_tile_anchor_sums", 10)]

    def test_repeat_runs_identical(self, scene30, paper_link, materials_db, evaluator):
        truth = dual(0.35, 1, 10, 0.1)
        scan = synthetic_scan(scene30, truth, paper_link, materials_db)
        a = compare_models(evaluator(scan, scene30), 0.35)
        b = compare_models(evaluator(scan, scene30), 0.35)
        assert a == b

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 13: the lower FVU wins, and dual nests single, so on noisy scans dual"
        " often wins by fitting the noise",
    )
    def test_noisy_single_truths_are_called_single(self, paper_link, materials_db, evaluator):
        # six seeded single-lobe truths at the theory S on 68-point semicylinder scans
        # with 1 dB noise; 4 are called dual on FVU gains of 0.3-1.4%, though
        # dAIC = n ln(FVU_d^2 / FVU_s^2) + 4 prefers single for all six (+2.0 to +4.0)
        rng = random.Random(13)
        spec = ScanSpec(azimuth_range_deg=160.0, height_offsets=DEFAULT_CYLINDER_HEIGHTS)
        called_dual = []
        for _ in range(6):
            scene = paper_scene("rough_wall", rng.uniform(25.0, 55.0))
            ctx = IncidenceContext(theta_i=scene.incidence_angle, wavelength=paper_link.wavelength)
            s_theory = initial_scattering_coefficient(materials_db.get("rough_wall"), ctx).s_coeff
            truth = single(s_theory, rng.randint(1, 10))
            clean = scan_from_records(simulate_scan(scene, spec, truth, paper_link, materials_db, 0.5))
            noisy = (ScanPoint(p.azimuth_deg, p.delta_h_cm, p.power_dbm + rng.gauss(0.0, 1.0)) for p in clean.points)
            scan = Scan(tuple(noisy))
            if compare_models(evaluator(scan, scene), s_theory).winner is not LobeModel.SINGLE_LOBE:
                called_dual.append((scene.incidence_angle, truth))
        assert called_dual == []


def scan_for(material, theta_deg, heights, paper_link, materials_db):
    scene = paper_scene(material, theta_deg)
    return scene, synthetic_scan(scene, dual(0.3, 3, 8, 0.35), paper_link, materials_db, heights=heights)


def exact_scores(evaluate, model, s_values, columns):
    """ScanEvaluator.__call__ of each candidate that screen(model, s_values, columns) scores."""
    shapes = shapes_of(evaluate.pattern, model)
    return np.array([evaluate(LobeParams.from_shape(model, s, shapes[n])) for s, n in zip(s_values, columns)])


def assert_matches_exact(evaluate, model, s_values, columns):
    screened = evaluate.screen(model, s_values, columns)
    exact = exact_scores(evaluate, model, s_values, columns)
    assert screened.shape == exact.shape
    finite = np.isfinite(exact)
    assert np.array_equal(screened[~finite], exact[~finite])
    assert np.max(np.abs(screened[finite] - exact[finite])) <= 1e-13


SCREEN_SCANS = [
    ("metal_sheet", 20.0, (0.0,)),
    ("rough_wall", 45.0, (0.0,)),
    ("rough_wall", 30.0, DEFAULT_CYLINDER_HEIGHTS),
]


def pure_lobe_peaks(pattern, alphas, kind):
    """Largest tile power per unit S^2 of each pure lobe, (len(alphas), P): kind "u" forward, "v" backscatter."""
    base = pattern._u if kind == "u" else pattern._v
    return np.array([(pattern._const * base**a / pattern._norm(a)).max(axis=1) for a in alphas])


def three_array_certificate(pattern, alphas_r, alphas_i, lambdas):
    """The screen's former certificate, from a peak bound and a no-specular mask.

    Returns a function of S giving the (P, N) cells of the grid's N distinct shapes, in
    _ShapeTable column order, where s^2 times the table's window sum is the diffuse sum
    predict gates: a row with no specular power holds gate's own unit-S sum, so all
    its cells are certified.
    """
    forward = dict(zip(alphas_r, pure_lobe_peaks(pattern, alphas_r, "u")))
    backscatter = dict(zip(alphas_i, pure_lobe_peaks(pattern, alphas_i, "v")))
    peak = np.column_stack(
        [
            np.maximum(forward[alpha_r] if lam > 0.0 else 0.0, backscatter[alpha_i] if lam < 1.0 else 0.0)
            for alpha_r, alpha_i, lam in distinct_shapes(alphas_r, alphas_i, lambdas)
        ]
    )
    no_spec = pattern.spec_power == 0.0

    def certified(s_value):
        specular = pattern.spec_power[:, None] >= s_value * s_value * (1.0 + _CERTIFICATE_MARGIN) * peak
        return no_spec[:, None] | specular

    return certified


class TestStageAScreen:
    """The table-driven screen of every stage against exact per-candidate scoring."""

    @pytest.mark.parametrize("material, theta_deg, heights", SCREEN_SCANS)
    def test_screen_matches_exact_scoring(
        self, material, theta_deg, heights, paper_link, materials_db, evaluator, monkeypatch
    ):
        scene, scan = scan_for(material, theta_deg, heights, paper_link, materials_db)
        evaluate = evaluator(scan, scene)
        gate = evaluate.pattern.gate
        fallback_rows = []

        def spy(tile_p, s_sq, rows, *args, **kwargs):
            fallback_rows.extend(rows)
            return gate(tile_p, s_sq, rows, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(evaluate.pattern, "gate", spy)
            evaluate.screen(LobeModel.DUAL_LOBE, *stage_a(evaluate.pattern, LobeModel.DUAL_LOBE, 0.9))
        # at s 0.9 on 0.5 m tiles the specular certificate misses for many shapes
        assert fallback_rows
        for s in (0.3, 0.9):
            assert_matches_exact(evaluate, LobeModel.DUAL_LOBE, *stage_a(evaluate.pattern, LobeModel.DUAL_LOBE, s))

    @pytest.mark.parametrize("material, theta_deg, heights", SCREEN_SCANS)
    @pytest.mark.parametrize("s", [0.3, 0.9])
    def test_single_lobe_screen_matches_exact_scoring(
        self, material, theta_deg, heights, s, paper_link, materials_db, evaluator
    ):
        scene, scan = scan_for(material, theta_deg, heights, paper_link, materials_db)
        evaluate = evaluator(scan, scene)
        assert_matches_exact(evaluate, LobeModel.SINGLE_LOBE, *stage_a(evaluate.pattern, LobeModel.SINGLE_LOBE, s))

    @pytest.mark.parametrize("material, theta_deg, heights", SCREEN_SCANS)
    @pytest.mark.parametrize("shape", [single(0.3, 1), single(0.3, 10), dual(0.3, 1, 9, 0.0), dual(0.3, 7, 3, 0.6)])
    def test_stage_b_screen_matches_exact_scoring(
        self, material, theta_deg, heights, shape, paper_link, materials_db, evaluator
    ):
        scene, scan = scan_for(material, theta_deg, heights, paper_link, materials_db)
        # a grid reaching s 0.9, where the specular certificate misses
        grid = s_grid(0.3) + s_grid(0.8)
        evaluate = evaluator(scan, scene)
        column = shapes_of(evaluate.pattern, shape.model).index(shape.shape)
        assert_matches_exact(evaluate, shape.model, grid, [column] * len(grid))

    @settings(deadline=None, max_examples=40)
    @given(
        alpha_r=st.integers(1, 10),
        alpha_i=st.integers(1, 10),
        lam=st.floats(0.0, 1.0),
        s=st.floats(0.01, 0.99),
        theta_deg=st.floats(5.0, 80.0),
        material=st.sampled_from(default_materials().names()),
    )
    def test_certificate_implies_specular_anchor(
        self, alpha_r, alpha_i, lam, s, theta_deg, material, paper_link, materials_db
    ):
        scene = paper_scene(material, theta_deg)
        _, positions = scan_positions(scene, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene, positions, paper_link, materials_db, 0.5)
        limit = _ShapeTable(pattern, (alpha_r,), (alpha_i,), (lam,)).limit[:, 0]
        certified = (pattern.spec_power > 0.0) & (s * s <= limit)
        # predict anchors the delay window on the specular path when no tile outweighs it
        tile_max = pattern.tile_powers(alpha_r, alpha_i, lam).max(axis=1)
        assert np.all(pattern.spec_power[certified] >= s * s * tile_max[certified])

    @settings(deadline=None, max_examples=40)
    @given(
        alpha_r=st.integers(1, 10),
        alpha_i=st.integers(1, 10),
        lam=st.floats(0.0, 1.0),
        s=st.floats(0.01, 0.99),
        theta_deg=st.floats(5.0, 80.0),
        material=st.sampled_from(default_materials().names()),
    )
    def test_tile_anchor_equals_predict_bit_for_bit(
        self, alpha_r, alpha_i, lam, s, theta_deg, material, paper_link, materials_db
    ):
        scene = paper_scene(material, theta_deg)
        _, positions = scan_positions(scene, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene, positions, paper_link, materials_db, 0.5)
        # the receivers with no specular point: the +/-90 deg ones, in the wall plane
        rows = np.flatnonzero(pattern.spec_power == 0.0)
        assert rows.size == 8
        table = _ShapeTable(pattern, (alpha_r,), (alpha_i,), (lam,))
        assert np.all(table.limit[rows, 0] == np.inf)
        # S^2 scales the gated sum, so the unit-S window serves every S
        total_w = pattern.predict(dual(s, alpha_r, alpha_i, lam))[0][rows]
        assert (s * s * table.window[rows, 0]).tobytes() == total_w.tobytes()

    @pytest.mark.parametrize(
        "heights, tile_edge, s_initial, falls_back",
        [
            # the digest scenes: at S 0.8 many cells fall back
            ((0.0, 0.3), 0.5, 0.8, True),
            ((0.0, 0.3), 0.2, 0.8, True),
            # the default 0.1 m arc and semicylinder, at the theory S: every cell is certified
            ((0.0,), 0.1, None, False),
            (DEFAULT_CYLINDER_HEIGHTS, 0.1, None, False),
        ],
    )
    def test_limit_equals_the_three_array_certificate(
        self, heights, tile_edge, s_initial, falls_back, paper_link, materials_db
    ):
        scene = paper_scene("rough_wall", 30.0)
        if s_initial is None:
            ctx = IncidenceContext(theta_i=scene.incidence_angle, wavelength=paper_link.wavelength)
            s_initial = initial_scattering_coefficient(materials_db.get("rough_wall"), ctx).s_coeff
        _, positions = scan_positions(scene, ScanSpec(height_offsets=heights))
        pattern = build_pattern(scene, positions, paper_link, materials_db, tile_edge)
        fallbacks = 0
        for model in (LobeModel.SINGLE_LOBE, LobeModel.DUAL_LOBE):
            grid = _shape_grid(model)
            limit = _ShapeTable(pattern, *grid).limit
            former = three_array_certificate(pattern, *grid)
            for s in s_grid(s_initial):
                uncertified = s * s > limit
                assert np.array_equal(uncertified, ~former(s))
                fallbacks += np.count_nonzero(uncertified)
        assert (fallbacks > 0) == falls_back

    @pytest.mark.parametrize("tile_edge", [0.5, 0.2])
    def test_screened_cell_depends_on_its_own_candidate_only(self, scene30, tile_edge, paper_link, materials_db):
        # the digest scenes at S 0.8, where many cells take the exact-gate fallback
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=(0.0, 0.3)))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, tile_edge)
        grid = _shape_grid(LobeModel.DUAL_LOBE)
        s_values, columns = stage_a(pattern, LobeModel.DUAL_LOBE, 0.8)
        together = pattern.shape_totals(grid, s_values, columns)
        reversed_order = pattern.shape_totals(grid, s_values[::-1], columns[::-1])[:, ::-1]
        alone = np.column_stack([pattern.shape_totals(grid, [s], [n]) for s, n in zip(s_values, columns)])
        assert np.array_equal(together, reversed_order)
        assert np.array_equal(together, alone)

    def test_specular_certificate_misses_a_near_tie(self, scene30, paper_link, materials_db):
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=(0.0, 0.3)))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, 0.5)
        params = single(0.5, 4)
        tile_p = params.s_coeff * params.s_coeff * pattern.tile_powers(*params.shape)
        lengths = pattern._lengths
        anchor_len = lengths[np.arange(len(lengths)), tile_p.argmax(axis=1)]
        # specular rows where a tile anchor would gate other tiles than the specular anchor does
        moved = np.any(
            (np.abs(lengths - anchor_len[:, None]) <= _LENGTH_GATE)
            != (np.abs(lengths - pattern._spec_length[:, None]) <= _LENGTH_GATE),
            axis=1,
        )
        rows = np.flatnonzero(moved & (pattern.spec_power > 0.0))
        assert rows.size > 0
        # a specular power just below the strongest tile: predict anchors on the
        # tile, so the certificate must not let the specular window stand
        pattern.spec_power[rows] = tile_p.max(axis=1)[rows] * (1.0 - 1e-6)
        total_w = pattern.shape_totals(((4,), (1,), (1.0,)), [params.s_coeff], [0])[:, 0]
        exact = pattern.predict(params)[0]
        assert np.all(np.abs(total_w - exact) <= 1e-13 * exact)

    def test_tile_anchor_takes_the_first_of_a_tie_at_two_lengths(self):
        # one receiver with no specular path; tiles 0 and 2 carry the same
        # power at path lengths 2 m apart. predict anchors on tile 0 (the first
        # index), whose window holds tile 1; the window of tile 2 does not
        pattern = ScanPattern(
            NormalizationMode.HEMISPHERE,
            tile_theta=np.full(3, 0.5),
            const=np.full((1, 3), 1e-6),
            u_base=np.array([[0.9, 0.5, 0.9]]),
            v_base=np.full((1, 3), 0.4),
            lengths=np.array([[4.0, 4.8, 2.0]]),
            spec_power=np.zeros(1),
            spec_length=np.zeros(1),
        )
        params = dual(0.5, 4, 10, 0.7)
        total_w = pattern.shape_totals(((4,), (10,), (0.7,)), [params.s_coeff], [0])[:, 0]
        exact = pattern.predict(params)[0]
        assert exact[0] > 0.0
        assert total_w.tobytes() == exact.tobytes()

    def test_tile_anchor_holds_where_s_squared_times_every_tile_underflows(self):
        # one receiver with no specular power and 1,000 equal tiles in one window: at
        # S 1e-159, s^2 times one tile rounds to 0 but s^2 times their sum does not
        n_tiles = 1_000
        pattern = ScanPattern(
            NormalizationMode.HEMISPHERE,
            tile_theta=np.full(n_tiles, 0.5),
            const=np.full((1, n_tiles), 1e-6),
            u_base=np.full((1, n_tiles), 0.9),
            v_base=np.full((1, n_tiles), 0.4),
            lengths=np.full((1, n_tiles), 4.0),
            spec_power=np.zeros(1),
            spec_length=np.zeros(1),
        )
        params = single(1e-159, 4)
        total_w = pattern.shape_totals(((4,), (1,), (1.0,)), [params.s_coeff], [0])[:, 0]
        exact = pattern.predict(params)[0]
        assert exact[0] > 0.0
        assert total_w.tobytes() == exact.tobytes()

    @staticmethod
    def exact_screen(jitter=0.0):
        """Per-candidate ScanEvaluator.__call__ in place of the table screen, optionally perturbed."""

        def screen(evaluate, model, s_values, columns):
            exact = exact_scores(evaluate, model, s_values, columns)
            return exact * (1.0 + jitter * np.random.default_rng(7).uniform(-1.0, 1.0, exact.size))

        return screen

    @pytest.mark.parametrize(
        "truth, seed",
        [
            (single(0.30, 4), 1),
            (dual(0.40, 3, 8, 0.35), 2),
            # at lambda 0 or 1 one width drops out and the tie-break picks it
            (dual(0.35, 5, 7, 0.0), 3),
            (dual(0.35, 6, 2, 1.0), 4),
        ],
    )
    def test_fit_equals_all_exact_scoring(
        self, truth, seed, scene30, paper_link, materials_db, evaluator, monkeypatch
    ):
        scan = with_noise(synthetic_scan(scene30, truth, paper_link, materials_db), seed)
        for model in (LobeModel.SINGLE_LOBE, LobeModel.DUAL_LOBE):
            screened = grid_fit(evaluator(scan, scene30), model, truth.s_coeff)
            with monkeypatch.context() as patch:
                patch.setattr(ScanEvaluator, "screen", self.exact_screen())
                exact = grid_fit(evaluator(scan, scene30), model, truth.s_coeff)
            assert screened.best == exact.best
            assert screened.fvu == exact.fvu
            assert screened.converged == exact.converged
            assert screened.trace[-1].round == exact.trace[-1].round
            assert len(screened.trace) == len(exact.trace)

    def test_screen_error_below_margin_cannot_change_the_fit(
        self, scene30, paper_link, materials_db, evaluator, monkeypatch
    ):
        # the lambda-0 truth ties all ten forward widths exactly; a screen error
        # far below CONFIRM_MARGIN must not decide the tie
        truth = dual(0.35, 5, 7, 0.0)
        scan = with_noise(synthetic_scan(scene30, truth, paper_link, materials_db), 3)
        monkeypatch.setattr(ScanEvaluator, "screen", self.exact_screen())
        exact = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, truth.s_coeff)
        monkeypatch.setattr(ScanEvaluator, "screen", self.exact_screen(jitter=1e-12))
        perturbed = grid_fit(evaluator(scan, scene30), LobeModel.DUAL_LOBE, truth.s_coeff)
        assert exact.best.alpha_r == 1
        assert perturbed.best == exact.best
        assert perturbed.fvu == exact.fvu


def tile_anchor_oracle(pattern, shape, rows):
    """Unit-S diffuse sums of one shape at the positions `rows`, gated row by row from that shape's own tile_powers.

    Each row's window is anchored on its strongest tile and summed as one
    row of zeros and in-window powers, as gate sums it.
    """
    sums = []
    for lengths, powers in zip(pattern._lengths[rows], pattern.tile_powers(*shape, rows)):
        anchor = lengths[powers.argmax()]
        sums.append(np.where(np.abs(lengths - anchor) <= _LENGTH_GATE, powers, 0.0).sum())
    return np.array(sums)


def assert_tile_anchor_table_is_oracle(pattern, alphas_r, alphas_i, lambdas):
    rows = np.flatnonzero(pattern.spec_power == 0.0)
    assert rows.size
    sums = _tile_anchor_sums(pattern, alphas_r, alphas_i, lambdas, rows)
    shapes = distinct_shapes(alphas_r, alphas_i, lambdas)
    assert sums.shape == (rows.size, len(shapes))
    for n, shape in enumerate(shapes):
        assert sums[:, n].tobytes() == tile_anchor_oracle(pattern, shape, rows).tobytes(), shape


class TestTileAnchorTable:
    """The tile-anchor table against each shape computed on its own, bit for bit."""

    @pytest.mark.parametrize("material", ["rough_wall", "metal_sheet"])
    @pytest.mark.parametrize("theta_deg", [20.0, 37.3, 55.0])
    def test_table_equals_per_shape_oracle(self, material, theta_deg, paper_link, materials_db):
        # lambda 1 keeps the first alpha_i only and lambda 0 the first alpha_r, so
        # two forward and three backscatter widths exercise the skipped duplicates
        scene = paper_scene(material, theta_deg)
        for tile_edge, heights, mode in itertools.product(
            (0.5, 0.2), ((0.0,), DEFAULT_CYLINDER_HEIGHTS), NormalizationMode
        ):
            _, positions = scan_positions(scene, ScanSpec(height_offsets=heights))
            pattern = build_pattern(scene, positions, paper_link, materials_db, tile_edge, mode)
            for lambdas in ((0.0,), (1.0,), (0.0, 1.0), (0.0, 0.5, 1.0)):
                assert_tile_anchor_table_is_oracle(pattern, (9, 2), (1, 10, 5), lambdas)

    def test_model_grids_equal_per_shape_oracle(self, scene30, paper_link, materials_db):
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, 0.5)
        for model in LobeModel:
            assert_tile_anchor_table_is_oracle(pattern, *_shape_grid(model))

    @pytest.mark.parametrize("heights, tile_edge", [((0.0,), 0.2), (DEFAULT_CYLINDER_HEIGHTS, 0.5)])
    def test_screen_equals_predict_on_rows_with_no_specular_path(
        self, heights, tile_edge, scene30, paper_link, materials_db
    ):
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=heights))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, tile_edge)
        rows = np.flatnonzero(pattern.spec_power == 0.0)
        assert rows.size == 2 * len(heights)
        model = LobeModel.DUAL_LOBE
        shapes = shapes_of(pattern, model)
        assert len(shapes) == 920
        for s in (0.05, 0.35, 0.8):
            screened = pattern.shape_totals(_shape_grid(model), *stage_a(pattern, model, s))[rows]
            exact = [pattern.predict(LobeParams.from_shape(model, s, shape))[0][rows] for shape in shapes]
            assert screened.tobytes() == np.column_stack(exact).tobytes()


class TestDistinctShapes:
    """Each model's table holds every distinct stage-A shape once; a zero-weight lobe keeps ALPHA_MIN."""

    def test_tables_hold_each_distinct_shape_once(self, scene30, paper_link, materials_db):
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=(0.0, 0.3)))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, 0.5)
        for model, count in ((LobeModel.SINGLE_LOBE, 10), (LobeModel.DUAL_LOBE, 920)):
            shapes = shapes_of(pattern, model)
            assert shapes == distinct_shapes(*_shape_grid(model))
            assert len(shapes) == len(set(shapes)) == count
            assert all(alpha_i == ALPHA_MIN for _, alpha_i, lam in shapes if lam == 1.0)
            assert all(alpha_r == ALPHA_MIN for alpha_r, _, lam in shapes if lam == 0.0)

    @pytest.mark.parametrize("truth", [dual(0.35, 6, ALPHA_MIN, 1.0), dual(0.35, ALPHA_MIN, 7, 0.0)])
    def test_zero_weight_truth_is_the_grids_unique_zero(self, truth, scene30, paper_link, materials_db, evaluator):
        scan = synthetic_scan(scene30, truth, paper_link, materials_db, heights=(0.0, 0.3))
        evaluate = evaluator(scan, scene30)
        report = grid_fit(evaluate, LobeModel.DUAL_LOBE, truth.s_coeff)
        assert report.fvu == 0.0 and report.best == truth
        # every shape of the fit's grid at every S of its S grid, in one screen call
        shapes = shapes_of(evaluate.pattern, LobeModel.DUAL_LOBE)
        s_values = [s for s in s_grid(truth.s_coeff) for _ in shapes]
        columns = list(range(len(shapes))) * len(s_grid(truth.s_coeff))
        screened = evaluate.screen(LobeModel.DUAL_LOBE, s_values, columns)
        zeros = [(s_values[q], shapes[columns[q]]) for q in np.flatnonzero(screened <= 1e-12)]
        assert zeros == [(truth.s_coeff, truth.shape)]

    def test_both_dual_trace_screens_920_distinct_predictions_a_round(
        self, scene30, paper_link, materials_db, evaluator
    ):
        # compare_models is what `fit --model both` runs
        scan = with_noise(synthetic_scan(scene30, dual(0.35, 3, 8, 0.3), paper_link, materials_db), 1)
        evaluate = evaluator(scan, scene30)
        dual_report = compare_models(evaluate, 0.35).dual
        rounds = sorted({entry.round for entry in dual_report.trace})
        for rnd in rounds:
            stage_a_rows = [entry.params for entry in dual_report.trace if (entry.round, entry.stage) == (rnd, "A")]
            assert len(stage_a_rows) == 920
            powers = {b"".join(w.tobytes() for w in evaluate.pattern.predict(params)) for params in stage_a_rows}
            assert len(powers) == 920


class TestExactScores:
    """ScanEvaluator.__call__ runs predict once per distinct candidate."""

    @pytest.mark.parametrize("tile_edge", [0.5, 0.2])
    def test_a_lobe_of_weight_zero_drops_out_of_predict(self, scene30, tile_edge, paper_link, materials_db):
        # the digest scenes: heights 0 and 0.3 m
        _, positions = scan_positions(scene30, ScanSpec(height_offsets=(0.0, 0.3)))
        pattern = build_pattern(scene30, positions, paper_link, materials_db, tile_edge)

        def powers(params):
            return b"".join(w.tobytes() for w in pattern.predict(params))

        for s, alpha in itertools.product((0.3, 0.8), range(1, 11)):
            forward = {powers(dual(s, alpha, other, 1.0)) for other in range(1, 11)}
            backscatter = {powers(dual(s, other, alpha, 0.0)) for other in range(1, 11)}
            assert forward == {powers(single(s, alpha))}
            assert len(backscatter) == 1

    def test_equal_candidates_share_one_predict(self, scene30, paper_link, materials_db, evaluator, monkeypatch):
        scan = with_noise(synthetic_scan(scene30, dual(0.35, 3, 8, 0.3), paper_link, materials_db), 1)
        evaluate = evaluator(scan, scene30)
        predicted = []
        predict = evaluate.pattern.predict
        monkeypatch.setattr(evaluate.pattern, "predict", lambda params: predicted.append(params) or predict(params))
        # a single lobe and its dual lambda-1 twin, whose zero-weight width is ALPHA_MIN
        forward = [single(0.35, 4), dual(0.35, 4, 1, 1.0)]
        mixed = [dual(0.35, 4, 6, 0.5), dual(0.35, 4, 6, 0.5), dual(0.4, 4, 6, 0.5)]
        values = [evaluate(params) for params in forward + mixed]
        assert predicted == [forward[0], mixed[0], mixed[2]]
        assert values[0] == values[1] and values[2] == values[3]
