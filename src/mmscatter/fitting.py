"""FVU metric and staged grid-search fitting of lobe-model parameters.

The fit alternates two exhaustive stages: stage A holds the scattering
coefficient fixed and searches the lobe shape (alpha_r, and alpha_i with
the mix weight for the dual-lobe model); stage B holds the shape and sweeps
the scattering coefficient on a +/- 0.15 grid in 0.05 steps around the
theoretical initial value. Rounds alternate until the best FVU improves by
less than IMPROVEMENT_TOL or MAX_ROUNDS rounds are spent.

The FVU that decides a fit always comes from the tiled single-bounce
predictor that simulate_scan uses, so a scan generated by this package is
reproduced bit-exactly. Every stage is first screened from the pattern's
tables: ScanEvaluator.screen passes the stage's candidates, as columns
of the model's shape table with one S each (stage A: every column at the
round's S; stage B: the best shape's column at each S of its grid), to
one ScanPattern.shape_totals call, which returns their powers (exact at
positions with no specular path, accurate to about 1e-15 at the others),
and scores all of them with fvu. Only the candidates
within CONFIRM_MARGIN of the stage's screened best are then scored by
the predictor, and only those exact FVUs take part in choosing the best.
ScanEvaluator.__call__ keeps the exact FVU of each S and shape, so no
later stage, round or model's fit on the same evaluator predicts it
again. See docs/stage_a_screen.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DBM_REF_WATTS, watts_to_dbm
from .fileio import FitReport, Scan, TraceEntry
from .geometry import Scene, rx_position
from .lobes import ALPHA_MAX, ALPHA_MIN, LobeModel, LobeParams, NormalizationMode, RadioLink
from .materials import MaterialDatabase, Polarization
from .raytrace import DEFAULT_TILE_EDGE, build_pattern

__all__ = [
    "DegenerateScanError",
    "ModelComparison",
    "fvu",
    "s_grid",
    "lambda_grid",
    "lambda_prior",
    "ScanEvaluator",
    "grid_fit",
    "compare_models",
]

FVU_TIE_TOL = 1e-12
# stage-B grid: s_initial +/- S_SPAN in S_STEP steps; stage-A mix grid step
S_SPAN = 0.15
S_STEP = 0.05
LAMBDA_STEP = 0.1
# rounds stop once the best FVU improves by less than this, or after MAX_ROUNDS
IMPROVEMENT_TOL = 1e-4
MAX_ROUNDS = 10
# candidates whose screened FVU lies within this of their stage's screened best
# are scored exactly; far above FVU_TIE_TOL times the candidate count and the
# ~1e-15 screen error, so every candidate that can become the best is confirmed
CONFIRM_MARGIN = 1e-8
# bound on |measured power| in dB: every power a float holds in watts lies
# within about -3,200 to +3,110 dBm, so no FVU sum of squared dB residuals can overflow
MAX_POWER_DB = 1e4


class DegenerateScanError(ValueError):
    """Scan cannot support a fit (too few points, constant powers, or powers past MAX_POWER_DB)."""


@dataclass(frozen=True)
class ModelComparison:
    """Both fits of one scan and the model with the lower FVU."""

    single: FitReport
    dual: FitReport
    winner: LobeModel


def fvu(measured, simulated):
    """Fraction of variance unexplained between dB powers.

    sqrt( sum |m_i - s_i|^2 / sum |m_i - mean(m)|^2 ); 0 for a perfect
    match, 1 when the simulation does no better than the measured mean.
    measured is a vector of P powers. simulated is a (P,) vector, giving a
    float, or a (P, Q) array of Q simulations by column, giving their Q
    FVUs.
    """
    m = np.asarray(measured, dtype=float)
    # no copy: each column sum runs in the memory layout of simulated (the
    # screen's, as ScanPattern.shape_totals returns it), and a re-laid-out
    # copy would round its last digit differently
    s = np.asarray(simulated, dtype=float)
    if m.ndim != 1 or s.ndim not in (1, 2) or s.shape[0] != m.size:
        raise ValueError(f"simulated must be (P,) or (P, Q) for P measured powers, got {m.shape} vs {s.shape}")
    if m.size < 2:
        raise ValueError(f"need at least 2 samples, got {m.size}")
    if not np.abs(m).max() <= MAX_POWER_DB:
        # past about 1e154 dB the squared sums overflow, and no candidate could win
        raise DegenerateScanError(
            f"measured powers spread too widely: {m.min():g} to {m.max():g} dB,"
            f" past the +/-{MAX_POWER_DB:,.0f} dB within which FVU sums stay finite"
        )
    denom = float(((m - m.mean()) ** 2).sum())
    if denom == 0.0:
        raise DegenerateScanError("measured powers are constant; FVU denominator is zero")
    ratio = np.sqrt(((m[:, None] - s.reshape(m.size, -1)) ** 2).sum(axis=0) / denom)
    return float(ratio[0]) if s.ndim == 1 else ratio


def s_grid(s_initial: float) -> list[float]:
    """Scattering-coefficient grid s_initial +/- S_SPAN in S_STEP steps, clamped to (0, 1)."""
    n = round(S_SPAN / S_STEP)
    values = []
    for k in range(-n, n + 1):
        s = round(s_initial + k * S_STEP, 10)
        if 0.0 < s < 1.0:
            values.append(s)
    return values


def lambda_grid() -> list[float]:
    """Forward/backscatter mixes 0 to 1 in LAMBDA_STEP steps."""
    return [round(k * LAMBDA_STEP, 10) for k in range(round(1.0 / LAMBDA_STEP) + 1)]


# the stage-A widths and mixes, built once
_ALPHAS = tuple(range(ALPHA_MIN, ALPHA_MAX + 1))
_LAMBDAS = tuple(lambda_grid())


def lambda_prior(theta_i: float) -> float:
    """Forward/backscatter mix prior, decreasing with incidence angle."""
    return max(0.0, 1.0 - math.degrees(theta_i) / 90.0)


class _Candidate:
    __slots__ = ("params", "fvu", "key")

    def __init__(self, params: LobeParams, fvu_value: float, s_initial: float, prior: float):
        self.params = params
        self.fvu = fvu_value
        alpha_r, alpha_i, lam = params.shape
        # tie-break: smaller alpha_r, smaller alpha_i, mix nearest the prior,
        # S nearest the theoretical start; trailing fields make it total
        self.key = (alpha_r, alpha_i, abs(lam - prior), abs(params.s_coeff - s_initial), lam, params.s_coeff)

    def beats(self, other: "_Candidate | None") -> bool:
        if other is None:
            return True
        if self.fvu < other.fvu - FVU_TIE_TOL:
            return True
        if other.fvu < self.fvu - FVU_TIE_TOL:
            return False
        return self.key < other.key


def _shape_grid(model_kind: LobeModel):
    """(alphas_r, alphas_i, lambdas), from ALPHA_MIN: the product's distinct shapes are the model's stage-A shapes."""
    if model_kind is LobeModel.SINGLE_LOBE:
        return _ALPHAS, (ALPHA_MIN,), (1.0,)
    return _ALPHAS, _ALPHAS, _LAMBDAS


class ScanEvaluator:
    """One scan's predictor: candidate parameters to an FVU against the scan (its in-plane points if plane_only).

    The receivers sit on the scan cylinder of radius scan_radius; the other
    settings are build_pattern's. It is the fit's one input: it also keeps
    the scene's mix prior for the tie-break and plane_only for the report.
    """

    def __init__(
        self,
        scan: Scan,
        scene: Scene,
        link: RadioLink,
        materials: MaterialDatabase,
        *,
        scan_radius: float = 1.5,
        tile_edge: float = DEFAULT_TILE_EDGE,
        mode: NormalizationMode = NormalizationMode.HEMISPHERE,
        polarization: Polarization = Polarization.TE,
        plane_only: bool = False,
    ):
        if not 0.0 < scan_radius < math.inf:
            raise ValueError(f"scan radius must be > 0 and finite, got {scan_radius}")
        if plane_only:
            try:
                scan = scan.plane_only()
            except ValueError as exc:
                raise DegenerateScanError(str(exc)) from None
        self.plane_only = plane_only
        self.prior = lambda_prior(scene.incidence_angle)
        self.measured = scan.powers_dbm()
        positions = np.array(
            [rx_position(scene, scan_radius, pt.azimuth_deg, pt.delta_h_m) for pt in scan.points]
        )
        self.pattern = build_pattern(scene, positions, link, materials, tile_edge, mode, polarization)
        self._exact: dict[tuple, float] = {}

    def __call__(self, params: LobeParams) -> float:
        """The exact FVU of params, from predict once per S and shape; a single lobe's is its dual lambda-1 twin's."""
        key = (params.s_coeff, *params.shape)
        value = self._exact.get(key)
        if value is None:
            total_w, _, _ = self.pattern.predict(params)
            value = self._exact[key] = fvu(self.measured, [watts_to_dbm(float(w)) for w in total_w])
        return value

    def screen(self, model_kind: LobeModel, s_values, columns) -> np.ndarray:
        """Screened FVU of candidate q: column columns[q] of the model's shape table at S s_values[q].

        The powers come from ScanPattern.shape_totals, which agrees with
        predict bit for bit at positions with no specular path and to
        rounding at the others, so the values agree with __call__ to about
        1e-15.
        """
        total_w = self.pattern.shape_totals(_shape_grid(model_kind), s_values, columns)
        with np.errstate(divide="ignore"):
            simulated = 10.0 * np.log10(total_w / DBM_REF_WATTS)
        return fvu(self.measured, simulated)


def grid_fit(evaluate: ScanEvaluator, model_kind: LobeModel, s_initial: float) -> FitReport:
    """Staged exhaustive search for the lobe parameters minimizing the FVU that evaluate scores."""
    if not 0.0 < s_initial < 1.0:
        raise ValueError(f"s_initial must be in (0, 1), got {s_initial}")
    shapes = evaluate.pattern.shape_table(_shape_grid(model_kind)).shapes

    trace: list[TraceEntry] = []
    best: _Candidate | None = None

    def stage(rnd: int, name: str, s_values, columns) -> None:
        """Screen shapes[columns[q]] at S s_values[q] for each q; confirm those near the screened minimum."""
        nonlocal best
        screened = evaluate.screen(model_kind, s_values, columns)
        cutoff = screened.min() + CONFIRM_MARGIN
        for s_value, n, value in zip(s_values, columns, screened.tolist()):
            params = LobeParams.from_shape(model_kind, s_value, shapes[n])
            if value <= cutoff:
                value = evaluate(params)
                candidate = _Candidate(params, value, s_initial, evaluate.prior)
                if candidate.beats(best):
                    best = candidate
            trace.append(TraceEntry(round=rnd, stage=name, params=params, fvu=value))

    s_steps = s_grid(s_initial)
    current_s = s_initial
    previous_round_fvu = math.inf
    converged = False
    for rnd in range(1, MAX_ROUNDS + 1):
        stage(rnd, "A", [current_s] * len(shapes), range(len(shapes)))
        stage(rnd, "B", s_steps, [shapes.index(best.params.shape)] * len(s_steps))
        current_s = best.params.s_coeff
        if math.isinf(best.fvu):
            # inf - inf is nan, so no later round could converge either
            raise DegenerateScanError(
                "every candidate predicts 0 W at some scan position, so no FVU is finite;"
                " check the link budget (transmit power and antenna gains)"
            )
        if best.fvu == 0.0:
            converged = True
            break
        improvement = previous_round_fvu - best.fvu
        if improvement < IMPROVEMENT_TOL:
            converged = True
            break
        previous_round_fvu = best.fvu

    return FitReport(
        best=best.params,
        fvu=best.fvu,
        s_initial=s_initial,
        trace=tuple(trace),
        plane_only=evaluate.plane_only,
        converged=converged,
    )


def compare_models(evaluate: ScanEvaluator, s_initial: float) -> ModelComparison:
    """Fit both models against evaluate's one pattern and report the lower-FVU one (ties go to single-lobe)."""
    # the dual table's pass emits the single-lobe table too, so both fits share one build
    evaluate.pattern.shape_table(_shape_grid(LobeModel.DUAL_LOBE))
    single = grid_fit(evaluate, LobeModel.SINGLE_LOBE, s_initial)
    dual = grid_fit(evaluate, LobeModel.DUAL_LOBE, s_initial)
    winner = LobeModel.DUAL_LOBE if dual.fvu < single.fvu - FVU_TIE_TOL else LobeModel.SINGLE_LOBE
    return ModelComparison(single=single, dual=dual, winner=winner)
