"""FVU metric and staged grid-search fitting of lobe-model parameters.

The fit alternates two exhaustive stages: stage A holds the scattering
coefficient fixed and searches the lobe shape (alpha_r, and alpha_i with
the mix weight for the dual-lobe model); stage B holds the shape and sweeps
the scattering coefficient on a +/- 0.15 grid in 0.05 steps around the
theoretical initial value. Rounds alternate until the best FVU improves by
less than 1e-4 or the round budget is spent.

The FVU that decides a fit always comes from the tiled single-bounce
predictor that simulate_scan uses, so a scan generated by this package is
reproduced bit-exactly. The 1,100 dual-lobe shapes of stage A are first
screened together by matrix products (ScanEvaluator.screen_dual_shapes,
accurate to about 1e-15); only the shapes within CONFIRM_MARGIN of the
screen's best are then scored by the predictor, and only those exact FVUs
take part in choosing the best. See docs/stage_a_screen.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import DBM_REF_WATTS, watts_to_dbm
from .fileio import Scan, default_materials
from .geometry import Scene, rx_position
from .lobes import ALPHA_MAX, ALPHA_MIN, LobeModel, LobeParams, NormalizationMode, RadioLink
from .materials import MaterialDatabase, Polarization
from .raytrace import DEFAULT_TILE_EDGE, build_pattern, power_gate

__all__ = [
    "DegenerateScanError",
    "SearchConfig",
    "TraceEntry",
    "FitReport",
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
# rounds stop once the best FVU improves by less than this
IMPROVEMENT_TOL = 1e-4
# stage-A shapes whose screened FVU lies within this of the screen's best are
# scored exactly; far above FVU_TIE_TOL times the shape count and the ~1e-15
# screen error, so every shape that can become the best is confirmed
CONFIRM_MARGIN = 1e-8
# relative inflation of the anchor certificate, far above the few-ulp rounding
# of the tile powers that predict compares with the specular power
_CERTIFICATE_MARGIN = 1e-9


class DegenerateScanError(ValueError):
    """Scan cannot support a fit (too few points or constant powers)."""


@dataclass(frozen=True, eq=False)
class SearchConfig:
    """Fit configuration: link budget, material database, scan and tiling, and the round budget."""

    link: RadioLink
    materials: MaterialDatabase = field(default_factory=default_materials)
    scan_radius: float = 1.5
    tile_edge: float = DEFAULT_TILE_EDGE
    mode: NormalizationMode = NormalizationMode.HEMISPHERE
    polarization: Polarization = Polarization.TE
    max_rounds: int = 10

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class TraceEntry:
    round: int
    stage: str
    params: LobeParams
    fvu: float


@dataclass(frozen=True)
class FitReport:
    best: LobeParams
    fvu: float
    s_initial: float
    trace: tuple[TraceEntry, ...]
    plane_only: bool
    converged: bool


@dataclass(frozen=True)
class ModelComparison:
    single: FitReport
    dual: FitReport
    winner: LobeModel


def fvu(measured, simulated) -> float:
    """Fraction of variance unexplained between dB power vectors.

    sqrt( sum |m_i - s_i|^2 / sum |m_i - mean(m)|^2 ); 0 for a perfect
    match, 1 when the simulation does no better than the measured mean.
    """
    m = np.asarray(list(measured), dtype=float)
    s = np.asarray(list(simulated), dtype=float)
    if m.shape != s.shape or m.ndim != 1:
        raise ValueError(f"measured and simulated must be equal-length vectors, got {m.shape} vs {s.shape}")
    if m.size < 2:
        raise ValueError(f"need at least 2 samples, got {m.size}")
    denom = float(((m - m.mean()) ** 2).sum())
    if denom == 0.0:
        raise DegenerateScanError("measured powers are constant; FVU denominator is zero")
    num = float(((m - s) ** 2).sum())
    return math.sqrt(num / denom)


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
    values = []
    k = 0
    while True:
        lam = round(k * LAMBDA_STEP, 10)
        if lam > 1.0:
            break
        values.append(lam)
        k += 1
    return values


# the stage-A mixes, built once
_LAMBDAS = tuple(lambda_grid())


def lambda_prior(theta_i: float) -> float:
    """Forward/backscatter mix prior, decreasing with incidence angle."""
    return max(0.0, 1.0 - math.degrees(theta_i) / 90.0)


class _Candidate:
    __slots__ = ("params", "fvu", "key")

    def __init__(self, params: LobeParams, fvu_value: float, s_initial: float, prior: float):
        self.params = params
        self.fvu = fvu_value
        lam = params.lambda_mix if params.lambda_mix is not None else -1.0
        alpha_i = params.alpha_i if params.alpha_i is not None else 0
        # tie-break: smaller alpha_r, smaller alpha_i, mix nearest the prior,
        # S nearest the theoretical start; trailing fields make it total
        self.key = (
            params.alpha_r,
            alpha_i,
            abs(lam - prior),
            abs(params.s_coeff - s_initial),
            lam,
            params.s_coeff,
        )

    def beats(self, other: "_Candidate | None") -> bool:
        if other is None:
            return True
        if self.fvu < other.fvu - FVU_TIE_TOL:
            return True
        if other.fvu < self.fvu - FVU_TIE_TOL:
            return False
        return self.key < other.key


def _specular_anchor_certified(spec_power, s_value: float, forward_peak, backscatter_peak):
    """True where the specular path anchors predict's delay window for every mix of a width pair.

    forward_peak and backscatter_peak are ScanPattern.lobe_peaks rows of the
    pair's widths. By the mediant inequality no tile then outweighs the
    specular power, whatever lambda; the bound is inflated by
    _CERTIFICATE_MARGIN so that rounding in the tile powers cannot flip it.
    """
    bound = s_value * s_value * (1.0 + _CERTIFICATE_MARGIN) * np.maximum(forward_peak, backscatter_peak)
    return spec_power >= bound


class ScanEvaluator:
    """Shared predictor: maps candidate parameters to an FVU against the scan."""

    def __init__(self, scan: Scan, scene: Scene, cfg: SearchConfig):
        self.measured = [pt.power_dbm for pt in scan.points]
        m = np.asarray(self.measured)
        if float(((m - m.mean()) ** 2).sum()) == 0.0:
            raise DegenerateScanError("measured powers are constant; FVU denominator is zero")
        positions = np.array(
            [rx_position(scene, cfg.scan_radius, pt.azimuth_deg, pt.delta_h_m) for pt in scan.points]
        )
        self.pattern = build_pattern(
            scene, positions, cfg.link, cfg.materials, cfg.tile_edge, cfg.mode, cfg.polarization
        )
        self._screen_tables = None

    def __call__(self, params: LobeParams) -> float:
        total_w, _, _, _, _ = self.pattern.predict(params)
        simulated = [watts_to_dbm(float(w)) for w in total_w]
        return fvu(self.measured, simulated)

    def screen_dual_shapes(self, s_value: float) -> np.ndarray:
        """Screened FVU of every dual-lobe stage-A shape at s_value, in _shape_candidates order.

        At the positions where the specular path is certified to anchor the
        delay window for every mix of a width pair, the diffuse sum is s^2
        times a precomputed specular-window sum; every other position goes
        through the gate of predict. The values agree with __call__ to
        rounding (about 1e-15).
        """
        pattern = self.pattern
        alphas = range(ALPHA_MIN, ALPHA_MAX + 1)
        if self._screen_tables is None:
            forward, backscatter = pattern.lobe_peaks(alphas)
            self._screen_tables = (forward, backscatter, pattern.specular_window_sums(alphas, _LAMBDAS))
        forward, backscatter, window_sums = self._screen_tables
        s_sq = s_value * s_value
        spec = pattern.spec_power
        measured = np.asarray(self.measured)
        denom = float(((measured - measured.mean()) ** 2).sum())
        n_lam = len(_LAMBDAS)
        values = np.empty((len(alphas), len(alphas) * n_lam))
        for i, alpha_r in enumerate(alphas):
            certified = _specular_anchor_certified(spec, s_value, forward[i], backscatter)  # (A, P)
            spec_w, diff_w = power_gate(spec[:, None, None], s_sq * window_sums[:, i])
            total_w = spec_w + diff_w  # (P, A, L)
            for j in np.flatnonzero(~certified.all(axis=1)):
                rows = np.flatnonzero(~certified[j])
                tile_p = pattern.dual_tile_powers(s_value, alpha_r, alphas[j], _LAMBDAS, rows)  # (L, R, T)
                total_w[rows, j] = pattern.gate(tile_p, rows)[0].T
            with np.errstate(divide="ignore"):
                simulated = 10.0 * np.log10(total_w.reshape(len(spec), -1) / DBM_REF_WATTS)
            values[i] = np.sqrt(((measured[:, None] - simulated) ** 2).sum(axis=0) / denom)
        return values.ravel()


def _shape_candidates(model_kind: LobeModel, s_value: float):
    if model_kind is LobeModel.SINGLE_LOBE:
        for alpha_r in range(ALPHA_MIN, ALPHA_MAX + 1):
            yield LobeParams(model=model_kind, s_coeff=s_value, alpha_r=alpha_r)
        return
    for alpha_r in range(ALPHA_MIN, ALPHA_MAX + 1):
        for alpha_i in range(ALPHA_MIN, ALPHA_MAX + 1):
            for lam in _LAMBDAS:
                yield LobeParams(model=model_kind, s_coeff=s_value, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)


def _build_evaluator(scan: Scan, scene: Scene, cfg: SearchConfig, plane_only: bool) -> ScanEvaluator:
    if plane_only:
        try:
            scan = scan.plane_only()
        except ValueError as exc:
            raise DegenerateScanError(str(exc)) from None
    return ScanEvaluator(scan, scene, cfg)


def grid_fit(
    scan: Scan,
    scene: Scene,
    model_kind: LobeModel,
    s_initial: float,
    search_cfg: SearchConfig,
    plane_only: bool = False,
    *,
    _evaluate: ScanEvaluator | None = None,
) -> FitReport:
    """Staged exhaustive search for the lobe parameters minimizing FVU."""
    if not 0.0 < s_initial < 1.0:
        raise ValueError(f"s_initial must be in (0, 1), got {s_initial}")
    evaluate = _evaluate if _evaluate is not None else _build_evaluator(scan, scene, search_cfg, plane_only)
    prior = lambda_prior(scene.incidence_angle)

    trace: list[TraceEntry] = []
    best: _Candidate | None = None

    def consider(rnd: int, stage: str, params: LobeParams) -> None:
        nonlocal best
        value = evaluate(params)
        trace.append(TraceEntry(round=rnd, stage=stage, params=params, fvu=value))
        candidate = _Candidate(params, value, s_initial, prior)
        if candidate.beats(best):
            best = candidate

    current_s = s_initial
    previous_round_fvu = math.inf
    converged = False
    for rnd in range(1, search_cfg.max_rounds + 1):
        shapes = _shape_candidates(model_kind, current_s)
        if model_kind is LobeModel.DUAL_LOBE:
            screened = evaluate.screen_dual_shapes(current_s)
            cutoff = screened.min() + CONFIRM_MARGIN
            for params, value in zip(shapes, screened.tolist()):
                if value > cutoff:
                    trace.append(TraceEntry(round=rnd, stage="A", params=params, fvu=value))
                else:
                    consider(rnd, "A", params)
        else:
            for params in shapes:
                consider(rnd, "A", params)
        shape = best.params
        for s_value in s_grid(s_initial):
            consider(rnd, "B", replace(shape, s_coeff=s_value))
        current_s = best.params.s_coeff
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
        plane_only=plane_only,
        converged=converged,
    )


def compare_models(
    scan: Scan,
    scene: Scene,
    link: RadioLink,
    s_initial: float,
    search_cfg: SearchConfig | None = None,
    plane_only: bool = False,
) -> ModelComparison:
    """Fit both models and report the lower-FVU one (ties go to single-lobe)."""
    cfg = search_cfg if search_cfg is not None else SearchConfig(link=link)
    # both fits score candidates against the same pattern, built once
    evaluate = _build_evaluator(scan, scene, cfg, plane_only)
    single = grid_fit(scan, scene, LobeModel.SINGLE_LOBE, s_initial, cfg, plane_only, _evaluate=evaluate)
    dual = grid_fit(scan, scene, LobeModel.DUAL_LOBE, s_initial, cfg, plane_only, _evaluate=evaluate)
    winner = LobeModel.DUAL_LOBE if dual.fvu < single.fvu - FVU_TIE_TOL else LobeModel.SINGLE_LOBE
    return ModelComparison(single=single, dual=dual, winner=winner)
