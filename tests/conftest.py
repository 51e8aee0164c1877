import math

import numpy as np
import pytest
from hypothesis import settings

from mmscatter import watts_to_dbm, wavelength_for_frequency
from mmscatter.fileio import default_materials
from mmscatter.fitting import fvu, lambda_grid
from mmscatter.lobes import RadioLink

WAVELENGTH_28GHZ = wavelength_for_frequency(28.0e9)

# property tests draw the same examples on every run and keep no example
# database, so two runs of the suite test the same cases
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def series_i0(x: float, terms: int = 30) -> float:
    """Independent power-series oracle for I0: sum (x/2)^(2k) / (k!)^2."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


def dual_scores_by_mix(evaluate, s_value, alpha_r, alpha_i):
    """dB powers (P, L) and FVUs (L,) of the dual-lobe candidates (s_value, alpha_r, alpha_i, lambda)
    for the L mixes of lambda_grid, in that order, from one tile_powers and one gate call.

    evaluate is a ScanEvaluator. The dB conversion is watts_to_dbm, the math.log10 that
    ScanEvaluator.__call__ uses: np.log10 differs from it in the last bit of some powers.
    """
    tile_p = evaluate.pattern.tile_powers(alpha_r, alpha_i, lambda_grid())
    total_w, _, _ = evaluate.pattern.gate(tile_p, s_value * s_value)
    simulated = np.array([[watts_to_dbm(w) for w in row] for row in total_w.tolist()]).T
    return simulated, fvu(evaluate.measured, simulated)


@pytest.fixture(scope="session")
def materials_db():
    return default_materials()


@pytest.fixture(scope="session")
def paper_link():
    # 10 dBm transmit power, 15 dBi horns, 28 GHz
    gain = 10.0**1.5
    return RadioLink(p_t=0.01, g_t=gain, g_r=gain, wavelength=WAVELENGTH_28GHZ)
