import math

import pytest
from hypothesis import settings

from mmscatter import wavelength_for_frequency
from mmscatter.fileio import default_materials
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


@pytest.fixture(scope="session")
def materials_db():
    return default_materials()


@pytest.fixture(scope="session")
def paper_link():
    # 10 dBm transmit power, 15 dBi horns, 28 GHz
    gain = 10.0**1.5
    return RadioLink(p_t=0.01, g_t=gain, g_r=gain, wavelength=WAVELENGTH_28GHZ)
