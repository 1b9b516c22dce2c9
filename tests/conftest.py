import sys
from fractions import Fraction
from pathlib import Path

# src/ for the package, scripts/ for the seeded scenario generator the tests share
ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "scripts", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest

from bayesbits import Distribution, HostPolicy, MhpConfig, mhp_scenario


@pytest.fixture(scope="session")
def traditional():
    """Three doors, uniform prior, host knowingly avoids the car."""
    return mhp_scenario(MhpConfig(), name="Traditional Monty Hall")


@pytest.fixture(scope="session")
def biased():
    """Die-roll prior (1/2, 1/3, 1/6) over doors A, B, C; standard host."""
    prior = Distribution(("A", "B", "C"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return mhp_scenario(MhpConfig(prior=prior), name="Biased Monty Hall")


@pytest.fixture(scope="session")
def forgetful():
    """Uniform prior; host opens any non-picked door at random."""
    return mhp_scenario(
        MhpConfig(host_policy=HostPolicy.FORGETFUL), name="Forgetful Monty Hall"
    )
