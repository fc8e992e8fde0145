import sys
from pathlib import Path

import numpy as np
import pytest

from cellscape import autodiff as ad

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def float64(monkeypatch):
    """Train in float64 for the test: the references in ``oracles.py``
    (composite chains, finite differences, closed forms) are float64, and
    their 1e-12 tolerances hold against a float64 run of the fused ops.
    Every test without it runs at the shipped ``autodiff.DTYPE``."""
    monkeypatch.setattr(ad, "DTYPE", np.float64)
