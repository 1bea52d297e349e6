import os
import pathlib

import numpy as np
import pytest

from dimercorr import DimerModel

# pyproject's `pythonpath` puts src/ on this process's sys.path only; tests
# that start `python -m dimercorr` in a subprocess need it there too.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def vodpo_model():
    """The V4+ dimer parameters extracted from the scattering analysis."""
    return DimerModel(J=7.81, D=0.0, g=1.99, R=4.43)


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a complex Ginibre matrix."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def unitary_factory():
    return random_unitary
