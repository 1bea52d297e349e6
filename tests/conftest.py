import os
import pathlib

import numpy as np
import pytest

from dimercorr import DimerModel, Spectrum

# pyproject's `pythonpath` puts src/ on this process's sys.path only; tests
# that start `python -m dimercorr` in a subprocess need it there too.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def vodpo_model():
    """The V4+ dimer parameters extracted from the scattering analysis."""
    return DimerModel(J=7.81, D=0.0, g=1.99, R=4.43)


@pytest.fixture
def zero_amplitude_spectrum():
    """A weak line (amplitude 1 at 7.81 meV, sigma 0.5 meV) under absolute
    noise 0.3 on the background 0.2 E + 3, 200 points on 2-14 meV: the fit
    of this draw converges to amplitude 0, where the center is undetermined."""
    energy = np.linspace(2.0, 14.0, 200)
    noise = np.random.default_rng(1).normal(0.0, 0.3, energy.size)
    intensity = np.exp(-0.5 * ((energy - 7.81) / 0.5) ** 2) + 0.2 * energy + 3.0 + noise
    return Spectrum(energy, intensity, np.full(energy.size, 0.3))


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a complex Ginibre matrix."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def unitary_factory():
    return random_unitary
