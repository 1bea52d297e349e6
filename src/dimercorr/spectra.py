"""The Spectrum container shared by the scattering model and the fitter."""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Energy-transfer scan: energies (meV), intensities and their
    one-sigma uncertainties (counts).

    Every value must be finite, energies strictly increasing and every
    uncertainty positive.
    """

    energy: np.ndarray
    intensity: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        energy = np.array(self.energy, dtype=float)
        intensity = np.array(self.intensity, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        if not (energy.ndim == intensity.ndim == sigma.ndim == 1):
            raise ValueError("spectrum columns must be one-dimensional")
        if not (energy.size == intensity.size == sigma.size):
            raise ValueError("spectrum columns must have equal length")
        if energy.size == 0:
            raise ValueError("spectrum must contain at least one point")
        for name, column in (("energy", energy), ("intensity", intensity), ("sigma", sigma)):
            if not np.all(np.isfinite(column)):
                raise ValueError(f"{name} values must be finite")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if np.any(np.diff(energy) <= 0.0):
            raise ValueError("energies must be strictly increasing")
        if np.any(sigma <= 0.0):
            raise ValueError("uncertainties must be positive")

    def __len__(self):
        return self.energy.size
