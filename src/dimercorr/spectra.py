"""The Spectrum container shared by the scattering model and the fitter,
and the evenly spaced grid of every scan: energy, temperature and Q."""

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
            if not np.isfinite(column).all():
                raise ValueError(f"{name} values must be finite")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if (energy[1:] <= energy[:-1]).any():
            raise ValueError("energies must be strictly increasing")
        if (sigma <= 0.0).any():
            raise ValueError("uncertainties must be positive")

    def __len__(self):
        return self.energy.size


def check_range(lo, hi, what, ends):
    """Refuses, naming the grid (what) and its ends, a range from lo to hi
    unless lo < hi are finite and the span hi - lo is a finite float."""
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"{what} requires finite {ends}, got ({lo}, {hi})")
    if np.isinf(hi - lo):
        raise ValueError(f"{what} span {hi} - ({lo}) overflows")


def even_grid(lo, hi, points):
    """np.linspace(lo, hi, points), bit for bit, on a range check_range
    accepts.  Only linspace's last product can round past the float
    maximum, and linspace sets the end point itself, so that overflow is
    ignored."""
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, points)
