"""Independent oracles for the benchmark's output checks.

Nothing here calls the program.  The z-DM dimer H = J S1.S2 + D (S1 x S2)_z
has levels -J/4 - W, J/4 (twice) and -J/4 + W with W = sqrt(J^2 + D^2)/2.
Its thermal state is an X state with rho_14 = 0 and maximally mixed
marginals, so a local z rotation makes it Bell-diagonal with correlations
c_x = c_y = -(p_minus - p_plus) and c_z = 2 p_t - p_minus - p_plus (p_t per
triplet level).  Concurrence, mutual information, CHSH maximum and Luo's
classical correlation (S. Luo, PRA 77, 042303 (2008)) then have closed
forms.  The cross section is built from the Pauli matrices and numpy's
eigensolver, not from the program's operators.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Boltzmann constant (CODATA 2018), meV/K.
KB = 8.617333262e-2
SEPARATION = 4.43  # angstrom; the model's default intra-dimer distance
FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def _xlog2(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def panel(J, D, T):
    """Concurrence, mutual information, classical correlation, discord and
    CHSH maximum of the thermal dimer at the temperatures T (K), in bits."""
    beta = 1.0 / (KB * np.asarray(T, dtype=float))
    W = 0.5 * math.hypot(J, D)
    # weights relative to the ground level -J/4 - W
    w_t = np.exp(-beta * (0.5 * J + W))
    w_plus = np.exp(-2.0 * beta * W)
    Z = 1.0 + w_plus + 2.0 * w_t
    p_minus, p_plus, p_t = 1.0 / Z, w_plus / Z, w_t / Z
    c_perp = p_minus - p_plus
    c_z = 2.0 * p_t - p_minus - p_plus
    concurrence = np.maximum(0.0, 2.0 * p_minus - 1.0)
    mutual = 2.0 + _xlog2(p_minus) + _xlog2(p_plus) + 2.0 * _xlog2(p_t)
    c = np.maximum(np.abs(c_perp), np.abs(c_z))
    classical = 0.5 * (_xlog2(1.0 - c) + _xlog2(1.0 + c))
    chsh = 2.0 * np.sqrt(c_perp**2 + np.maximum(c_perp**2, c_z**2))
    return {"concurrence": concurrence, "mutual_info": mutual, "classical_corr": classical,
            "discord": mutual - classical, "chsh_max": chsh}


def entanglement_tc(J, D):
    """Root of sinh(W/kT) = exp(-J/2kT): where the thermal state stops being
    entangled.  Reduces to J/(kB ln 3) at D = 0."""
    W = 0.5 * math.hypot(J, D)

    def height(beta):  # beta = 1/kT, 1/meV
        return math.sinh(W * beta) - math.exp(-0.5 * J * beta)

    lo, hi = 0.0, 1.0 / J
    while height(hi) <= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if height(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 1.0 / (KB * 0.5 * (lo + hi))


def chsh_tc_closed(J):
    return J / (KB * math.log((3.0 + math.sqrt(2.0)) / (math.sqrt(2.0) - 1.0)))


def concurrence_minus_discord(J, D, T):
    values = panel(J, D, T)
    return values["concurrence"] - values["discord"]


# ---------------------------------------------------------------------------
# Scattering
# ---------------------------------------------------------------------------

def shipped_form_factor(root):
    """Coefficients of the shipped V4+ form-factor file, parsed here."""
    values = {}
    path = os.path.join(root, "src", "dimercorr", "data", "v4plus_j0.txt")
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, sep, value = line.split("#", 1)[0].partition("=")
            if sep:
                values[key.strip()] = float(value)
    return values


def form_factor(q, c):
    s2 = (np.asarray(q, dtype=float) / (4.0 * math.pi)) ** 2
    return (c["A"] * np.exp(-c["a"] * s2) + c["B"] * np.exp(-c["b"] * s2)
            + c["C"] * np.exp(-c["c"] * s2) + c["D0"])


def interference(q):
    qr = np.asarray(q, dtype=float) * SEPARATION
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(qr > 0.0, 1.0 - np.sin(qr) / np.where(qr > 0.0, qr, 1.0), 0.0)


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_SITE = np.array([[0.5 * np.kron(s, np.eye(2)) for s in _PAULI],
                  [0.5 * np.kron(np.eye(2), s) for s in _PAULI]])  # [site, axis]


def cross_section(J, D, q_vecs, omega, T, fwhm, coefficients):
    """Thermal cross section (arbitrary scale) at the (N, 3) momenta q_vecs
    and the energies omega (M,): shape (N, M).  Sum over ordered level pairs
    of Boltzmann weight, |site-summed matrix element with phase e^{iQ.r}|^2
    projected transverse to Q, squared form factor, and a unit-area Gaussian
    of the given FWHM at the transition energy; ions at 0 and SEPARATION x."""
    S1, S2 = _SITE
    H = J * sum(S1[a] @ S2[a] for a in range(3)) + D * (S1[0] @ S2[1] - S1[1] @ S2[0])
    energies, vectors = np.linalg.eigh(H)
    weights = np.exp(-(energies - energies[0]) / (KB * T))
    weights /= weights.sum()
    # elements[l, a, i, f] = <i| S_l^a |f>
    elements = np.einsum("ki,lakm,mf->laif", vectors.conj(), _SITE, vectors)

    q_vecs = np.asarray(q_vecs, dtype=float)
    omega = np.asarray(omega, dtype=float)
    qnorm = np.linalg.norm(q_vecs, axis=1)
    qhat = q_vecs / qnorm[:, None]
    phases = np.stack([np.ones(len(q_vecs)), np.exp(1j * q_vecs[:, 0] * SEPARATION)], axis=1)
    amplitude = np.einsum("nl,laif->naif", phases, elements)  # (N, 3, 4, 4)
    along = np.einsum("na,naif->nif", qhat, amplitude)
    transverse = np.sum(np.abs(amplitude) ** 2, axis=1) - np.abs(along) ** 2  # (N, 4, 4)
    strength = weights[None, :, None] * transverse * form_factor(qnorm, coefficients)[:, None, None] ** 2
    sigma = fwhm / FWHM_OVER_SIGMA
    gaps = energies[None, :] - energies[:, None]  # [i, f]
    lines = np.exp(-0.5 * ((omega[:, None, None] - gaps) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return np.einsum("nif,mif->nm", strength, lines)
