"""Ensemble parameters, Dicke-subspace spectrum, ladder coefficients, and
the Gibbs steady state.

An ensemble of N identical two-level emitters, packed well inside the
emission wavelength, is restricted to the symmetric (Dicke) subspace
spanned by |n>, n = 0..N, where n counts excited emitters.  Code units fix
omega0 = hbar = k_B = 1 and Gamma(omega0) = 1, so everything here is
dimensionless: eta is the static dipole-dipole coupling in units of the
transition frequency and x = hbar*omega0/(k_B*T) the inverse temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    EtaOutOfRange,
    NonPositiveX,
    SingleAtomWithCoupling,
    ZeroAtoms,
)

__all__ = [
    "EnsembleParams",
    "DickeSpectrum",
    "ThermalState",
    "build_spectrum",
    "ladder_coefficients",
    "thermal_state",
]


@dataclass(frozen=True)
class EnsembleParams:
    """Physical parameters of the emitter ensemble (dimensionless).

    n_atoms : number of emitters N
    eta     : dipole-dipole coupling over the transition frequency
    x       : inverse temperature hbar*omega0/(k_B*T)

    The one constructor of validated parameters: n_atoms is stored as an
    int, from any integral value (2.0, np.int64(3)); anything else, '3' or
    2.5, is refused with ValueError.  eta and x are stored as float; text
    for either ('0.1', b'10') is refused with ValueError too.

    The admissible coupling window -(N-1)/(N+1) < eta < 1 keeps every
    collective transition frequency positive; for N = 1 the per-pair
    coupling eta/(N-1) is undefined, so only eta = 0 is accepted.
    Rounding rule: the end frequencies omega_0 = 1 - eta and
    omega_N = 1 + eta*(N+1)/(N-1) are evaluated with build_spectrum's
    float expression, and an eta inside the window for which either rounds
    to zero or below is refused too (EtaOutOfRange).
    """

    n_atoms: int
    eta: float = 0.0
    x: float = 1.0

    def __post_init__(self) -> None:
        try:
            n = int(self.n_atoms)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != self.n_atoms:
            raise ValueError(f"atom count must be an integer, got {self.n_atoms!r}")
        object.__setattr__(self, "n_atoms", n)
        for name in ("eta", "x"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes, bytearray)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if n < 1:
            raise ZeroAtoms(f"atom count must be at least 1, got {n}")
        if not math.isfinite(self.x) or self.x <= 0.0:
            raise NonPositiveX(f"x must be positive and finite, got {self.x}")
        if not math.isfinite(self.eta):
            raise EtaOutOfRange(f"eta must be finite, got {self.eta}")
        if n == 1:
            if self.eta != 0.0:
                raise SingleAtomWithCoupling(
                    "a single emitter has no dipole-dipole partner; eta must be 0"
                )
            return
        lower = -(n - 1) / (n + 1)
        if abs(self.eta) >= 1.0 or self.eta <= lower:
            raise EtaOutOfRange(
                f"eta must satisfy {lower:.6g} < eta < 1 for N={n}, got {self.eta}"
            )
        # omega_0 and omega_N exactly as build_spectrum rounds them
        ends = [self.omega_bar + 2.0 * self.delta_tilde * (m - n / 2.0) for m in (0.0, n)]
        if min(ends) <= 0.0:
            raise EtaOutOfRange(
                f"eta={self.eta} rounds a transition frequency of N={n} to {min(ends)}; "
                "every omega_n must stay positive"
            )

    @property
    def delta_tilde(self) -> float:
        """Per-pair coupling eta/(N-1); defined as 0 for a single emitter."""
        if self.n_atoms == 1:
            return 0.0
        return self.eta / (self.n_atoms - 1)

    @property
    def omega_bar(self) -> float:
        """Shifted transition frequency 1 + delta_tilde."""
        return 1.0 + self.delta_tilde


@dataclass(frozen=True)
class DickeSpectrum:
    """Collective energies E_n and transition frequencies omega_m, n,m = 0..N."""

    energies: np.ndarray
    frequencies: np.ndarray


def build_spectrum(params: EnsembleParams) -> DickeSpectrum:
    """Closed-form spectrum of the collective Hamiltonian on the Dicke ladder.

        E_n     = omega_bar*(n - N/2) - delta_tilde*n*(N - n + 1)
        omega_m = omega_bar + 2*delta_tilde*(m - N/2)

    Both arrays have length N + 1.  Consecutive spacings obey
    E_{n+1} - E_n = omega_n, which ties the Gibbs weights to the
    level-dependent transition frequencies.  No diagonalization is involved;
    the Hamiltonian is diagonal in this basis.
    """
    levels = params.n_atoms + 1
    energies, frequencies = np.empty(levels), np.empty(levels)
    _spectrum(params, np.arange(levels, dtype=float), energies, frequencies)
    energies.setflags(write=False)
    frequencies.setflags(write=False)
    return DickeSpectrum(energies=energies, frequencies=frequencies)


def _spectrum(params, n: np.ndarray, energies: np.ndarray, frequencies: np.ndarray) -> None:
    """build_spectrum in place: fill energies and frequencies from n, the
    level ramp 0..N, which is spent.  The closed forms are rounded as
    wb*(n - N/2) - (dt*n)*((N - n) + 1) and (2*dt)*(n - N/2) + wb."""
    big_n = params.n_atoms
    dt = params.delta_tilde
    wb = params.omega_bar
    np.subtract(n, big_n / 2.0, out=frequencies)
    np.subtract(big_n, n, out=energies)
    energies += 1.0
    n *= dt
    energies *= n
    np.multiply(frequencies, wb, out=n)
    np.subtract(n, energies, out=energies)
    frequencies *= 2.0 * dt
    frequencies += wb


def ladder_coefficients(n_atoms: int) -> np.ndarray:
    """Read-only lowering coefficients l_n = sqrt(n*(N-n+1)) of S-|n> ->
    |n-1>, n = 0..N, for N emitters (the EnsembleParams atom-count rule).
    The raising coefficient of |n> is l_{n+1} = sqrt((n+1)*(N-n)), the
    closed form sqrt((N-n)*(n+1)) with its factors swapped, bit for bit."""
    n_atoms = EnsembleParams(n_atoms).n_atoms
    lowering = _lowering(np.arange(n_atoms + 1, dtype=float), np.empty(n_atoms + 1))
    lowering.setflags(write=False)
    return lowering


def _lowering(n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ladder_coefficients into out: sqrt(((N - n) + 1)*n) from the level
    ramp n = 0..N, which is only read."""
    np.subtract(n.size - 1, n, out=out)
    out += 1.0
    out *= n
    return np.sqrt(out, out=out)


def _ramp(out: np.ndarray) -> np.ndarray:
    """Fill out with the exact level ramp 0..out.size - 1: 16 levels from a
    range, then each pass adds the filled length to a copy of the prefix."""
    done = min(out.size, 16)
    out[:done] = range(done)
    while done < out.size:
        step = min(done, out.size - done)
        np.add(out[:step], done, out=out[done : done + step])
        done += step
    return out


def _pairwise_length(length: int, width: int) -> int:
    """The length of the smallest node of np.sum's pairwise split of a row
    of `length` terms that starts the row and holds its first `width`.

    np.sum adds a contiguous stretch of more than 128 terms as the sum of
    its first half, rounded down to a multiple of 8, plus the sum of the
    rest (numpy's rule since 1.9), so the nodes that start the row are
    `length` halved that way while longer than 128.
    """
    size = length
    while size > 128:
        half = size // 2 - (size // 2) % 8
        if width > half:
            break
        size = half
    return size


def logsumexp_rows(
    terms: np.ndarray, length: int | None = None, zeros: np.ndarray | None = None
) -> np.ndarray:
    """log(sum(exp(t))) of every row t of a 2-D array; -inf for empty rows
    and for rows whose terms are all -inf.

    Each row is shifted by its maximum, so every exponential lies in
    (0, 1] and the largest is exactly 1.  np.sum adds the positive terms of
    a row pairwise, so the relative error of each sum grows like
    eps*log2(length), and a row's result does not depend on the other rows.
    The rows are shifted and exponentiated in the caller's array, which
    must be writable and is spent on return.

    A length beyond the row width sums each row as the leading terms of a
    row of that length whose other exponentials are exactly 0.0, with every
    bit of the full row's sum.  The row is padded with zeros only up to
    _pairwise_length(length, width): the node of np.sum's pairwise split
    of the full row that holds its live terms.  Every other node of the
    full row sums to +0.0, and s + 0.0 == s for every sum s >= +0.0.  The
    padding comes from zeros, a flat array of zeros with room for every
    padded row, which is all zero again on return; a new one is made when
    zeros is None.
    """
    if terms.shape[1] == 0:
        return np.full(terms.shape[0], -math.inf)
    top = terms.max(axis=1)
    top[top == -math.inf] = 0.0  # such a row sums to 0, whose log is -inf
    terms -= top[:, None]
    np.exp(terms, out=terms)
    rows, width = terms.shape
    size = width if length is None else _pairwise_length(length, width)
    if size == width:
        total = terms.sum(axis=1)
    else:
        flat = np.zeros(rows * size) if zeros is None else zeros[: rows * size]
        padded = flat.reshape(rows, size)
        padded[:, :width] = terms
        total = padded.sum(axis=1)
        padded[:, :width] = 0.0
    with np.errstate(divide="ignore"):
        return top + np.log(total)


@dataclass(frozen=True)
class ThermalState:
    """Gibbs populations over the Dicke ladder, kept in the log domain.

    log_weights[n] = -x*E_n shifted so the largest entry is exactly 0;
    log_z is the log of the partition sum of the shifted weights.  The
    shift cancels in every ratio, so populations and correlators never
    see it.
    """

    log_weights: np.ndarray
    log_z: float

    @cached_property
    def populations(self) -> np.ndarray:
        """p_n = exp(log_weights[n] - log_z), computed on first access."""
        pops = np.exp(self.log_weights - self.log_z)
        pops.setflags(write=False)
        return pops

    @property
    def dim(self) -> int:
        return self.log_weights.size


def thermal_state(params: EnsembleParams) -> ThermalState:
    """Gibbs steady state p_n proportional to exp(-x*E_n).

    The weights are shifted by the ground-level weight before
    exponentiation, so arbitrarily cold ensembles stay representable;
    log_z is the single-row case of logsumexp_rows, the sum every
    correlator path uses, taken on a copy of the row so the stored
    log_weights stay as they are.  Detailed balance p_{n+1}/p_n =
    exp(-x*(E_{n+1}-E_n)) holds at the level of the stored log weights.
    """
    energies = build_spectrum(params).energies
    with np.errstate(over="ignore"):  # a weight beyond the double range is -inf
        log_weights = -params.x * (energies - energies.min())
    log_weights.setflags(write=False)
    log_z = float(logsumexp_rows(log_weights[None, :].copy())[0])
    return ThermalState(log_weights=log_weights, log_z=log_z)
