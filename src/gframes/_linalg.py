"""Dense linear algebra helpers shared by the analysis and construction modules."""

from __future__ import annotations

import cmath

import numpy as np

from .errors import NumericalRangeError, SingularOperatorError

MACHINE_EPS = float(np.finfo(np.float64).eps)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def require_finite(matrix: np.ndarray, what: str) -> np.ndarray:
    """``matrix`` itself; raises NumericalRangeError when an entry overflowed.

    The sum is not finite when an entry is not (or when the entries add up
    past the float range, where the spectrum would overflow too), and it
    costs less than a test per entry.
    """
    if not cmath.isfinite(matrix.sum()):
        raise NumericalRangeError(f"{what} is not finite: entries or weights too large")
    return matrix


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values.  A wide matrix is decomposed through its
    transpose, which has the same singular values and takes LAPACK's faster
    tall path."""
    if matrix.size == 0:
        return np.zeros(0)
    rows, cols = matrix.shape
    return np.linalg.svd(matrix.T if cols > rows else matrix, compute_uv=False)


def operator_norm(matrix: np.ndarray) -> float:
    svals = singular_values(matrix)
    return float(svals[0]) if svals.size else 0.0


def rank_cutoff(shape: tuple[int, int], sigma_max: float, tol) -> float:
    """Singular values at or below this value count as zero."""
    return tol.rank_eps_factor * max(shape) * sigma_max * MACHINE_EPS


def rank_from_singular_values(svals: np.ndarray, shape: tuple[int, int], tol) -> int:
    """Numerical rank of a ``shape`` matrix whose descending singular values are ``svals``."""
    if svals.size == 0:
        return 0
    return int(np.count_nonzero(svals > rank_cutoff(shape, float(svals[0]), tol)))


def svd_rank(matrix: np.ndarray, tol) -> int:
    return rank_from_singular_values(singular_values(matrix), matrix.shape, tol)


def bounded_below(matrix: np.ndarray, tol) -> tuple[float, bool, bool]:
    """The smallest gain min ||M x|| over unit x in the whole domain, whether
    it clears the rank cutoff, and whether the kernel is trivial, all from one
    decomposition.  A wide matrix has a nontrivial kernel, so its gain is 0
    and it is not decomposed at all."""
    rows, cols = matrix.shape
    if cols > rows:
        return 0.0, False, False
    svals = singular_values(matrix)
    gain = float(svals[-1])
    cutoff = rank_cutoff(matrix.shape, float(svals[0]), tol)
    return gain, gain > cutoff, rank_from_singular_values(svals, matrix.shape, tol) == cols


def matrices_close(a: np.ndarray, b: np.ndarray, rel_eps: float) -> bool:
    """Frobenius-norm equality with a relative tolerance (absolute floor 1)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= rel_eps * scale


def hermitian_power(matrix: np.ndarray, power: float, tol) -> np.ndarray:
    """``matrix ** power`` for a Hermitian PSD matrix via eigendecomposition.

    Only used with negative powers (inverse, inverse square root), which
    require the whole spectrum to clear the rank cutoff.
    """
    sym = hermitize(np.asarray(matrix, dtype=complex))
    evals, vecs = np.linalg.eigh(sym)
    if power < 0:
        cutoff = rank_cutoff(sym.shape, float(evals[-1]), tol) if evals.size else 0.0
        if evals.size == 0 or float(evals[0]) <= cutoff:
            smallest = float(evals[0]) if evals.size else 0.0
            raise SingularOperatorError(
                f"operator is singular at tolerance (min eigenvalue {smallest:.3e})"
            )
    powered = (vecs * np.power(evals, power)) @ vecs.conj().T
    return hermitize(powered)
