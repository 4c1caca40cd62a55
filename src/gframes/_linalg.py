"""Dense linear algebra helpers shared by the analysis and construction modules."""

from __future__ import annotations

import cmath

import numpy as np

from .errors import NumericalRangeError

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


def full_row_rank(svals: np.ndarray, shape: tuple[int, int], tol) -> bool:
    """Whether the ``shape`` matrix with descending singular values ``svals`` has
    rank equal to its row count: it is surjective, and invertible when square."""
    return rank_from_singular_values(svals, shape, tol) == shape[0]


def gram_certifies_full_column_rank(smallest: float, largest: float, shape, tol) -> bool:
    """True when the extreme eigenvalues of a computed Gram matrix fl(M^H M) prove
    that the ``shape`` matrix M has full column rank at the singular-value cutoff.
    delta bounds the rounding of the product and the eigensolver (Higham, ch. 3);
    the factor 2 covers the SVD's own.  False means only "not certified"."""
    rows, cols = shape
    delta = (rows + cols) * cols * MACHINE_EPS * largest
    if cols > rows or smallest <= delta:
        return False
    return (smallest - delta) ** 0.5 > 2.0 * rank_cutoff(shape, (largest + delta) ** 0.5, tol)


def bounded_below(matrix: np.ndarray, tol) -> tuple[float, bool, bool]:
    """The smallest gain min ||M x|| over unit x in the whole domain, whether
    it clears the rank cutoff, and whether the kernel is trivial, all from one
    decomposition.  For a tall or square matrix the last two are one
    comparison, sigma_min > cutoff (full column rank), returned twice.  A wide
    matrix has a nontrivial kernel, so its gain is 0 and it is not decomposed
    at all."""
    rows, cols = matrix.shape
    if cols > rows:
        return 0.0, False, False
    svals = singular_values(matrix)
    gain = float(svals[-1])
    full_column_rank = gain > rank_cutoff(matrix.shape, float(svals[0]), tol)
    return gain, full_column_rank, full_column_rank


def matrices_close(a: np.ndarray, b: np.ndarray, rel_eps: float) -> bool:
    """Frobenius-norm equality with a relative tolerance (absolute floor 1)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= rel_eps * scale


def hermitian_power(matrix: np.ndarray, power: float, tol) -> np.ndarray:
    """``matrix ** power`` for a Hermitian positive definite matrix via
    eigendecomposition; only used with negative powers of a frame operator.

    Whether a family is a frame is decided from sigma(A), never here.  Raises
    NumericalRangeError when the smallest eigenvalue is at or below the rank
    cutoff of the largest: the computed matrix holds no digit of its inverse.
    """
    sym = hermitize(np.asarray(matrix, dtype=complex))
    evals, vecs = np.linalg.eigh(sym)
    smallest, largest = float(evals[0]), float(evals[-1])
    if smallest <= rank_cutoff(sym.shape, largest, tol):
        raise NumericalRangeError(
            f"frame operator cannot be inverted in floating point "
            f"(eigenvalues {smallest:.3e} to {largest:.3e})"
        )
    powered = (vecs * np.power(evals, power)) @ vecs.conj().T
    return hermitize(powered)
