"""Dense linear algebra helpers shared by the analysis and construction modules."""

from __future__ import annotations

import cmath

import numpy as np

from .errors import NumericalRangeError

MACHINE_EPS = float(np.finfo(np.float64).eps)

# The one rank cutoff of the package (``rank_cutoff``) is this many times
# max(rows, cols) * sigma_max * machine_eps.  Read at call time.
RANK_EPS_FACTOR = 10.0


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


def rank_cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this value count as zero."""
    return RANK_EPS_FACTOR * max(shape) * sigma_max * MACHINE_EPS


def rank_from_singular_values(svals: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a ``shape`` matrix whose descending singular values are ``svals``."""
    if svals.size == 0:
        return 0
    return int(np.count_nonzero(svals > rank_cutoff(shape, float(svals[0]))))


def full_row_rank(svals: np.ndarray, shape: tuple[int, int]) -> bool:
    """Whether the ``shape`` matrix with descending singular values ``svals`` has
    rank equal to its row count: it is surjective, and invertible when square."""
    return rank_from_singular_values(svals, shape) == shape[0]


def gram_rounding_bound(shape, scale: float) -> float:
    """delta = (rows + cols) * cols * eps * ``scale``: how far a computed Gram of a
    ``shape`` matrix M, and its computed eigenvalues, may sit from those of M^H M
    when ``scale`` is the Gram's rounding scale (see the next function)."""
    rows, cols = shape
    return (rows + cols) * cols * MACHINE_EPS * scale


def gram_certifies_full_column_rank(smallest: float, largest: float, shape) -> bool:
    """True when the extreme eigenvalues of a computed Gram matrix G of the
    ``shape`` matrix M prove that M has full column rank at the singular-value
    cutoff.  False means only "not certified".

    ``largest`` is G's rounding scale: its largest eigenvalue for a Gram
    fl(M^H M) summed from M's rows, where delta (:func:`gram_rounding_bound`)
    bounds the rounding of the product and the eigensolver (Higham, ch. 3); and
    a larger scale for a Gram derived in d x d algebra, chosen so that the same
    delta bounds its distance from fl(M^H M) for the computed rows M (derived
    in ``analysis._composed_gram``).  The factor 2 covers the SVD's own rounding.
    """
    rows, cols = shape
    delta = gram_rounding_bound(shape, largest)
    if cols > rows or smallest <= delta:
        return False
    return (smallest - delta) ** 0.5 > 2.0 * rank_cutoff(shape, (largest + delta) ** 0.5)


def invert_kept(factors, rank: int, what: str) -> np.ndarray:
    """Pseudo-inverse of M from the thin SVD ``factors`` of conj(M), by numpy's pinv
    formula over its ``rank`` largest singular values (pinv's bits when all are
    kept); NumericalRangeError naming ``what`` when it leaves the float range."""
    u, svals, vh = factors
    with np.errstate(over="ignore", invalid="ignore"):
        result = vh[:rank].T @ ((1.0 / svals[:rank])[:, np.newaxis] * u[:, :rank].T)
    if not cmath.isfinite(result.sum()):
        sigma = f"{svals[rank - 1]:.3e}"
        raise NumericalRangeError(f"{what} cannot be inverted in floating point (sigma {sigma})")
    return result


def matrices_close(a: np.ndarray, b: np.ndarray, rel_eps: float) -> bool:
    """Frobenius-norm equality with a relative tolerance (absolute floor 1)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= rel_eps * scale


def hermitian_power(matrix: np.ndarray, power: float) -> np.ndarray:
    """``matrix ** power`` for an exactly Hermitian positive definite matrix (as
    every frame operator is) via eigendecomposition; only used with negative
    powers of a frame operator.

    Whether a family is a frame is decided from sigma(A), never here.  Raises
    NumericalRangeError when the smallest eigenvalue is at or below the rank
    cutoff of the largest: the computed matrix holds no digit of its inverse.
    """
    evals, vecs = np.linalg.eigh(matrix)
    smallest, largest = float(evals[0]), float(evals[-1])
    if smallest <= rank_cutoff(matrix.shape, largest):
        raise NumericalRangeError(
            f"frame operator cannot be inverted in floating point "
            f"(eigenvalues {smallest:.3e} to {largest:.3e})"
        )
    powered = (vecs * np.power(evals, power)) @ vecs.conj().T
    return hermitize(powered)
