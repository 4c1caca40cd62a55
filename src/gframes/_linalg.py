"""Dense linear algebra helpers shared by the analysis and construction modules."""

from __future__ import annotations

import numpy as np

from .errors import SingularOperatorError

MACHINE_EPS = float(np.finfo(np.float64).eps)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    if matrix.size == 0:
        return np.zeros(0)
    return np.linalg.svd(matrix, compute_uv=False)


def operator_norm(matrix: np.ndarray) -> float:
    svals = singular_values(matrix)
    return float(svals[0]) if svals.size else 0.0


def rank_cutoff(shape: tuple[int, int], sigma_max: float, tol) -> float:
    """Singular values at or below this value count as zero."""
    return tol.rank_eps_factor * max(shape) * sigma_max * MACHINE_EPS


def svd_rank(matrix: np.ndarray, tol) -> int:
    svals = singular_values(matrix)
    if svals.size == 0:
        return 0
    cutoff = rank_cutoff(matrix.shape, float(svals[0]), tol)
    return int(np.count_nonzero(svals > cutoff))


def smallest_gain(matrix: np.ndarray) -> float:
    """min ||M x|| over unit x in the full domain; 0 when the kernel is nontrivial."""
    rows, cols = matrix.shape
    if cols > rows:
        return 0.0
    svals = singular_values(matrix)
    return float(svals[-1]) if svals.size else 0.0


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
