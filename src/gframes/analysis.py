"""Frame operator, optimal bounds, duals, and cross operators of g-frame families."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._linalg import (
    gram_certifies_full_column_rank,
    hermitian_power,
    hermitize,
    matrices_close,
    rank_cutoff,
    rank_from_singular_values,
    require_finite,
    singular_values,
)
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    TolerancePolicy,
    analysis_matrix,
    require_same_domain,
    require_same_khat,
    right_compose,
)


@dataclass(frozen=True)
class FrameReport:
    """Frame operator with its spectral bounds and classification flags.

    ``lower_bound`` and ``upper_bound`` are the extreme eigenvalues of the
    frame operator; they are the optimal constants in the defining
    inequality. ``is_frame`` holds when the lower bound clears the rank
    cutoff, ``is_tight`` when the bounds agree relatively, ``is_parseval``
    when additionally the common bound is 1.  ``frame_operator`` is
    read-only.
    """

    frame_operator: np.ndarray
    lower_bound: float
    upper_bound: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool

    def numbers(self) -> dict:
        """The bounds and flags, without the frame operator."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "frame_operator"}


# A theorem checked on one instance: its name, whether it held, and the
# quantities it compared.  ``construct`` prints these and ``verify`` asserts them.
Check = tuple[str, bool, dict]


def frame_operator(fam: GFrameFamily) -> np.ndarray:
    """Hermitian positive semidefinite d x d matrix: sum of w_i * block_i^H block_i,
    i.e. A^H A for the embedded analysis matrix A.

    Read-only, and computed once per family object.  Raises
    NumericalRangeError when it overflows (on every call: an error is never
    stored).  A finite frame operator implies a finite A (its diagonal holds
    A's squared column norms), so the operations that bound a family first
    never see an overflowed A.
    """
    return fam._memoized("frame_operator", _frame_operator)


def _frame_operator(fam: GFrameFamily) -> np.ndarray:
    a = analysis_matrix(fam)
    op = require_finite(hermitize(a.conj().T @ a), "frame operator")
    op.setflags(write=False)
    return op


def frame_bounds(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> FrameReport:
    """Optimal frame bounds and flags from the spectrum of the frame operator.

    Computed once per family object and tolerance values.
    """
    return fam._memoized(("frame_report", tol.rel_eps, tol.rank_eps_factor), _frame_report, tol)


def _frame_report(fam: GFrameFamily, tol: TolerancePolicy) -> FrameReport:
    op = frame_operator(fam)
    evals = np.linalg.eigvalsh(op)
    lower = float(evals[0])
    upper = float(evals[-1])
    is_frame = lower > rank_cutoff(op.shape, upper, tol)
    is_tight = is_frame and (upper - lower) <= tol.rel_eps * upper
    is_parseval = (
        is_tight
        and abs(upper - 1.0) <= tol.rel_eps
        and abs(lower - 1.0) <= tol.rel_eps
    )
    return FrameReport(
        frame_operator=op,
        lower_bound=lower,
        upper_bound=upper,
        is_frame=is_frame,
        is_tight=is_tight,
        is_parseval=is_parseval,
    )


def analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    """Singular values of the analysis matrix in descending order (also those
    of the synthesis matrix); read-only, and computed once per family object."""
    return fam._memoized("singular_values", _analysis_singular_values)


def _analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    svals = singular_values(analysis_matrix(fam))
    svals.setflags(write=False)
    return svals


def analysis_rank(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Numerical rank of A: certified full by the frame bounds, else counted from σ(A)."""
    rep = frame_bounds(fam, tol)
    if gram_certifies_full_column_rank(rep.lower_bound, rep.upper_bound, fam.rows.shape, tol):
        return fam.domain_dim
    return rank_from_singular_values(analysis_singular_values(fam), fam.rows.shape, tol)


def canonical_dual(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1}; the unique dual built from the frame operator.

    Raises SingularOperatorError when the family is not a frame.
    """
    inverse = hermitian_power(frame_operator(fam), -1.0, tol)
    return right_compose(fam, inverse)


def parseval_normalize(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1/2}; always Parseval for a frame input."""
    inv_root = hermitian_power(frame_operator(fam), -0.5, tol)
    return right_compose(fam, inv_root)


def cross_operator(left: GFrameFamily, right: GFrameFamily) -> np.ndarray:
    """Mixed Gram-type operator: sum of w_i * left_i^H right_i.

    Maps the domain of ``right`` into the domain of ``left``; swapping the
    arguments yields the conjugate transpose.  With both arguments equal it
    reduces to :func:`frame_operator`.
    """
    require_same_khat(left, right)
    cross = analysis_matrix(left).conj().T @ analysis_matrix(right)
    return require_finite(cross, "cross operator")


def is_dual_pair(
    theta: GFrameFamily, lam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True when ``theta`` is a dual of ``lam``: both are frames and the mixed
    pairing reproduces the identity.

    Both orderings of the cross operator are checked; they are conjugate
    transposes of each other, so the verdict is symmetric.
    """
    require_same_domain(theta, lam)
    if not frame_bounds(theta, tol).is_frame or not frame_bounds(lam, tol).is_frame:
        return False
    eye = np.eye(lam.domain_dim)
    return matrices_close(cross_operator(theta, lam), eye, tol.rel_eps) and matrices_close(
        cross_operator(lam, theta), eye, tol.rel_eps
    )


def dual_check(name: str, theta: GFrameFamily, lam: GFrameFamily, tol: TolerancePolicy) -> Check:
    """Whether ``theta`` is a dual of ``lam``, with the distance of their mixed
    pairing from the identity (Frobenius)."""
    passed = is_dual_pair(theta, lam, tol)  # checks the domains first
    defect = np.linalg.norm(cross_operator(theta, lam) - np.eye(lam.domain_dim))
    return name, passed, {"identity_defect": float(defect)}


def parseval_check(fam: GFrameFamily, tol: TolerancePolicy) -> Check:
    """Whether ``fam`` is Parseval, with its bounds and flags."""
    rep = frame_bounds(fam, tol)
    return "is-parseval", rep.is_parseval, rep.numbers()
