"""Frame operator, optimal bounds, duals, and cross operators of g-frame families."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._linalg import (
    full_row_rank,
    gram_certifies_full_column_rank,
    hermitian_power,
    hermitize,
    matrices_close,
    rank_from_singular_values,
    require_finite,
    singular_values,
)
from .errors import NumericalRangeError, PreconditionError, SingularOperatorError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    TolerancePolicy,
    _freeze,
    analysis_matrix,
    memoized,
    require_same_domain,
    require_same_khat,
    right_compose,
)


@dataclass(frozen=True)
class FrameReport:
    """Frame operator with its spectral bounds and classification flags.

    ``is_frame`` states the package's one rank rule: the embedded analysis
    matrix A has full column rank under the singular-value cutoff
    (``rank_cutoff``), certified from the frame operator's extreme
    eigenvalues when they can, else counted from sigma(A).  ``lower_bound``
    and ``upper_bound`` are the optimal frame bounds: those eigenvalues,
    except that an uncertified frame takes sigma_min(A)^2 as its lower bound,
    keeping the digits that squaring A loses.  ``is_tight`` holds when the
    bounds agree relatively, ``is_parseval`` when additionally the common
    bound is 1.  ``frame_operator`` is read-only.
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
    NumericalRangeError when it overflows, or underflows to below the
    smallest normal float for a nonzero family (on every call: an error is
    never stored).  A finite frame operator implies a finite A (its diagonal
    holds A's squared column norms), so the operations that bound a family
    first never see an overflowed A.
    """
    return memoized(fam._memo, "frame_operator", _frame_operator, fam)


def _frame_operator(fam: GFrameFamily) -> np.ndarray:
    op = require_finite(hermitize(_gram(fam)), "frame operator")
    if op.diagonal().real.max() < np.finfo(float).tiny and fam.rows.any():
        raise NumericalRangeError("frame operator underflows: entries or weights too small")
    return _freeze(op)


def _gram(fam: GFrameFamily) -> np.ndarray:
    """A^H A as computed, before any range check; read-only, once per family."""
    return memoized(fam._memo, "gram", _raw_gram, fam)


def _raw_gram(fam: GFrameFamily) -> np.ndarray:
    a = analysis_matrix(fam)
    return _freeze(a.conj().T @ a)


def pair_memo(lam: GFrameFamily, theta: GFrameFamily) -> dict:
    """The pair's record, kept in ``lam``'s memo while ``theta`` lives: first the cross
    operator C = B^H A, then ``classify``'s data; the pair family takes it as its memo."""
    return lam._pair_memo(theta, _cross)


def _cross(lam: GFrameFamily, theta: GFrameFamily) -> dict:
    return {"cross": _freeze(analysis_matrix(theta).conj().T @ analysis_matrix(lam))}


def pair_gram(lam: GFrameFamily, theta: GFrameFamily, record: dict) -> np.ndarray:
    """The pair family's Gram G = [[S_lam, C^H], [C, S_theta]], before any range check."""
    return memoized(record, "gram", _pair_gram, lam, theta, record["cross"])


def _pair_gram(lam: GFrameFamily, theta: GFrameFamily, cross: np.ndarray) -> np.ndarray:
    d = lam.domain_dim
    gram = np.empty((d + theta.domain_dim,) * 2, dtype=complex)
    gram[:d, :d], gram[d:, d:] = hermitize(_gram(lam)), hermitize(_gram(theta))
    gram[d:, :d], gram[:d, d:] = cross, cross.conj().T
    return _freeze(gram)


def frame_eigenvalues(memo: dict, op: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``op``, the frame operator of the family with ``memo``; once."""
    return memoized(memo, "eigenvalues", lambda: _freeze(np.linalg.eigvalsh(op)))


def frame_bounds(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> FrameReport:
    """Optimal frame bounds and the frame verdict of :class:`FrameReport`.

    Computed once per family object and tolerance values.
    """
    key = ("frame_report", tol.rel_eps, tol.rank_eps_factor)
    return memoized(fam._memo, key, _frame_report, fam, tol)


def _frame_report(fam: GFrameFamily, tol: TolerancePolicy) -> FrameReport:
    op = frame_operator(fam)
    evals = frame_eigenvalues(fam._memo, op)
    lower = float(evals[0])
    upper = float(evals[-1])
    is_frame = gram_certifies_full_column_rank(lower, upper, fam.rows.shape, tol)
    if not is_frame:
        svals = analysis_singular_values(fam)
        is_frame = rank_from_singular_values(svals, fam.rows.shape, tol) == fam.domain_dim
        if is_frame:
            lower = float(svals[-1]) ** 2
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


def require_frame(fam: GFrameFamily, tol: TolerancePolicy, which: str) -> FrameReport:
    """The frame report of ``fam``; PreconditionError "``which`` is not a frame" if it is none."""
    report = frame_bounds(fam, tol)
    if not report.is_frame:
        raise PreconditionError(f"{which} is not a frame")
    return report


def analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    """Singular values of the analysis matrix in descending order (also those
    of the synthesis matrix); read-only, and computed once per family object."""
    return memoized(fam._memo, "singular_values", _analysis_singular_values, fam)


def _analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    return _freeze(singular_values(analysis_matrix(fam)))


def analysis_rank(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Numerical rank of A: the domain dim for a frame, else counted from σ(A)."""
    if frame_bounds(fam, tol).is_frame:
        return fam.domain_dim
    return rank_from_singular_values(analysis_singular_values(fam), fam.rows.shape, tol)


def synthesis_gain(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, bool]:
    """(σ_min of the synthesis matrix A^H over the whole target, whether A is
    onto), from the memoized σ(A) = σ(A^H): onto means rank N.  When N > d the
    shape decides, gain 0 and not onto, and nothing is decomposed."""
    if fam.codomain_dim > fam.domain_dim:
        return 0.0, False
    svals = analysis_singular_values(fam)
    return float(svals[-1]), full_row_rank(svals, fam.rows.shape, tol)


def _frame_operator_power(fam: GFrameFamily, power: float, tol: TolerancePolicy) -> GFrameFamily:
    """Family with blocks block_i @ S^power for a negative ``power``."""
    rep = frame_bounds(fam, tol)
    if not rep.is_frame:
        raise SingularOperatorError(f"family is not a frame (min eigenvalue {rep.lower_bound:.3e})")
    return right_compose(fam, hermitian_power(rep.frame_operator, power, tol))


def canonical_dual(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1}; the unique dual built from the frame operator.

    Raises SingularOperatorError exactly when the family is not a frame, and
    NumericalRangeError for a frame whose frame operator cannot be inverted
    in floating point.
    """
    return _frame_operator_power(fam, -1.0, tol)


def parseval_normalize(fam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1/2}; always Parseval for a frame input.

    Raises as :func:`canonical_dual` does.
    """
    return _frame_operator_power(fam, -0.5, tol)


def cross_operator(left: GFrameFamily, right: GFrameFamily) -> np.ndarray:
    """Mixed Gram-type operator: sum of w_i * left_i^H right_i.

    Maps the domain of ``right`` into the domain of ``left``; swapping the
    arguments yields the conjugate transpose.  With both arguments equal it
    reduces to :func:`frame_operator`.  Read-only, once per :func:`pair_memo`.
    """
    require_same_khat(left, right)
    cross = _gram(left) if left is right else pair_memo(right, left)["cross"]
    return require_finite(cross, "cross operator")


def is_dual_pair(
    theta: GFrameFamily, lam: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> bool:
    """True when ``theta`` is a dual of ``lam``; the verdict of :func:`dual_check`."""
    return dual_check("dual-pair", theta, lam, tol)[1]


def dual_check(name: str, theta: GFrameFamily, lam: GFrameFamily, tol: TolerancePolicy) -> Check:
    """Whether ``theta`` is a dual of ``lam``: both are frames and their mixed
    pairing reproduces the identity, with the distance of the pairing from the
    identity (Frobenius).  One pairing decides: the other order is its
    conjugate transpose, at the same distance from the identity, so the
    verdict is symmetric."""
    require_same_domain(theta, lam)
    frames = frame_bounds(theta, tol).is_frame and frame_bounds(lam, tol).is_frame
    pairing = cross_operator(theta, lam)
    eye = np.eye(lam.domain_dim)
    passed = frames and matrices_close(pairing, eye, tol.rel_eps)
    return name, passed, {"identity_defect": float(np.linalg.norm(pairing - eye))}


def frame_check(fam: GFrameFamily, tol: TolerancePolicy) -> Check:
    """Whether ``fam`` is a frame, with its bounds and flags."""
    rep = frame_bounds(fam, tol)
    return "is-frame", rep.is_frame, rep.numbers()


def parseval_check(fam: GFrameFamily, tol: TolerancePolicy) -> Check:
    """Whether ``fam`` is Parseval, with its bounds and flags."""
    rep = frame_bounds(fam, tol)
    return "is-parseval", rep.is_parseval, rep.numbers()
