"""Frame operator, optimal bounds, duals, and cross operators of g-frame families."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from . import _linalg
from ._linalg import (
    full_row_rank,
    gram_certifies_full_column_rank,
    gram_rounding_bound,
    hermitian_power,
    hermitize,
    matrices_close,
    rank_from_singular_values,
    require_finite,
    singular_values,
)
from .errors import NumericalRangeError, PreconditionError, ShapeError, SingularOperatorError
from .model import (
    GFrameFamily,
    OperatorPair,
    _freeze,
    _row_weights,
    chunk_rows,
    composition,
    memoized,
    require_same_domain,
    require_same_khat,
    right_compose,
    row_chunks,
)


@dataclass(frozen=True)
class FrameReport:
    """Frame operator with its spectral bounds and classification flags.

    ``is_frame`` states the package's one rank rule: the embedded analysis
    matrix A has full column rank under the singular-value cutoff
    (``rank_cutoff``), certified from the frame operator's extreme
    eigenvalues when they can, else counted from sigma(A).  ``lower_bound``
    and ``upper_bound`` are the optimal frame bounds: those eigenvalues, but
    when they certify no rank the lower bound is sigma_d(A)^2 (0 for N < d
    rows), which keeps the digits that squaring A loses and is never negative.
    These three take no tolerance (:func:`optimal_bounds`).  ``is_tight`` holds
    when the bounds agree to ``_linalg.REL_EPS``, ``is_parseval`` when
    additionally the common bound is 1.  ``frame_operator`` is read-only.
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

    def within(self, lower: float, upper: float) -> bool:
        """Whether the bounds sit inside the window [lower, upper], each end widened
        relatively by ``_linalg.REL_EPS``: the one window rule of the construction theorems."""
        eps = _linalg.REL_EPS
        above = self.lower_bound >= lower * (1.0 - eps)
        return above and self.upper_bound <= upper * (1.0 + eps)


# A theorem checked on one instance: its name, whether it held, and the
# quantities it compared.  ``construct`` prints these and ``verify`` asserts them.
Check = tuple[str, bool, dict]


# Folds the real (p, q, 4) products [xx, xy, yx, yy] of the streamed kernel into p x q
# complex entries xx + yy + i(xy - yx).
_FOLD = np.array([1.0, 1.0j, -1.0j, 1.0])


def frame_operator(fam: GFrameFamily) -> np.ndarray:
    """Hermitian positive semidefinite d x d matrix: sum of w_i * block_i^H block_i,
    i.e. A^H A for the embedded analysis matrix A.

    Streamed from the family's rows in O(chunk x d) extra memory (A is never
    formed) and exactly Hermitian.  A composition taller than one row chunk
    (``right_compose``, and so ``compose_sum``) takes it from d x d algebra
    instead, L^H G L with G its source's Gram (:func:`_composed_gram`), when
    the rounding bound of that route leaves its smallest eigenvalue clear;
    else it streams it as any family does, with the same bits.  Read-only,
    and computed once per family object.  Raises NumericalRangeError when it
    overflows, or underflows to below the smallest normal float for a
    nonzero family (on every call: an error is never stored).  A finite frame
    operator implies a finite A (its diagonal holds A's squared column
    norms), so the operations that bound a family first never see an
    overflowed A.
    """
    return memoized(fam._memo, "frame_operator", _frame_operator, fam)


def _frame_operator(fam: GFrameFamily) -> np.ndarray:
    op = require_finite(_gram(fam), "frame operator")
    if op.diagonal().real.max() < np.finfo(float).tiny and not fam.is_zero():
        raise NumericalRangeError("frame operator underflows: entries or weights too small")
    return op


def _gram(fam: GFrameFamily) -> np.ndarray:
    """A^H A as computed, before any range check; read-only, once per family.

    A composition's Gram derived from d x d data (:func:`_derived_gram`) comes
    with its rounding scale, memoized beside it as ``"scale"``; a streamed
    Gram's scale is its largest eigenvalue."""
    return memoized(fam._memo, "gram", _computed_gram, fam)


def _computed_gram(fam: GFrameFamily) -> np.ndarray:
    composed = composition(fam)
    derived = None if composed is None else _derived_gram(fam, *composed)
    return _weighted_product(fam, fam) if derived is None else derived


_TINY = float(np.finfo(float).tiny)


def _derived_gram(
    fam: GFrameFamily, source: GFrameFamily, operator: np.ndarray
) -> np.ndarray | None:
    """The Gram of ``fam`` = ``source`` composed with ``operator``, from
    :func:`_composed_gram`, its scale and eigenvalues memoized; None, so that the
    Gram is streamed, when the route cannot vouch for it: a source wider than
    N/4 columns or without a finite frame operator, a scale outside the normal
    float range, or a smallest eigenvalue at or below the rounding bound delta
    (for instance when a sum's L2 nearly cancels its L1)."""
    if fam.codomain_dim < 4 * operator.shape[0]:
        return None
    try:
        gram, scale = _composed_gram(source, operator)
    except NumericalRangeError:
        return None
    if not (_TINY <= scale < math.inf and cmath.isfinite(gram.sum())):
        return None
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= gram_rounding_bound(_shape(fam), max(float(evals[-1]), scale)):
        return None
    fam._memo["eigenvalues"], fam._memo["scale"] = _freeze(evals), scale
    return _freeze(gram)


def _composed_gram(source: GFrameFamily, operator: np.ndarray) -> tuple[np.ndarray, float]:
    """(G~, s): the Gram hermitize(L^H G L) of the composition M = X L of the
    source X with the k x m operator L, G X's memoized Gram, and its rounding
    scale s = c ||L||_F^2 s_X, c = 2 max(1, k / m), s_X X's scale
    (:func:`_scale`).  A sum of a pair (:func:`compose_sum`) is the pair family
    composed with L = [L1; L2], so its G is the pair Gram [[S_lam, C^H], [C,
    S_theta]] of the pair record and its s_X the scale that the pair family's
    own certificate reads.  A source's frame operator out of range raises
    NumericalRangeError.

    Why delta(s) = (N + m) m eps s (``gram_rounding_bound``) bounds the distance
    of G~ from fl(M~^H W M~), M~ = fl(X~ L) the computed rows, to first order in
    eps = 2u (Higham, ch. 3), for N >= 4k.  With ell = ||L||_F^2 and
    ||X~^H W X~|| <= s_X, the distance is at most the sum of
    - ||L^H (G - X~^H W X~) L|| <= ||L||_2^2 delta_X(s_X) <= (N + k) k eps ell s_X,
      by the same bound on X's own Gram (a pair's cross block C adds at most
      N eps sqrt(k1 s1 k2 s2) to its diagonal blocks' bounds, inside the pair's);
    - the rounding of L^H G L: at most 2k u ||L||_F^2 ||G||_F <= k^1.5 eps ell s_X;
    - the rounding of the rows, |M~ - X~ L| <= gamma_(k+1) |X~| |L|, which moves
      M~^H W M~ by at most (k + 1) k^0.5 eps ell s_X;
    - the rounding of fl(M~^H W M~), at most (N + 1) u ell s_X, and that of the
      eigensolver on G~, of order m u ||G~||.
    Their sum stays below 2 (N + m) max(k, m) eps ell s_X = delta(s).  Each
    nesting level multiplies the scale by c ||L||_F^2 again, so a composed
    source's own scale feeds the next.
    """
    gram, scale = _gram(source), _scale(source)
    k, m = operator.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scale *= 2.0 * max(1.0, k / m) * float(np.vdot(operator, operator).real)
        return _congruence(gram, operator), scale


def _congruence(gram: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """L^H G L for L = ``operator``, exactly Hermitian."""
    return hermitize(operator.conj().T @ (gram @ operator))


def _eigenvalues(fam: GFrameFamily) -> np.ndarray:
    """Ascending eigenvalues of the frame operator; read-only, once per family."""
    op = frame_operator(fam)
    return memoized(fam._memo, "eigenvalues", lambda: _freeze(np.linalg.eigvalsh(op)))


def _scale(fam: GFrameFamily) -> float:
    """The rounding scale of the family's Gram: its largest eigenvalue, or the
    larger scale memoized beside a Gram derived from d x d data."""
    largest = float(_eigenvalues(fam)[-1])
    return max(largest, fam._memo.get("scale", largest))


def _pair_scale(lam: GFrameFamily, theta: GFrameFamily) -> float:
    """The rounding scale a pair family's Gram takes beyond its largest
    eigenvalue: the sum of both families' scales when either family's Gram was
    derived from d x d data, else none (0)."""
    if max(lam._memo.get("scale", 0.0), theta._memo.get("scale", 0.0)) <= 0.0:
        return 0.0
    return _scale(lam) + _scale(theta)


def _shape(fam: GFrameFamily) -> tuple[int, int]:
    """The N x d shape of the analysis matrix, read off the dims: nothing is stacked."""
    return fam.codomain_dim, fam.domain_dim


def _weighted_product(left: GFrameFamily, right: GFrameFamily) -> np.ndarray:
    """left.rows^H diag(w) right.rows for two families of one row layout, w the
    row weights, read-only; exactly Hermitian when ``right`` is ``left``.

    Streamed over ``row_chunks``, each read by ``chunk_rows``, so no N-row
    temporary is made and no column parts are stacked beyond a chunk.
    The chunks' products are summed in real arithmetic over their
    interleaved float views, and the 2p x 2q sum is folded into complex
    entries once.  Rounding stays within the bound that the Gram rank
    certificate allows for any summation order.
    """
    weights = _row_weights(left.space, left.block_dims)
    total = 0.0
    for rows in row_chunks(len(weights), max(left.domain_dim, right.domain_dim)):
        chunk = chunk_rows(left, rows)
        if right is left:  # a symmetric rank-k update of sqrt(w) * rows
            part = (chunk * np.sqrt(weights[rows, np.newaxis])).view(float)
            part = part.T @ part
        else:
            weighted = chunk_rows(right, rows) * weights[rows, np.newaxis]
            part = chunk.view(float).T @ weighted.view(float)
        total += part  # a new array on the first chunk, in place after
    p, q = total.shape[0] // 2, total.shape[1] // 2
    return _freeze(total.reshape(p, 2, q, 2).transpose(0, 2, 1, 3).reshape(p, q, 4) @ _FOLD)


def pair_memo(lam: GFrameFamily, theta: GFrameFamily) -> dict:
    """The pair's record, kept in ``lam``'s memo while ``theta`` lives: first the cross
    operator C = B^H A; the pair family takes it as its memo."""
    return lam._pair_memo(theta, _cross)


def _cross(lam: GFrameFamily, theta: GFrameFamily) -> dict:
    """The record's first entry, C = B^H A: a family's own Gram when paired with itself."""
    return {"cross": _gram(lam) if lam is theta else _weighted_product(theta, lam)}


def _pair_gram(lam: GFrameFamily, theta: GFrameFamily, cross: np.ndarray) -> np.ndarray:
    """The pair family's Gram G = [[S_lam, C^H], [C, S_theta]] before any range
    check; exactly Hermitian, as its diagonal blocks are: [A|B]^H [A|B] is never formed."""
    d = lam.domain_dim
    gram = np.empty((d + theta.domain_dim,) * 2, dtype=complex)
    gram[:d, :d], gram[d:, d:] = _gram(lam), _gram(theta)
    gram[d:, :d], gram[:d, d:] = cross, cross.conj().T
    return _freeze(gram)


def gamma_family(lam: GFrameFamily, theta: GFrameFamily) -> GFrameFamily:
    """Pair family on the direct-sum domain: blocks are [lam_i | theta_i].

    Domain coordinates are ordered first-family-first, matching the
    left-to-right reading of (h, k) -> lam_i h + theta_i k.  Its memo is the
    pair's record (:func:`pair_memo`), which this module alone lays out: the
    cross operator C, and the Gram [[S_lam, C^H], [C, S_theta]] that is the
    pair family's frame operator ([A|B]^H [A|B] is never formed), with its
    rounding scale when either diagonal block was derived from d x d data
    (:func:`_pair_scale`).  It holds both families' rows as column parts, not
    the families, and stacks them only when its ``rows`` are asked for.
    """
    require_same_khat(lam, theta)
    record = pair_memo(lam, theta)
    memoized(record, "gram", _pair_gram, lam, theta, record["cross"])
    memoized(record, "scale", _pair_scale, lam, theta)
    return GFrameFamily.side_by_side(lam, theta, record)


def compose_sum(lam: GFrameFamily, theta: GFrameFamily, l1, l2) -> GFrameFamily:
    """Family with blocks lam_i @ l1 + theta_i @ l2: the pair family [lam_i | theta_i]
    composed with [l1; l2].

    So a sum is one more ``right_compose``: ShapeError unless lam and theta
    share a space and block dims, l1 and l2 are matrices of one width (read as
    an ``OperatorPair``), and l1 has lam's domain dim of rows (else [l1; l2]
    would be split at another column of the pair family), its bound
    is the pair family's (the ``hypot`` of theirs) times ||[l1; l2]||_F, and
    a tall sum's frame operator is derived from the pair Gram of the pair
    record, which is formed, when it is not yet, as the sum is built.
    """
    pair = OperatorPair(l1, l2)
    if len(pair.l1) != lam.domain_dim:
        raise ShapeError(f"L1 has {len(pair.l1)} rows, expected domain_dim {lam.domain_dim}")
    pair.width()
    return right_compose(gamma_family(lam, theta), np.vstack([pair.l1, pair.l2]))


def frame_bounds(fam: GFrameFamily) -> FrameReport:
    """Optimal frame bounds and the frame verdict of :class:`FrameReport`.

    Built on each call: the bounds and the frame verdict are the memoized
    :func:`optimal_bounds`, and ``_linalg.REL_EPS`` decides only ``is_tight``
    and ``is_parseval``.
    """
    lower, upper, is_frame = optimal_bounds(fam)
    eps = _linalg.REL_EPS
    is_tight = is_frame and (upper - lower) <= eps * upper
    is_parseval = is_tight and abs(upper - 1.0) <= eps and abs(lower - 1.0) <= eps
    return FrameReport(
        frame_operator=frame_operator(fam),
        lower_bound=lower,
        upper_bound=upper,
        is_frame=is_frame,
        is_tight=is_tight,
        is_parseval=is_parseval,
    )


def optimal_bounds(fam: GFrameFamily) -> tuple[float, float, bool]:
    """(lower bound, upper bound, is a frame) of :class:`FrameReport`, which
    read no tolerance; once per family object."""
    return memoized(fam._memo, "bounds", _optimal_bounds, fam)


def _optimal_bounds(fam: GFrameFamily) -> tuple[float, float, bool]:
    evals = _eigenvalues(fam)
    lower, upper = float(evals[0]), float(evals[-1])
    # the certificate's delta reads the Gram's rounding scale, not only its largest eigenvalue
    is_frame = gram_certifies_full_column_rank(lower, _scale(fam), _shape(fam))
    if not is_frame:
        svals = analysis_singular_values(fam)
        is_frame = rank_from_singular_values(svals, _shape(fam)) == fam.domain_dim
        lower = float(svals[-1]) ** 2 if fam.codomain_dim >= fam.domain_dim else 0.0
    return lower, upper, is_frame


def require_frame(fam: GFrameFamily, which: str) -> tuple[float, float]:
    """The optimal (lower, upper) bounds of ``fam``; PreconditionError "``which``
    is not a frame" if it is none."""
    lower, upper, is_frame = optimal_bounds(fam)
    if not is_frame:
        raise PreconditionError(f"{which} is not a frame")
    return lower, upper


def analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    """Singular values of the analysis matrix A in descending order (also those
    of the synthesis matrix); read-only, and computed once per family object.

    A is never formed beyond one row chunk (``row_chunks``), each read from the
    family's column parts, so a pair family [A|B] is never stacked.  An A of
    one chunk is decomposed directly.  A taller A is reduced to its R factor by
    a tall-skinny QR streamed over the chunks (Demmel, Grigori, Hoemmen &
    Langou, 2012): R is the R factor of [R; sqrt(w) * chunk], chunk after
    chunk, and sigma(A) = sigma(R) (Golub & Van Loan, sec. 5.4).
    """
    return memoized(fam._memo, "singular_values", _analysis_singular_values, fam)


def _analysis_singular_values(fam: GFrameFamily) -> np.ndarray:
    roots = np.sqrt(_row_weights(fam.space, fam.block_dims))[:, np.newaxis]
    factor = None
    for rows in row_chunks(fam.codomain_dim, fam.domain_dim):
        chunk = chunk_rows(fam, rows) * roots[rows]
        # the first chunk is A itself when it is the only one
        factor = chunk if factor is None else np.linalg.qr(np.vstack([factor, chunk]), mode="r")
    return _freeze(singular_values(factor))


def analysis_rank(fam: GFrameFamily) -> int:
    """Numerical rank of A: the domain dim for a frame, else counted from σ(A)."""
    if optimal_bounds(fam)[2]:
        return fam.domain_dim
    return rank_from_singular_values(analysis_singular_values(fam), _shape(fam))


def synthesis_gain(fam: GFrameFamily) -> tuple[float, bool]:
    """(σ_min of the synthesis matrix A^H over the whole target, whether A is
    onto), from the memoized σ(A) = σ(A^H): onto means rank N.  When N > d the
    shape decides, gain 0 and not onto, and nothing is decomposed."""
    if fam.codomain_dim > fam.domain_dim:
        return 0.0, False
    svals = analysis_singular_values(fam)
    return float(svals[-1]), full_row_rank(svals, _shape(fam))


def _frame_operator_power(fam: GFrameFamily, power: float) -> GFrameFamily:
    """Family with blocks block_i @ S^power for a negative ``power``."""
    lower, _, is_frame = optimal_bounds(fam)
    if not is_frame:
        raise SingularOperatorError(f"family is not a frame (min eigenvalue {lower:.3e})")
    return right_compose(fam, hermitian_power(frame_operator(fam), power))


def canonical_dual(fam: GFrameFamily) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1}; the unique dual built from the frame operator.

    Raises SingularOperatorError exactly when the family is not a frame, and
    NumericalRangeError for a frame whose frame operator cannot be inverted
    in floating point.
    """
    return _frame_operator_power(fam, -1.0)


def parseval_normalize(fam: GFrameFamily) -> GFrameFamily:
    """Family with blocks block_i @ S^{-1/2}; always Parseval for a frame input.

    Raises as :func:`canonical_dual` does.
    """
    return _frame_operator_power(fam, -0.5)


def cross_operator(left: GFrameFamily, right: GFrameFamily) -> np.ndarray:
    """Mixed Gram-type operator: sum of w_i * left_i^H right_i.

    Maps the domain of ``right`` into the domain of ``left``; swapping the
    arguments yields the conjugate transpose.  With both arguments equal it
    reduces to :func:`frame_operator`.  Read-only, once per :func:`pair_memo`.
    """
    require_same_khat(left, right)
    cross = _gram(left) if left is right else pair_memo(right, left)["cross"]
    return require_finite(cross, "cross operator")


def is_dual_pair(theta: GFrameFamily, lam: GFrameFamily) -> bool:
    """True when ``theta`` is a dual of ``lam``; the verdict of :func:`dual_check`."""
    return dual_check("dual-pair", theta, lam)[1]


def dual_check(name: str, theta: GFrameFamily, lam: GFrameFamily) -> Check:
    """Whether ``theta`` is a dual of ``lam``: both are frames and their mixed
    pairing reproduces the identity, with the distance of the pairing from the
    identity (Frobenius).  One pairing decides: the other order is its
    conjugate transpose, at the same distance from the identity, so the
    verdict is symmetric."""
    require_same_domain(theta, lam)
    frames = optimal_bounds(theta)[2] and optimal_bounds(lam)[2]
    pairing = cross_operator(theta, lam)
    eye = np.eye(lam.domain_dim)
    passed = frames and matrices_close(pairing, eye)
    return name, passed, {"identity_defect": float(np.linalg.norm(pairing - eye))}


def frame_check(fam: GFrameFamily) -> Check:
    """Whether ``fam`` is a frame, with its bounds and flags."""
    rep = frame_bounds(fam)
    return "is-frame", rep.is_frame, rep.numbers()


def parseval_check(fam: GFrameFamily) -> Check:
    """Whether ``fam`` is Parseval, with its bounds and flags."""
    rep = frame_bounds(fam)
    return "is-parseval", rep.is_parseval, rep.numbers()
