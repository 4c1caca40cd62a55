"""Finite-measure-space realization of g-frame families and their coordinate space.

Everything downstream works over a finite set of weighted atoms: a family of
operator blocks per atom plays the role of the g-frame, and the weighted
direct sum of the block codomains plays the role of the analysis target space.
The square-root-weight embedding defined here turns that weighted geometry
into plain Euclidean geometry, and every rank/orthogonality computation in the
package happens in those embedded coordinates.

A family stores its blocks stacked in atom order as one N x d row matrix, and
a vector of the direct sum its blocks as one length-N array in the same row
layout, so every operation is a single matrix or vector product rather than a
loop over atoms.

Inner product convention: linear in the FIRST argument, conjugate-linear in
the second. All adjoints are conjugate transposes under this convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ._linalg import matrices_close, require_finite
from .errors import FamilyValidationError, NumericalRangeError, ShapeError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_block(values) -> np.ndarray:
    """Coerce to a 2-D complex matrix (no copy if it is one); 0-D or 1-D input is a single row."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim > 2:
        raise ShapeError(f"operator block must be 2-D, got ndim={arr.ndim}")
    return arr if arr.ndim == 2 else arr.reshape(1, -1)


def memoized(memo: dict, key, compute, *args):
    """``memo[key]``, set to ``compute(*args)`` on the first call.  An exception from
    ``compute`` is raised and nothing is stored, so every later call raises it again."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(*args)
    return value


def _split_rows(matrix: np.ndarray, block_dims) -> list[np.ndarray]:
    """Views of ``matrix`` (or of a vector) cut into consecutive row groups of the given sizes."""
    return np.split(matrix, np.cumsum(block_dims)[:-1])


def _require_layout(space: "MeasureSpace", block_dims) -> None:
    """ShapeError unless there is one block dim per atom."""
    if len(block_dims) != space.atom_count:  # np.repeat would broadcast a single block dim
        raise ShapeError(f"{len(block_dims)} block dims for {space.atom_count} atoms")


def _row_weights(space: "MeasureSpace", block_dims) -> np.ndarray:
    """Weight of the atom owning each stacked row; ShapeError unless one block dim per atom."""
    _require_layout(space, block_dims)
    return np.repeat(space.weights, block_dims)


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Standard inner product, linear in ``x`` and conjugate-linear in ``y``."""
    return complex(np.vdot(y, x))


@dataclass(frozen=True, eq=False)
class TolerancePolicy:
    """Numeric tolerances used by every comparison in the package.

    ``rel_eps`` controls relative equality of scalars and matrices;
    ``rank_eps_factor`` scales the one rank cutoff of the package: singular
    values at or below factor * max(rows, cols) * sigma_max * machine_eps
    count as zero.  Every rank-type verdict (frame, Riesz-type, disjointness,
    kernel) counts singular values against it; eigenvalues of a frame
    operator meet it only as the range guard before an inversion.  Both must
    be finite.
    """

    rel_eps: float = 1e-9
    rank_eps_factor: float = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.rel_eps) and self.rel_eps > 0):
            raise ValueError(f"rel_eps must be positive and finite, got {self.rel_eps}")
        if not (np.isfinite(self.rank_eps_factor) and self.rank_eps_factor >= 1):
            raise ValueError(
                f"rank_eps_factor must be finite and >= 1, got {self.rank_eps_factor}"
            )


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite set of atoms with strictly positive weights; construction raises
    FamilyValidationError naming every atom whose weight is not finite and > 0."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _freeze(np.array(self.weights, dtype=float).reshape(-1))
        found = [] if arr.size else ["atom_count must be >= 1"]
        bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0)))
        found += [f"weights[{i}] = {arr[i]} not > 0" for i in bad]
        if found:
            raise FamilyValidationError(found)
        object.__setattr__(self, "weights", arr)

    @property
    def atom_count(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, MeasureSpace) and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False, init=False)
class GFrameFamily:
    """A measure space plus one complex operator block per atom.

    ``blocks[i]`` maps the shared ``domain_dim``-dimensional domain into the
    atom's codomain of dimension ``block_dims[i]``, its row count.

    The family stores ``rows``: the raw blocks stacked in atom order, one
    read-only C-contiguous N x ``domain_dim`` matrix (unweighted, so the
    blocks stay bit-exact), and ``blocks`` are read-only views into it;
    ``domain_dim`` (an ``int``) and ``codomain_dim`` are its column and row counts.
    Well-formed 2-D blocks as wide as the constructor's ``domain_dim`` are
    stacked in one call; any other input takes the block-by-block route,
    which also reads a 0-D or 1-D block as one row.  The
    structural invariants are checked once, here, so every family is valid:
    construction raises FamilyValidationError naming the violations (the
    blocks' shape faults, or else every other fault of the stacked rows).

    Since a family never changes, its spectral data (Gram, frame operator,
    eigenvalues, one frame report per tolerance, singular values of the
    analysis matrix, one record per live partner family) is computed on first
    use and kept in a private memo.  It holds only d x d-sized data.
    """

    space: MeasureSpace
    domain_dim: int
    block_dims: tuple[int, ...]
    rows: np.ndarray = field(repr=False)

    def __init__(self, space, domain_dim, blocks):
        blocks = list(blocks)
        try:  # one call stacks well-formed 2-D blocks
            rows = np.concatenate(blocks, dtype=complex)
        except (ValueError, TypeError):
            rows = None
        stacked = rows is not None and rows.ndim == 2 and rows.shape[1] == domain_dim
        if stacked and len(blocks) == space.atom_count:
            self._set(space, tuple(len(b) for b in blocks), rows)
        else:
            self._stack_blockwise(space, domain_dim, blocks)

    def _stack_blockwise(self, space, domain_dim, blocks) -> None:
        """Coerce the blocks one by one, naming every shape violation, then ``_set``."""
        blocks = [_as_block(b) for b in blocks]
        shapes = [b.shape for b in blocks]
        found = []
        if len(blocks) != space.atom_count:
            found.append(f"blocks.length = {len(blocks)} != atom_count = {space.atom_count}")
        found += [
            f"block {i} has {cols} columns, expected domain_dim = {domain_dim}"
            for i, (_, cols) in enumerate(shapes)
            if cols != domain_dim
        ]
        if found:
            raise FamilyValidationError(found)
        self._set(space, tuple(dims for dims, _ in shapes), np.concatenate(blocks))

    @classmethod
    def from_rows(cls, space: MeasureSpace, rows: np.ndarray, block_dims) -> "GFrameFamily":
        """Family whose blocks, stacked in atom order, are ``rows``.

        ``rows`` is adopted without a copy when it is already a C-contiguous
        complex matrix, and becomes read-only.
        """
        rows = np.ascontiguousarray(rows, dtype=complex)
        dims = tuple(map(int, block_dims))
        if rows.ndim != 2 or rows.shape[0] != sum(dims):
            raise ShapeError(
                f"matrix has {rows.shape[0]} rows, expected total block dim {sum(dims)}"
            )
        _require_layout(space, dims)
        family = cls.__new__(cls)
        family._set(space, dims, rows)
        return family

    @classmethod
    def _from_valid_rows(cls, space, rows: np.ndarray, block_dims, memo: dict) -> "GFrameFamily":
        """Family adopting complex ``rows`` that already meet every invariant (stacked
        from valid families' rows), with ``memo`` as its memo: nothing is scanned again."""
        family = cls.__new__(cls)
        family._adopt(space, block_dims, rows, memo)
        return family

    def _set(self, space, block_dims, rows) -> None:
        """Adopt ``rows`` (read-only from now on) once the invariants hold."""
        found = [] if rows.shape[1] >= 1 else [f"domain_dim = {rows.shape[1]} not >= 1"]
        if min(block_dims) < 1:
            found += [f"block_dims[{i}] = {d} not >= 1" for i, d in enumerate(block_dims) if d < 1]
        if not found and not np.isfinite(rows.view(float)).all():
            bad_rows = ~np.isfinite(rows.view(float)).all(axis=1)
            atoms = np.unique(np.repeat(np.arange(len(block_dims)), block_dims)[bad_rows])
            found += [f"block {i} contains non-finite entries" for i in atoms]
        if found:
            raise FamilyValidationError(found)
        self._adopt(space, block_dims, rows, {})

    def _adopt(self, space, block_dims, rows, memo: dict) -> None:
        for name, value in zip(
            ("space", "domain_dim", "block_dims", "rows", "_blocks", "_memo"),
            (space, rows.shape[1], block_dims, _freeze(rows), None, memo),
        ):
            object.__setattr__(self, name, value)

    def _pair_memo(self, partner: "GFrameFamily", start) -> dict:
        """The dict ``start(self, partner)``, made once per live ``partner``: keyed by ``id``
        (a family is unhashable), an entry of a dead partner is never returned, then dropped."""
        key = ("pair", id(partner))
        entry = self._memo.get(key)
        if entry is None or entry[0]() is not partner:
            owner = weakref.ref(self)

            def drop(ref):
                fam = owner()
                if fam is not None and fam._memo.get(key, (None,))[0] is ref:
                    del fam._memo[key]

            entry = self._memo[key] = (weakref.ref(partner, drop), start(self, partner))
        return entry[1]

    def __reduce__(self):
        # pickled without the memo, whose pair entries hold weak references
        return GFrameFamily.from_rows, (self.space, self.rows, self.block_dims)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(_split_rows(self.rows, self.block_dims)))
        return self._blocks

    @property
    def atom_count(self) -> int:
        return self.space.atom_count

    @property
    def codomain_dim(self) -> int:
        """Total dimension N of the weighted direct-sum target space: the row count."""
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFrameFamily)
            and self.space == other.space
            and self.block_dims == other.block_dims
            and np.array_equal(self.rows, other.rows)
        )


@dataclass(frozen=True, eq=False, init=False)
class KHatVector:
    """An element of the weighted direct sum: one complex vector per atom.

    The vectors are stored stacked in atom order as one read-only 1-D array
    ``data``, the row layout of a family with the same ``block_dims``;
    ``blocks`` are read-only views into it.
    """

    data: np.ndarray
    block_dims: tuple[int, ...]

    def __init__(self, blocks):
        blocks = [np.asarray(b, dtype=complex).reshape(-1) for b in blocks]
        data = np.concatenate(blocks) if blocks else np.zeros(0, dtype=complex)
        self._set(data, tuple(b.size for b in blocks))

    @classmethod
    def from_array(cls, data: np.ndarray, block_dims) -> "KHatVector":
        """Vector whose blocks, stacked in atom order, are the 1-D array
        ``data``; a complex array is adopted without a copy and becomes read-only."""
        data = np.asarray(data, dtype=complex)
        dims = tuple(map(int, block_dims))
        if data.ndim != 1 or data.size != sum(dims):
            raise ShapeError(f"vector of shape {data.shape} != total block dim {sum(dims)}")
        vector = cls.__new__(cls)
        vector._set(data, dims)
        return vector

    @classmethod
    def zeros(cls, block_dims) -> "KHatVector":
        return cls.from_array(np.zeros(sum(map(int, block_dims)), dtype=complex), block_dims)

    def _set(self, data, block_dims) -> None:
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "_blocks", None)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(_split_rows(self.data, self.block_dims)))
        return self._blocks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KHatVector)
            and self.block_dims == other.block_dims
            and np.array_equal(self.data, other.data)
        )


def require_same_khat(first: GFrameFamily, second: GFrameFamily) -> None:
    """Both families must target the same weighted direct-sum space."""
    if first.space != second.space:
        raise ShapeError("families live over different measure spaces")
    if first.block_dims != second.block_dims:
        raise ShapeError(
            f"families have different block dimensions: {first.block_dims} vs {second.block_dims}"
        )


def require_same_domain(first: GFrameFamily, second: GFrameFamily) -> None:
    """Both families must target the same space and act on domains of one dimension."""
    require_same_khat(first, second)
    if first.domain_dim != second.domain_dim:
        raise ShapeError(f"domain dims differ: {first.domain_dim} vs {second.domain_dim}")


def khat_inner(f: KHatVector, g: KHatVector, space: MeasureSpace) -> complex:
    """Weighted inner product: sum over atoms of weight * <F_i, G_i>."""
    if f.block_dims != g.block_dims:
        raise ShapeError(f"block dims differ: {f.block_dims} vs {g.block_dims}")
    return complex(np.vdot(g.data, _row_weights(space, f.block_dims) * f.data))


def khat_norm(f: KHatVector, space: MeasureSpace) -> float:
    return float(np.sqrt(max(khat_inner(f, f, space).real, 0.0)))


def embed(f: KHatVector, space: MeasureSpace) -> np.ndarray:
    """Stack sqrt(weight) * F_i in atom order; isometric onto standard coordinates."""
    return f.data * np.sqrt(_row_weights(space, f.block_dims))


def unembed(vector: np.ndarray, space: MeasureSpace, block_dims) -> KHatVector:
    """Inverse of :func:`embed`: undo the square-root weighting of each row."""
    embedded = KHatVector.from_array(np.ravel(vector), block_dims)
    roots = np.sqrt(_row_weights(space, embedded.block_dims))
    return KHatVector.from_array(embedded.data / roots, embedded.block_dims)


def analysis_matrix(fam: GFrameFamily) -> np.ndarray:
    """Matrix of the analysis operator in embedded coordinates (N x d).

    Rows are the blocks sqrt(weight_i) * block_i stacked in atom order, so that
    for any h the product equals the embedding of the blockwise application.
    The synthesis operator's matrix is the conjugate transpose.  It is formed
    on each call, never stored beside the family's rows, and only where an
    N-row matrix is needed (an SVD, synthesis): the frame and cross operators
    are streamed from the rows without it.
    """
    return fam.rows * np.sqrt(_row_weights(fam.space, fam.block_dims))[:, np.newaxis]


def family_from_analysis_matrix(matrix: np.ndarray, space: MeasureSpace, block_dims) -> GFrameFamily:
    """Rebuild the family whose embedded analysis matrix is ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim == 2 and matrix.shape[0] == sum(block_dims):
        matrix = matrix / np.sqrt(_row_weights(space, block_dims))[:, np.newaxis]
    # any other shape is rejected by from_rows
    return GFrameFamily.from_rows(space, matrix, block_dims)


def apply_analysis(fam: GFrameFamily, h: np.ndarray) -> KHatVector:
    """Blockwise application: atom i carries block_i @ h."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.size != fam.domain_dim:
        raise ShapeError(f"vector length {h.size} != domain_dim {fam.domain_dim}")
    return KHatVector.from_array(fam.rows @ h, fam.block_dims)


def apply_synthesis(fam: GFrameFamily, phi: KHatVector) -> np.ndarray:
    """Adjoint of the analysis operator: sum of weight_i * block_i^H @ phi_i."""
    if phi.block_dims != fam.block_dims:
        raise ShapeError(
            f"vector block dims {phi.block_dims} != family block dims {fam.block_dims}"
        )
    return fam.rows.conj().T @ (phi.data * _row_weights(fam.space, fam.block_dims))


def right_compose(fam: GFrameFamily, operator: np.ndarray) -> GFrameFamily:
    """Family with blocks block_i @ operator; the domain becomes operator's."""
    operator = np.asarray(operator, dtype=complex)
    if operator.ndim != 2 or operator.shape[0] != fam.domain_dim:
        raise ShapeError(
            f"operator shape {operator.shape} does not act on domain of dim {fam.domain_dim}"
        )
    return GFrameFamily.from_rows(fam.space, fam.rows @ operator, fam.block_dims)


def compose_sum(lam: GFrameFamily, theta: GFrameFamily, l1, l2) -> GFrameFamily:
    """Family with blocks lam_i @ l1 + theta_i @ l2, over ``lam``'s space and block dims."""
    rows = lam.rows @ l1
    rows += theta.rows @ l2
    return GFrameFamily.from_rows(lam.space, rows, lam.block_dims)


def operator_matrix(values, name: str) -> np.ndarray:
    """``values`` as a read-only complex copy under the operator rule: ShapeError
    unless a non-empty 2-D matrix, NumericalRangeError unless finite, each naming it."""
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D matrix, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericalRangeError(f"{name} has non-finite entries")
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Operators L1, L2 for the families of a pair, each read by ``operator_matrix``.
    A construction takes them through the shape rule it needs, as
    ``square_operators`` or as ``adjoint_operators``."""

    l1: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        for name in ("l1", "l2"):
            object.__setattr__(self, name, operator_matrix(getattr(self, name), name.upper()))

    def square_operators(self, dim1: int, dim2: int) -> tuple[np.ndarray, np.ndarray]:
        """(L1, L2), for blocks lam_i @ L1 + theta_i @ L2: the square rule, ShapeError
        unless L1 is ``dim1`` x ``dim1`` and L2 is ``dim2`` x ``dim2``."""
        for name, op, dim in (("L1", self.l1, dim1), ("L2", self.l2, dim2)):
            if op.shape != (dim, dim):
                raise ShapeError(f"{name} must be {dim} x {dim}, got {op.shape}")
        return self.l1, self.l2

    def adjoint_operators(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """(L1^H, L2^H), for blocks lam_i @ L1^H + theta_i @ L2^H: the adjoint rule,
        ShapeError unless both are r x ``dim``, r the row count of L1."""
        shape = (self.l1.shape[0], dim)
        for name, op in (("L1", self.l1), ("L2", self.l2)):
            if op.shape != shape:
                raise ShapeError(f"{name} must be {shape[0]} x {dim}, got {op.shape}")
        return self.l1.conj().T, self.l2.conj().T

    def identity_multiple(self, tol: TolerancePolicy) -> tuple[float, bool]:
        """(c, whether L1^H L1 + L2^H L2 = c I with c > 0): the strong sum's hypothesis,
        c the trace over the dim.  NumericalRangeError when the sum overflows."""
        l1, l2 = self.l1, self.l2
        gram = require_finite(l1.conj().T @ l1 + l2.conj().T @ l2, "L1^H L1 + L2^H L2")
        dim = l1.shape[1]
        scale = float(np.trace(gram).real) / dim
        return scale, scale > 0 and matrices_close(gram, scale * np.eye(dim), tol.rel_eps)
