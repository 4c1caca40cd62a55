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
loop over atoms.  A family built from others holds their parts instead (a
pair family) or its source and the operator applied (a composition taller
than one row chunk), and the streamed products read its rows a chunk at a
time through :func:`chunk_rows`.

Inner product convention: linear in the FIRST argument, conjugate-linear in
the second. All adjoints are conjugate transposes under this convention.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

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


def _shown(value) -> str:
    """``value`` as a message shows it: a string quoted, a number as it prints."""
    return repr(value) if isinstance(value, str) else str(value)


def read_dim(value, name: str, error: type[Exception] = ShapeError) -> int:
    """``value`` as an ``int`` under the package's one rule for dims: Python and numpy
    integers and floats of integral value are read as ``int``; anything else (a
    string, a bool, a non-integral number) raises ``error`` naming ``name`` and ``value``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):  # numpy bools are not Real
        if isinstance(value, numbers.Integral) or (
            math.isfinite(value) and float(value).is_integer()
        ):
            return int(value)
    raise error(f"{name}: {_shown(value)} is not an integer")


def read_dims(values, name: str, error: type[Exception] = ShapeError) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``, each entry read by :func:`read_dim`."""
    dims = tuple(values)
    if set(map(type, dims)) <= {int}:  # the common case, without a call per entry
        return dims
    return tuple(read_dim(value, name, error) for value in dims)


def memoized(memo: dict, key, compute, *args):
    """``memo[key]``, set to ``compute(*args)`` on the first call.  An exception from
    ``compute`` is raised and nothing is stored, so every later call raises it again."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(*args)
    return value


# Row chunks of the streamed products hold about this many bytes of complex rows.
CHUNK_BYTES = 1 << 18


def _chunk_step(width: int) -> int:
    """Rows per chunk of a ``width``-column complex matrix: about CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (16 * width))


def row_chunks(count: int, width: int) -> list[slice]:
    """Consecutive slices covering ``count`` rows of a ``width``-column complex
    matrix, each about CHUNK_BYTES of it and at least one row."""
    step = _chunk_step(width)
    return [slice(start, start + step) for start in range(0, count, step)]


def chunk_rows(fam: "GFrameFamily", rows: slice) -> np.ndarray:
    """Rows ``rows`` of ``fam.rows``, read from what the family holds: a view of
    its stacked rows once made, else its column parts side by side, each a
    stored row array or a product computed for those rows alone
    (:class:`_Product`).  This is the one chunk source of the streamed
    products: it needs no stored rows, and makes none."""
    return _part_rows(_held_parts(fam), rows)


def _part_rows(parts: tuple, rows: slice) -> np.ndarray:
    return parts[0][rows] if len(parts) == 1 else np.hstack([part[rows] for part in parts])


def _held_parts(fam: "GFrameFamily") -> tuple:
    """What ``fam``'s rows are read from, and what a pair family built from it
    holds: ``fam``'s stacked rows once made, else its own parts, never ``fam`` itself."""
    return fam._parts if fam._rows is None else (fam._rows,)


class _Product:
    """A column part held as ``source.rows @ operator`` and computed a row chunk at a time.

    ``shape`` is the part's N x m shape.  Every row comes out with the bits of
    the N-row product: a one-row chunk of a taller part would take numpy's
    vector path instead of the matrix product every other row takes, so it is
    computed as one of two equal rows.
    """

    __slots__ = ("source", "operator", "shape")

    def __init__(self, source: "GFrameFamily", operator: np.ndarray):
        self.source, self.operator = source, operator
        self.shape = (source.codomain_dim, operator.shape[1])

    def __getitem__(self, rows: slice) -> np.ndarray:
        chunk = chunk_rows(self.source, rows)
        if len(chunk) == 1 < self.shape[0]:
            return (np.vstack([chunk, chunk]) @ self.operator)[:1]
        return chunk @ self.operator


def composition(fam: "GFrameFamily") -> tuple | None:
    """(source family, operator) of a composition taller than one row chunk, whose
    rows are ``source.rows @ operator``; None for any other family (stored rows,
    or parts side by side).  They stay the same once the family's rows are stacked."""
    (part, *others) = fam._parts
    return (part.source, part.operator) if isinstance(part, _Product) and not others else None


_NO_ROWS = np.empty(0, dtype=int)


def _squares(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """(||rows||_F^2, the indices of the rows with a non-finite entry) from one pass
    over the entries' real view.  The sum is NaN or inf when an entry is not
    finite, and inf also when finite entries' squares pass the float range: only
    then is each entry tested."""
    flat = rows.view(float).reshape(-1)
    squares = float(np.vdot(flat, flat))
    if squares < math.inf:
        return squares, _NO_ROWS
    return squares, np.flatnonzero(~np.isfinite(rows.view(float)).all(axis=1))


def _nonfinite_blocks(block_dims, bad_rows: np.ndarray) -> list[str]:
    """The violations of the blocks owning the rows ``bad_rows`` (indices); none for none."""
    if not bad_rows.size:
        return []
    atoms = np.unique(np.repeat(np.arange(len(block_dims)), block_dims)[bad_rows])
    return [f"block {i} contains non-finite entries" for i in atoms]


# A bound below this proves a product's entries finite: the factor 16 covers the
# rounding of the product and of the bound.
_PROVEN_FINITE = float(np.finfo(float).max) / 16


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

    ``rel_eps`` controls relative equality of scalars and matrices.  Ranks
    take no tolerance: every rank-type verdict (frame, Riesz-type,
    disjointness, kernel) counts singular values above the one fixed cutoff
    ``_linalg.rank_cutoff``, so it is a function of the matrix alone.
    """

    rel_eps: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.rel_eps) and self.rel_eps > 0):
            raise ValueError(f"rel_eps must be positive and finite, got {self.rel_eps}")


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

    The family's ``rows`` are the raw blocks stacked in atom order, one
    read-only C-contiguous N x ``domain_dim`` matrix (unweighted, so the
    blocks stay bit-exact), and ``blocks`` are read-only views into it;
    ``domain_dim`` (an ``int``) and ``codomain_dim`` are its column and row counts.
    A family may hold its rows as column parts instead, and stack them into
    ``rows`` only on first access (``blocks``, ``==``, pickling, documents),
    keeping that copy outside the memo.  The pair family [lam_i | theta_i]
    keeps its parents' parts side by side.  A composition taller than one row
    chunk (``right_compose``, so the duals, the Parseval normalization and,
    over a pair family, the operator sums) keeps one product part: its source
    family and the d x d operator, whose product it computes for the rows
    asked for, with the bits of the N-row product.  Only this module reads the
    parts: other modules read a row chunk at a time through
    :func:`chunk_rows`, so the streamed products never stack them, and a
    composition's source and operator through :func:`composition`, from
    which the analysis module derives its Gram in d x d algebra.
    Well-formed 2-D blocks as wide as the constructor's ``domain_dim`` are
    stacked in one call; any other input takes the block-by-block route,
    which also reads a 0-D or 1-D block as one row.  The
    structural invariants are checked once, here, so every family is valid:
    construction raises FamilyValidationError naming the violations (the
    blocks' shape faults, or else every other fault of the stacked rows).

    The pass that proves the rows finite also measures ||rows||_F, which the
    family keeps as its bound (inf when the squares of finite entries pass the
    float range).  A pair family's bound is the ``hypot`` of its two sources',
    and a composition's ||source||_F ||operator||_F, or the norm its scan
    measured.  Each bounds the family's ||rows||_F, so a composition whose
    bound stays below the float range (with a margin for rounding) is proved
    finite without a row being read.

    Since a family never changes, its spectral data (Gram, frame operator,
    eigenvalues, one frame report per tolerance, singular values of the
    analysis matrix, one record per live partner family) is computed on first
    use and kept in a private memo.  It holds only d x d-sized data, laid out
    by the analysis module; this module keeps only its pair entries.
    """

    space: MeasureSpace
    domain_dim: int
    block_dims: tuple[int, ...]

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
            f"block {i} has {cols} columns, expected domain_dim = {_shown(domain_dim)}"
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
        dims = read_dims(block_dims, "block_dims")
        if rows.ndim != 2 or rows.shape[0] != sum(dims):
            raise ShapeError(
                f"matrix has {rows.shape[0]} rows, expected total block dim {sum(dims)}"
            )
        _require_layout(space, dims)
        family = cls.__new__(cls)
        family._set(space, dims, rows)
        return family

    @classmethod
    def side_by_side(cls, first, second, memo: dict) -> "GFrameFamily":
        """Family with blocks [first_i | second_i] (``second`` shares ``first``'s space
        and block dims) and ``memo`` as its memo.  It holds both families' rows as
        column parts: nothing is scanned again, nor stacked before ``rows``, and
        its bound is the ``hypot`` of theirs."""
        family = cls.__new__(cls)
        parts = _held_parts(first) + _held_parts(second)
        bound = math.hypot(first._bound, second._bound)
        family._adopt(first.space, first.block_dims, parts, memo, bound)
        return family

    @classmethod
    def _composed(cls, source, operator: np.ndarray) -> "GFrameFamily":
        """Family whose rows are ``source.rows @ operator``, over ``source``'s space
        and block dims; ``operator`` is a finite, non-empty matrix.

        A result of one row chunk is computed and kept now, as any family is.  A
        taller one holds the source and the operator (a :class:`_Product`,
        handed out by :func:`composition`) and makes its rows a chunk at a
        time.  Its bound is ||source||_F ||operator||_F: by Cauchy-Schwarz it
        bounds ||rows||_F and so every entry, the factor 16 of
        ``_PROVEN_FINITE`` covering the rounding (Higham, ch. 3), so a bound
        below that proves every entry finite with no row read.  Else the rows
        are scanned a chunk at a time, with the violations a stored result
        would name, and the family keeps the norm the scan measured.
        """
        space, block_dims = source.space, source.block_dims
        part = _Product(source, operator)
        if part.shape[0] <= _chunk_step(part.shape[1]):
            return cls.from_rows(space, part[:], block_dims)
        bound = source._bound * math.sqrt(np.vdot(operator, operator).real)
        family = cls.__new__(cls)
        family._adopt(space, block_dims, (part,), {}, bound)
        if not bound <= _PROVEN_FINITE:  # also when the bound is NaN (inf times 0)
            family._scan_finite()
        return family

    def _scan_finite(self) -> None:
        """FamilyValidationError naming every block with a non-finite entry, the rows
        read a chunk at a time; else their norm becomes the family's bound."""
        squares, bad = 0.0, []
        for rows in row_chunks(self.codomain_dim, self.domain_dim):
            chunk_squares, chunk_bad = _squares(chunk_rows(self, rows))
            squares += chunk_squares
            bad.append(rows.start + chunk_bad)
        found = _nonfinite_blocks(self.block_dims, np.concatenate(bad))
        if found:
            raise FamilyValidationError(found)
        object.__setattr__(self, "_bound", math.sqrt(squares))

    def _set(self, space, block_dims, rows) -> None:
        """Adopt ``rows`` (read-only from now on) once the invariants hold, and their
        norm ||rows||_F as the family's bound."""
        found = [] if rows.shape[1] >= 1 else [f"domain_dim = {rows.shape[1]} not >= 1"]
        if min(block_dims) < 1:
            found += [f"block_dims[{i}] = {d} not >= 1" for i, d in enumerate(block_dims) if d < 1]
        squares, bad = (0.0, _NO_ROWS) if found else _squares(rows)
        found += _nonfinite_blocks(block_dims, bad)
        if found:
            raise FamilyValidationError(found)
        self._adopt(space, block_dims, (_freeze(rows),), {}, math.sqrt(squares), rows)

    def _adopt(self, space, block_dims, parts: tuple, memo: dict, bound, whole=None) -> None:
        """Take the parts and the bound, ``whole`` the stored rows (else stacked by ``rows``)."""
        width = whole.shape[1] if whole is not None else sum(part.shape[1] for part in parts)
        for name, value in zip(
            ("space", "domain_dim", "block_dims", "_parts", "_rows", "_blocks", "_memo", "_bound"),
            (space, width, block_dims, parts, whole, None, memo, bound),
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
    def rows(self) -> np.ndarray:
        """The blocks stacked in atom order; parts are stacked here, once, a chunk at a time."""
        if self._rows is None:
            stacked = np.empty((self.codomain_dim, self.domain_dim), dtype=complex)
            for rows in row_chunks(*stacked.shape):
                stacked[rows] = _part_rows(self._parts, rows)
            object.__setattr__(self, "_rows", _freeze(stacked))
        return self._rows

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(_split_rows(self.rows, self.block_dims)))
        return self._blocks

    @property
    def atom_count(self) -> int:
        return self.space.atom_count

    def is_zero(self) -> bool:
        """Whether every block entry is zero, read a chunk at a time."""
        return not any(
            chunk_rows(self, rows).any() for rows in row_chunks(self.codomain_dim, self.domain_dim)
        )

    @property
    def codomain_dim(self) -> int:
        """Total dimension N of the weighted direct-sum target space: the row count."""
        return self._parts[0].shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFrameFamily)
            and self.space == other.space
            and self.block_dims == other.block_dims
            and np.array_equal(self.rows, other.rows)
        )


def _vector_dims(block_dims) -> tuple[int, ...]:
    """``block_dims`` of a vector, read by :func:`read_dims`: ShapeError for a negative one
    (a vector may have an empty block, a family may not)."""
    dims = read_dims(block_dims, "block_dims")
    if min(dims, default=0) < 0:
        raise ShapeError(f"block_dims: {min(dims)} is negative")
    return dims


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
        dims = _vector_dims(block_dims)
        if data.ndim != 1 or data.size != sum(dims):
            raise ShapeError(f"vector of shape {data.shape} != total block dim {sum(dims)}")
        vector = cls.__new__(cls)
        vector._set(data, dims)
        return vector

    @classmethod
    def zeros(cls, block_dims) -> "KHatVector":
        dims = _vector_dims(block_dims)
        return cls.from_array(np.zeros(sum(dims), dtype=complex), dims)

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
    on each call and never stored beside the family's rows.  No library verdict
    needs it: the frame and cross operators and the singular values are
    streamed from the rows; it is the dense reference they are checked against.
    """
    return fam.rows * np.sqrt(_row_weights(fam.space, fam.block_dims))[:, np.newaxis]


def family_from_analysis_matrix(matrix: np.ndarray, space: MeasureSpace, block_dims) -> GFrameFamily:
    """Rebuild the family whose embedded analysis matrix is ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    dims = read_dims(block_dims, "block_dims")
    if matrix.ndim == 2 and matrix.shape[0] == sum(dims):
        matrix = matrix / np.sqrt(_row_weights(space, dims))[:, np.newaxis]
    # any other shape is rejected by from_rows
    return GFrameFamily.from_rows(space, matrix, dims)


def apply_analysis(fam: GFrameFamily, h: np.ndarray) -> KHatVector:
    """Blockwise application: atom i carries block_i @ h.  The rows are read a
    chunk at a time (:func:`chunk_rows`), so a composed or pair family is not stacked."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.size != fam.domain_dim:
        raise ShapeError(f"vector length {h.size} != domain_dim {fam.domain_dim}")
    data = np.empty(fam.codomain_dim, dtype=complex)
    for rows in row_chunks(fam.codomain_dim, fam.domain_dim):
        data[rows] = chunk_rows(fam, rows) @ h
    return KHatVector.from_array(data, fam.block_dims)


def apply_synthesis(fam: GFrameFamily, phi: KHatVector) -> np.ndarray:
    """Adjoint of the analysis operator: sum of weight_i * block_i^H @ phi_i, the
    chunks' sums added in row order; no rows are stacked, as in :func:`apply_analysis`."""
    if phi.block_dims != fam.block_dims:
        raise ShapeError(
            f"vector block dims {phi.block_dims} != family block dims {fam.block_dims}"
        )
    weighted = phi.data * _row_weights(fam.space, fam.block_dims)
    total = None
    for rows in row_chunks(fam.codomain_dim, fam.domain_dim):
        part = chunk_rows(fam, rows).conj().T @ weighted[rows]
        total = part if total is None else total + part
    return total


def right_compose(fam: GFrameFamily, operator) -> GFrameFamily:
    """Family with blocks block_i @ operator; the domain becomes operator's.

    ``operator`` is read by :func:`operator_matrix` (a read-only finite copy,
    else ShapeError or NumericalRangeError naming it) and must act on ``fam``'s
    domain.  Taller than one row chunk, the family makes its rows a chunk at a
    time, on demand, and holds ``fam`` and the operator, from which its frame
    operator is derived as operator^H S_fam operator (``analysis.frame_operator``).
    This is the one composition: the sums of a pair compose its pair family
    (``analysis.compose_sum``)."""
    operator = operator_matrix(operator, "operator")
    if operator.shape[0] != fam.domain_dim:
        raise ShapeError(
            f"operator shape {operator.shape} does not act on domain of dim {fam.domain_dim}"
        )
    return GFrameFamily._composed(fam, operator)


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

    def width(self) -> int:
        """The column count that L1 and L2 share: ShapeError naming L2 unless it has L1's."""
        width = self.l1.shape[1]
        if self.l2.shape[1] != width:
            raise ShapeError(f"L2 must have L1's {width} columns, got {self.l2.shape}")
        return width

    def identity_multiple(self, tol: TolerancePolicy) -> tuple[float, bool]:
        """(c, whether L1^H L1 + L2^H L2 = c I with c > 0): the strong sum's hypothesis,
        c the trace over the dim.  The sum over c is compared with I, so the verdict
        does not change when L1 and L2 are scaled together.  ShapeError unless L1 and
        L2 share their width, NumericalRangeError when the sum overflows."""
        l1, l2, dim = self.l1, self.l2, self.width()
        gram = require_finite(l1.conj().T @ l1 + l2.conj().T @ l2, "L1^H L1 + L2^H L2")
        scale = float(np.trace(gram).real) / dim
        return scale, scale > 0 and matrices_close(gram / scale, np.eye(dim), tol.rel_eps)
