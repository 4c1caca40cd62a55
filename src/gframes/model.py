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
loop over atoms.  A family built from others (a pair family, a composition
taller than one row chunk) holds their parts instead, and the streamed
products read its rows a chunk at a time through :func:`chunk_rows`.

Inner product convention: linear in the FIRST argument, conjugate-linear in
the second. All adjoints are conjugate transposes under this convention.
"""

from __future__ import annotations

import cmath
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
    """What ``fam``'s rows are read from, and what a family built from it holds:
    ``fam``'s stacked rows once made, else its own parts, never ``fam`` itself."""
    return fam._parts if fam._rows is None else (fam._rows,)


class _Product:
    """A column part held as the sum of ``source @ operator`` over its ``terms``,
    each source given by its column parts, and computed a row chunk at a time.

    ``shape`` is the part's N x m shape and ``bound`` bounds the 2-norm of each
    of its rows (inf when none is known).  Every row comes out with the bits of
    the N-row product: a one-row chunk would take numpy's vector path instead
    of the matrix product every other row takes, so it is computed as one of
    two equal rows.
    """

    __slots__ = ("terms", "shape", "bound")

    def __init__(self, terms: tuple, shape: tuple[int, int], bound: float):
        self.terms, self.shape, self.bound = terms, shape, bound

    def __getitem__(self, rows: slice) -> np.ndarray:
        total = None
        for parts, operator in self.terms:
            chunk = _part_rows(parts, rows)
            if len(chunk) == 1:
                product = (np.vstack([chunk, chunk]) @ operator)[:1]
            else:
                product = chunk @ operator
            if total is None:
                total = product
            else:
                total += product
        return total


def _all_finite(rows: np.ndarray) -> bool:
    """Whether every entry is finite, with no temporary beyond a chunk's size.  A
    larger matrix is summed first: the sum is finite unless an entry is not (or
    the entries add up past the float range), and only then is each entry tested."""
    if rows.nbytes > CHUNK_BYTES:
        with np.errstate(over="ignore", invalid="ignore"):
            if cmath.isfinite(rows.sum()):
                return True
    return bool(np.isfinite(rows.view(float)).all())


def _nonfinite_blocks(block_dims, bad_rows) -> list[str]:
    """The violations of the blocks owning the rows ``bad_rows`` (a mask or indices)."""
    atoms = np.unique(np.repeat(np.arange(len(block_dims)), block_dims)[bad_rows])
    return [f"block {i} contains non-finite entries" for i in atoms]


# A bound below this proves a product's entries finite: the factor 16 covers the
# rounding of the product and of the bound.
_PROVEN_FINITE = float(np.finfo(float).max) / 16
_TINY = float(np.finfo(float).tiny)


def _row_bound(fam: "GFrameFamily") -> float:
    """A bound on the 2-norm of every row of ``fam.rows`` from d x d data alone.

    With the family's Gram at hand (the analysis module memoizes it as
    ``"gram"``), a row of atom i has w_i ||row||^2 <= trace(A^H A); the trace is
    widened by 1 % for its rounding and by the smallest normal float for its
    underflows.  Otherwise the bound of its product parts, and inf for a
    stored part.
    """
    gram = fam._memo.get("gram")
    if gram is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = float(np.trace(gram).real)
        return math.sqrt((1.01 * trace + _TINY) / float(fam.space.weights.min()))
    return math.hypot(*(getattr(part, "bound", math.inf) for part in fam._parts))


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

    The family's ``rows`` are the raw blocks stacked in atom order, one
    read-only C-contiguous N x ``domain_dim`` matrix (unweighted, so the
    blocks stay bit-exact), and ``blocks`` are read-only views into it;
    ``domain_dim`` (an ``int``) and ``codomain_dim`` are its column and row counts.
    A family may hold its rows as column parts instead, and stack them into
    ``rows`` only on first access (``blocks``, ``==``, pickling, documents),
    keeping that copy outside the memo.  The pair family [lam_i | theta_i]
    keeps its parents' parts side by side.  A composition taller than one row
    chunk (``right_compose``, ``compose_sum``, so the duals, the Parseval
    normalization and the operator sums) keeps one product part: its sources'
    parts and the d x d operators, whose product it computes for the rows
    asked for, with the bits of the N-row product.  Only this module reads the
    parts: other modules read a row chunk at a time through
    :func:`chunk_rows`, so the streamed products never stack them, and
    composing a family reads its parts, not its ``rows``.
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
        column parts: nothing is scanned again, nor stacked before ``rows``."""
        family = cls.__new__(cls)
        family._adopt(first.space, first.block_dims, _held_parts(first) + _held_parts(second), memo)
        return family

    @classmethod
    def _composed(cls, space, block_dims, terms: tuple) -> "GFrameFamily":
        """Family whose rows are the sum of ``source.rows @ operator`` over ``terms``,
        each source over ``space`` and ``block_dims``, which the family takes.

        A result of one row chunk is computed and kept now, as any family is.  A
        taller one holds its sources' parts and the operators (a :class:`_Product`)
        and makes its rows a chunk at a time.  Its rows are finite when a bound
        from d x d data proves it (:func:`_row_bound`); else they are scanned a
        chunk at a time, with the violations a stored result would name.
        """
        first, operator = terms[0]
        count, width = first.codomain_dim, operator.shape[1]
        if width < 1 or count <= _chunk_step(width):
            rows = chunk_rows(first, slice(None)) @ operator
            for source, other in terms[1:]:
                rows += chunk_rows(source, slice(None)) @ other
            return cls.from_rows(space, rows, block_dims)
        # |row @ L| <= |row| sqrt(k m) max|L_ij| for a k x m operator L
        with np.errstate(over="ignore"):
            scales = [math.sqrt(op.size) * float(np.abs(op).max()) for _, op in terms]
        bound = sum(_row_bound(source) * scale for (source, _), scale in zip(terms, scales))
        part = _Product(tuple((_held_parts(s), op) for s, op in terms), (count, width), bound)
        family = cls.__new__(cls)
        family._adopt(space, block_dims, (part,), {})
        if not bound < _PROVEN_FINITE:  # also when the bound is inf or NaN
            family._scan_finite()
        return family

    def _scan_finite(self) -> None:
        """FamilyValidationError naming every block with a non-finite entry, the rows
        read a chunk at a time."""
        bad = []
        for rows in row_chunks(self.codomain_dim, self.domain_dim):
            chunk = chunk_rows(self, rows)
            if not _all_finite(chunk):
                bad.append(rows.start + np.flatnonzero(~np.isfinite(chunk.view(float)).all(axis=1)))
        if bad:
            raise FamilyValidationError(_nonfinite_blocks(self.block_dims, np.concatenate(bad)))

    def _set(self, space, block_dims, rows) -> None:
        """Adopt ``rows`` (read-only from now on) once the invariants hold."""
        found = [] if rows.shape[1] >= 1 else [f"domain_dim = {rows.shape[1]} not >= 1"]
        if min(block_dims) < 1:
            found += [f"block_dims[{i}] = {d} not >= 1" for i, d in enumerate(block_dims) if d < 1]
        if not found and not _all_finite(rows):
            found += _nonfinite_blocks(block_dims, ~np.isfinite(rows.view(float)).all(axis=1))
        if found:
            raise FamilyValidationError(found)
        self._adopt(space, block_dims, (_freeze(rows),), {}, rows)

    def _adopt(self, space, block_dims, parts: tuple, memo: dict, whole=None) -> None:
        """Take the parts, with ``whole`` the stored rows (else stacked by ``rows``)."""
        width = whole.shape[1] if whole is not None else sum(part.shape[1] for part in parts)
        for name, value in zip(
            ("space", "domain_dim", "block_dims", "_parts", "_rows", "_blocks", "_memo"),
            (space, width, block_dims, parts, whole, None, memo),
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
        dims = read_dims(block_dims, "block_dims")
        if data.ndim != 1 or data.size != sum(dims):
            raise ShapeError(f"vector of shape {data.shape} != total block dim {sum(dims)}")
        vector = cls.__new__(cls)
        vector._set(data, dims)
        return vector

    @classmethod
    def zeros(cls, block_dims) -> "KHatVector":
        dims = read_dims(block_dims, "block_dims")
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
    """Family with blocks block_i @ operator; the domain becomes operator's.
    Taller than one row chunk, it makes its rows a chunk at a time, on demand."""
    operator = np.asarray(operator, dtype=complex)
    if operator.ndim != 2 or operator.shape[0] != fam.domain_dim:
        raise ShapeError(
            f"operator shape {operator.shape} does not act on domain of dim {fam.domain_dim}"
        )
    return GFrameFamily._composed(fam.space, fam.block_dims, ((fam, operator),))


def compose_sum(lam: GFrameFamily, theta: GFrameFamily, l1, l2) -> GFrameFamily:
    """Family with blocks lam_i @ l1 + theta_i @ l2, over ``lam``'s space and block dims.
    Taller than one row chunk, it makes its rows a chunk at a time, on demand,
    so no N-row array is made."""
    return GFrameFamily._composed(lam.space, lam.block_dims, ((lam, l1), (theta, l2)))


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
