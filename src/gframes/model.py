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

from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyValidationError, ShapeError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_block(values) -> np.ndarray:
    """Coerce to a 2-D complex matrix (no copy if it is one); 1-D input is a single row."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"operator block must be 2-D, got ndim={arr.ndim}")
    return arr


def _split_rows(matrix: np.ndarray, block_dims) -> list[np.ndarray]:
    """Views of ``matrix`` (or of a vector) cut into consecutive row groups of the given sizes."""
    return np.split(matrix, np.cumsum(block_dims)[:-1])


def _row_roots(space: "MeasureSpace", block_dims) -> np.ndarray:
    """sqrt(weight) of the atom owning each stacked row."""
    return np.repeat(np.sqrt(space.weights), block_dims)


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Standard inner product, linear in ``x`` and conjugate-linear in ``y``."""
    return complex(np.vdot(y, x))


@dataclass(frozen=True, eq=False)
class TolerancePolicy:
    """Numeric tolerances used by every comparison in the package.

    ``rel_eps`` controls relative equality of scalars and matrices;
    ``rank_eps_factor`` scales the SVD rank cutoff
    (singular values below factor * max(rows, cols) * sigma_max * machine_eps
    count as zero).  Both must be finite.
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
    """Finite set of atoms with strictly positive weights.

    Construction is permissive so that invalid data can be inspected;
    :func:`validate_family` reports weight violations as data.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = _freeze(np.array(self.weights, dtype=float).reshape(-1))
        found = [] if arr.size else ["atom_count must be >= 1"]
        bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0)))
        found += [f"weights[{i}] = {arr[i]} not > 0" for i in bad]
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "_violations", tuple(found))

    @property
    def atom_count(self) -> int:
        return int(self.weights.size)

    def violations(self) -> list[str]:
        return list(self._violations)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureSpace) and np.array_equal(self.weights, other.weights)


def _violations(space, domain_dim, block_dims, rows, blocks) -> tuple[str, ...]:
    """Every violated structural invariant of a family.  ``blocks`` is given
    only when they do not fit ``block_dims`` x ``domain_dim`` (``rows`` is None)."""
    found = space.violations()
    if int(domain_dim) < 1:
        found.append(f"domain_dim = {domain_dim} not >= 1")
    if blocks is None:
        bad_rows = ~np.isfinite(rows.view(float)).all(axis=1)
        if bad_rows.any():
            atoms = np.unique(np.repeat(np.arange(len(block_dims)), block_dims)[bad_rows])
            found += [f"block {i} contains non-finite entries" for i in atoms]
    else:
        n = space.atom_count
        if len(blocks) != n:
            found.append(f"blocks.length = {len(blocks)} != atom_count = {n}")
        if len(block_dims) != len(blocks):
            found.append(
                f"block_dims.length = {len(block_dims)} != blocks.length = {len(blocks)}"
            )
        for i, block in enumerate(blocks):
            if i < len(block_dims) and block.shape[0] != block_dims[i]:
                found.append(
                    f"block {i} has {block.shape[0]} rows, "
                    f"expected block_dims[{i}] = {block_dims[i]}"
                )
            if block.shape[1] != domain_dim:
                found.append(
                    f"block {i} has {block.shape[1]} columns, expected domain_dim = {domain_dim}"
                )
            if not np.all(np.isfinite(block)):
                found.append(f"block {i} contains non-finite entries")
    if sum(block_dims) < 1:
        found.append("total codomain dimension must be >= 1")
    return tuple(found)


@dataclass(frozen=True, eq=False, init=False)
class GFrameFamily:
    """A measure space plus one complex operator block per atom.

    ``blocks[i]`` maps the shared ``domain_dim``-dimensional domain into the
    atom's codomain of dimension ``block_dims[i]``. ``block_dims`` may be
    omitted, in which case it is read off the blocks; passing it explicitly
    lets :func:`validate_family` catch mismatches.

    The family stores ``rows``: the raw blocks stacked in atom order, one
    read-only C-contiguous N x ``domain_dim`` matrix (unweighted, so the
    blocks stay bit-exact), and ``blocks`` are read-only views into it.  The
    structural invariants are checked once, here.  Construction is
    permissive: blocks that do not fit ``block_dims`` x ``domain_dim`` are
    kept as given, with ``rows = None``, for inspection.

    Since a family never changes, its spectral data (the d x d frame
    operator, one frame report per tolerance, the singular values of the
    analysis matrix) is computed on first use and kept in a private memo for
    as long as the family lives.  No N x d matrix is kept there.
    """

    space: MeasureSpace
    domain_dim: int
    block_dims: tuple[int, ...]
    rows: np.ndarray | None = field(repr=False)

    def __init__(self, space, domain_dim, blocks, block_dims=None):
        blocks = tuple(_as_block(b) for b in blocks)
        dims = (
            tuple(b.shape[0] for b in blocks) if block_dims is None else tuple(map(int, block_dims))
        )
        fits = bool(blocks) and len(blocks) == len(dims) == space.atom_count and all(
            b.shape == (d, domain_dim) for b, d in zip(blocks, dims)
        )
        if fits:
            self._set(space, domain_dim, dims, _freeze(np.vstack(blocks)), None)
        else:
            self._set(space, domain_dim, dims, None, tuple(_freeze(b.copy()) for b in blocks))

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
        if len(dims) != space.atom_count:
            raise ShapeError("block_dims do not match the measure space")
        family = cls.__new__(cls)
        family._set(space, rows.shape[1], dims, _freeze(rows), None)
        return family

    def _set(self, space, domain_dim, block_dims, rows, blocks) -> None:
        found = _violations(space, domain_dim, block_dims, rows, blocks)
        for name, value in zip(
            ("space", "domain_dim", "block_dims", "rows", "_blocks", "_violations", "_memo"),
            (space, domain_dim, block_dims, rows, blocks, found, {}),
        ):
            object.__setattr__(self, name, value)

    def _memoized(self, key, compute, *args):
        """``compute(self, *args)``, computed on the first call with ``key`` and
        returned as is afterwards.  An exception from ``compute`` is raised and
        nothing is stored, so every later call raises it again."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute(self, *args)
        return value

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
        """Total dimension N of the weighted direct-sum target space."""
        return int(sum(self.block_dims))

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, GFrameFamily)
            and self.space == other.space
            and self.domain_dim == other.domain_dim
            and self.block_dims == other.block_dims
        ):
            return False
        if self.rows is not None and other.rows is not None:
            return np.array_equal(self.rows, other.rows)
        return len(self.blocks) == len(other.blocks) and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
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


def validate_family(fam: GFrameFamily) -> list[str]:
    """Return every violated structural invariant; an empty list means valid.

    The invariants are checked when the family is built; this reads the result.
    """
    return list(fam._violations)


def require_valid(fam: GFrameFamily) -> None:
    if fam._violations:
        raise FamilyValidationError(fam._violations)


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


def _require_atoms(f: KHatVector, space: MeasureSpace) -> None:
    if len(f.block_dims) != space.atom_count:
        raise ShapeError(
            f"vector has {len(f.block_dims)} blocks but space has {space.atom_count} atoms"
        )


def khat_inner(f: KHatVector, g: KHatVector, space: MeasureSpace) -> complex:
    """Weighted inner product: sum over atoms of weight * <F_i, G_i>."""
    if f.block_dims != g.block_dims:
        raise ShapeError(f"block dims differ: {f.block_dims} vs {g.block_dims}")
    _require_atoms(f, space)
    return complex(np.vdot(g.data, np.repeat(space.weights, f.block_dims) * f.data))


def khat_norm(f: KHatVector, space: MeasureSpace) -> float:
    return float(np.sqrt(max(khat_inner(f, f, space).real, 0.0)))


def embed(f: KHatVector, space: MeasureSpace) -> np.ndarray:
    """Stack sqrt(weight) * F_i in atom order; isometric onto standard coordinates."""
    _require_atoms(f, space)
    return f.data * _row_roots(space, f.block_dims)


def unembed(vector: np.ndarray, space: MeasureSpace, block_dims) -> KHatVector:
    """Inverse of :func:`embed`: undo the square-root weighting of each row."""
    vector = np.asarray(vector, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in block_dims)
    if vector.size != sum(dims):
        raise ShapeError(f"vector length {vector.size} != total block dim {sum(dims)}")
    if len(dims) != space.atom_count:
        raise ShapeError("block_dims do not match the measure space")
    return KHatVector.from_array(vector / _row_roots(space, dims), dims)


def analysis_matrix(fam: GFrameFamily) -> np.ndarray:
    """Matrix of the analysis operator in embedded coordinates (N x d).

    Rows are the blocks sqrt(weight_i) * block_i stacked in atom order, so that
    for any h the product equals the embedding of the blockwise application.
    The synthesis operator's matrix is the conjugate transpose.  It is formed
    on each call, never stored beside the family's rows.
    """
    require_valid(fam)
    return fam.rows * _row_roots(fam.space, fam.block_dims)[:, np.newaxis]


def family_from_analysis_matrix(matrix: np.ndarray, space: MeasureSpace, block_dims) -> GFrameFamily:
    """Rebuild the family whose embedded analysis matrix is ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    dims = tuple(int(d) for d in block_dims)
    if matrix.ndim == 2 and matrix.shape[0] == sum(dims) and len(dims) == space.atom_count:
        matrix = matrix / _row_roots(space, dims)[:, np.newaxis]
    # any other shape is rejected by from_rows
    return GFrameFamily.from_rows(space, matrix, dims)


def apply_analysis(fam: GFrameFamily, h: np.ndarray) -> KHatVector:
    """Blockwise application: atom i carries block_i @ h."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.size != fam.domain_dim:
        raise ShapeError(f"vector length {h.size} != domain_dim {fam.domain_dim}")
    require_valid(fam)
    return KHatVector.from_array(fam.rows @ h, fam.block_dims)


def apply_synthesis(fam: GFrameFamily, phi: KHatVector) -> np.ndarray:
    """Adjoint of the analysis operator: sum of weight_i * block_i^H @ phi_i."""
    if phi.block_dims != fam.block_dims:
        raise ShapeError(
            f"vector block dims {phi.block_dims} != family block dims {fam.block_dims}"
        )
    require_valid(fam)
    return fam.rows.conj().T @ (phi.data * np.repeat(fam.space.weights, fam.block_dims))


def right_compose(fam: GFrameFamily, operator: np.ndarray) -> GFrameFamily:
    """Family with blocks block_i @ operator; the domain becomes operator's."""
    operator = np.asarray(operator, dtype=complex)
    if operator.ndim != 2 or operator.shape[0] != fam.domain_dim:
        raise ShapeError(
            f"operator shape {operator.shape} does not act on domain of dim {fam.domain_dim}"
        )
    require_valid(fam)
    return GFrameFamily.from_rows(fam.space, fam.rows @ operator, fam.block_dims)
