"""Seeded inputs and the closed-form checks the benchmark applies to outputs.

Nothing here imports ``gframes``: every expected value is computed with
numpy (or by hand) from the benchmark's own inputs, and documents are read
and written with the benchmark's own JSON code.

The quadrature families are the paper's continuous setting made finite:
midpoint atoms ``t_j = (j + 1/2) / N`` of [0, 1] with weight ``1/N`` and
rank-one blocks ``u_j ⊗ e(t_j)``, where ``u_j`` is a unit vector and
``e(t) = (exp(2 pi i k t))_k`` runs over a set of integer frequencies.  When
every difference of two frequencies is below ``N`` in size, discrete Fourier
orthogonality makes the family Parseval, two families on disjoint frequency
sets strongly disjoint, and a non-uniform weighting has the Toeplitz frame
operator ``S[k, l] = sum_j w_j exp(2 pi i (l - k) t_j)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

REL = 1e-9


@dataclass
class FourierPair:
    t: np.ndarray
    dims: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    blocks1: list
    blocks2: list
    weights: np.ndarray
    varied_weights: np.ndarray

    @property
    def domain_dim(self) -> int:
        return int(self.k1.size)


def fourier_pair(rng: np.random.Generator, atoms: int, domain_dim: int, max_block: int = 4) -> FourierPair:
    span = 4 * domain_dim
    if 2 * span >= atoms:
        raise ValueError(f"{atoms} atoms cannot resolve frequencies up to {span}")
    t = (np.arange(atoms) + 0.5) / atoms
    dims = rng.integers(1, max_block + 1, atoms)
    freqs = rng.choice(np.arange(-span, span + 1), 2 * domain_dim, replace=False)
    k1, k2 = np.sort(freqs[:domain_dim]), np.sort(freqs[domain_dim:])
    raw = rng.standard_normal((atoms, max_block)) + 1j * rng.standard_normal((atoms, max_block))
    raw[np.arange(max_block)[None, :] >= dims[:, None]] = 0.0
    units = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    e1 = np.exp(2j * np.pi * np.outer(t, k1))
    e2 = np.exp(2j * np.pi * np.outer(t, k2))
    blocks1 = [np.outer(u[:b], e) for u, b, e in zip(units, dims, e1)]
    blocks2 = [np.outer(u[:b], e) for u, b, e in zip(units, dims, e2)]
    return FourierPair(
        t=t,
        dims=dims,
        k1=k1,
        k2=k2,
        blocks1=blocks1,
        blocks2=blocks2,
        weights=np.full(atoms, 1.0 / atoms),
        varied_weights=rng.uniform(0.5, 2.0, atoms) / atoms,
    )


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def toeplitz_frame_operator(t: np.ndarray, weights: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``S[k, l] = sum_j w_j exp(2 pi i (f_l - f_k) t_j)`` from the weight Fourier sums."""
    diff = freqs[None, :] - freqs[:, None]
    shifts, where = np.unique(diff, return_inverse=True)
    sums = np.array([weights @ np.exp(2j * np.pi * m * t) for m in shifts])
    return sums[where].reshape(diff.shape)


def hermitian_power(matrix: np.ndarray, power: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * vals**power) @ vecs.conj().T


def stack(blocks) -> np.ndarray:
    return np.vstack(list(blocks))


def close(a, b, rel: float = REL) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= rel * scale


def near(value, expected, rel: float = REL) -> bool:
    return abs(float(value) - float(expected)) <= rel * max(1.0, abs(float(expected)))


class Problems(list):
    """Collects the failed expectations of one output."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# documents: the benchmark's own reader and writer
# ---------------------------------------------------------------------------


def _entries(block: np.ndarray) -> list:
    return np.stack([block.real, block.imag], axis=-1).tolist()


def write_document(path: str, weights, families: dict) -> None:
    """``families`` maps a name to ``(domain_dim, block list)``."""
    payload = {
        "format_version": "1",
        "measure_space": {"weights": [float(w) for w in weights]},
        "families": {
            name: {
                "domain_dim": int(dim),
                "block_dims": [int(b.shape[0]) for b in blocks],
                "blocks": [_entries(b) for b in blocks],
            }
            for name, (dim, blocks) in families.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


@dataclass
class ReadFamily:
    weights: np.ndarray
    domain_dim: int
    block_dims: list
    blocks: list

    def embedded(self) -> np.ndarray:
        """Analysis matrix: rows ``sqrt(w_j) * block_j`` in atom order."""
        return stack(np.sqrt(w) * b for w, b in zip(self.weights, self.blocks))


def read_family(path: str, name: str) -> ReadFamily:
    """Read one family; raises ValueError on any malformed content."""
    with open(path, "r", encoding="utf-8") as handle:
        root = json.load(handle)
    weights = np.array(root["measure_space"]["weights"], dtype=float)
    fam = root["families"][name]
    dim = int(fam["domain_dim"])
    blocks = []
    for i, (rows, b) in enumerate(zip(fam["blocks"], fam["block_dims"], strict=True)):
        arr = np.array(rows, dtype=float)
        if arr.shape != (b, dim, 2):
            raise ValueError(f"{name} block {i} has shape {arr.shape}, expected {(b, dim, 2)}")
        blocks.append(arr[..., 0] + 1j * arr[..., 1])
    if len(blocks) != weights.size:
        raise ValueError(f"{name} has {len(blocks)} blocks for {weights.size} atoms")
    return ReadFamily(weights=weights, domain_dim=dim, block_dims=list(fam["block_dims"]), blocks=blocks)


def check_document_family(problems: Problems, path: str, name: str, weights, expected_blocks) -> ReadFamily | None:
    """Re-read ``name`` from ``path`` and compare it with the expected blocks."""
    try:
        fam = read_family(path, name)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{path}: cannot re-read family {name!r}: {exc}")
        return None
    problems.expect(close(fam.weights, weights), f"{path}: weights differ")
    problems.expect(
        close(stack(fam.blocks), stack(expected_blocks)), f"{path}: family {name!r} differs from the closed form"
    )
    return fam


# ---------------------------------------------------------------------------
# closed-form expectations on gframes results
# ---------------------------------------------------------------------------


def check_bounds(problems: Problems, label: str, lower, upper, expected_lower, expected_upper) -> None:
    problems.expect(near(lower, expected_lower), f"{label}: lower bound {lower} != {expected_lower}")
    problems.expect(near(upper, expected_upper), f"{label}: upper bound {upper} != {expected_upper}")


def check_parseval(problems: Problems, label: str, report) -> None:
    """``report`` is a gframes FrameReport."""
    check_bounds(problems, label, report.lower_bound, report.upper_bound, 1.0, 1.0)
    problems.expect(bool(report.is_parseval), f"{label}: is_parseval is {report.is_parseval}")
    problems.expect(
        close(report.frame_operator, np.eye(report.frame_operator.shape[0])), f"{label}: frame operator is not I"
    )


def check_hand_values(problems: Problems, theta_upper, lam_theta_disjoint, gamma_lower, theta_riesz) -> None:
    """The README example: blocks ([1], [0]) and ([1], [1]) on two unit atoms."""
    problems.expect(near(theta_upper, 2.0, 1e-12), f"hand: upper bound of theta {theta_upper} != 2")
    problems.expect(bool(lam_theta_disjoint), "hand: lam and theta are not reported disjoint")
    problems.expect(
        near(gamma_lower, (3.0 - math.sqrt(5.0)) / 2.0, 1e-12),
        f"hand: pair family lower bound {gamma_lower} != (3 - sqrt 5) / 2",
    )
    problems.expect(not theta_riesz, "hand: theta is reported Riesz-type")
