"""Dense complex linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` complex arrays.  Dimensions stay
small (single-digit local dimension), so dense storage and ``eigh`` are the
right tools; no sparse or structured paths are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity test threshold (max absolute entry of M - M^dagger).
HERMITIAN_TOL = 1e-10
# Eigenvalue clustering threshold, relative to the spectral radius.
DEGENERACY_TOL = 1e-8


class NotHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""

    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"matrix is not Hermitian (max deviation {defect:.3e})")


@dataclass(frozen=True)
class DimPair:
    """Local dimensions of a (possibly degenerate) tensor-product split.

    ``d2 == 1`` models a single system; at least one factor must be a real
    subsystem.
    """

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1 or self.d1 * self.d2 < 2:
            raise ValueError(f"invalid dimensions ({self.d1}, {self.d2})")

    @property
    def total(self) -> int:
        return self.d1 * self.d2


def as_dim_pair(dims: DimPair | tuple[int, int]) -> DimPair:
    if isinstance(dims, DimPair):
        return dims
    return DimPair(int(dims[0]), int(dims[1]))


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def hermiticity_defect(m) -> float:
    """Max absolute entry of M - M^dagger."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix is not square")
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def kron(a, b) -> np.ndarray:
    """Tensor product in row-major (subsystem-1 major) index convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(m, dims: DimPair | tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a square matrix on C^{d1} (x) C^{d2}.

    ``keep`` is 1 or 2, naming the subsystem that survives.
    """
    dp = as_dim_pair(dims)
    a = as_complex_matrix(m)
    if a.shape != (dp.total, dp.total):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dp}")
    t = a.reshape(dp.d1, dp.d2, dp.d1, dp.d2)
    if keep == 1:
        return np.einsum("ijkj->ik", t)
    if keep == 2:
        return np.einsum("ijil->jl", t)
    raise ValueError("keep must be 1 or 2")


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F on C^d (x) C^d: F (x (x) y) = y (x) x.

    Entries: F[(i,j),(k,l)] = delta_il * delta_jk.
    """
    if d < 2:
        raise ValueError("flip_operator needs local dimension >= 2")
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with orthogonal spectral projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        n = self.projectors[0].shape[0]
        out = np.zeros((n, n), dtype=complex)
        for lam, p in zip(self.eigenvalues, self.projectors):
            out += lam * p
        return out

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(np.real(np.trace(p)))) for p in self.projectors)


def spectral_decompose(
    h, degeneracy_tol: float = DEGENERACY_TOL, hermitian_tol: float = HERMITIAN_TOL
) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    Eigenvalues within ``degeneracy_tol * spectral_radius`` of each other are
    clustered into a single projector.  Output order is strictly descending.
    """
    a = as_complex_matrix(h)
    defect = hermiticity_defect(a)
    if defect > hermitian_tol:
        raise NotHermitianError(defect)
    vals, vecs = np.linalg.eigh(a)
    radius = float(np.max(np.abs(vals))) if vals.size else 0.0
    gap = degeneracy_tol * max(radius, 1e-300)
    groups: list[list[int]] = []
    for idx in range(len(vals)):
        if groups and vals[idx] - vals[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    eigenvalues = []
    projectors = []
    for g in reversed(groups):
        block = vecs[:, g]
        eigenvalues.append(float(np.mean(vals[g])))
        projectors.append(block @ block.conj().T)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))


def psd_min_eigenvalue(m, hermitian_tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix (positivity diagnostic)."""
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > hermitian_tol:
        raise NotHermitianError(defect)
    return float(np.linalg.eigvalsh(a)[0])


def matrix_to_json(m) -> dict:
    """Encode a complex matrix as {"rows", "cols", "re", "im"}."""
    a = as_complex_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": np.real(a).tolist(),
        "im": np.imag(a).tolist(),
    }


def json_field(obj, key: str, where: str):
    """``obj[key]``, or a ValueError naming the missing field and ``where``
    (e.g. ``side1 family 'mz'``) it belongs to."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    return obj[key]


def matrix_from_json(obj: dict, where: str = "matrix") -> np.ndarray:
    rows, cols = (int(json_field(obj, key, where)) for key in ("rows", "cols"))
    re, im = (
        np.asarray(json_field(obj, key, where), dtype=float) for key in ("re", "im")
    )
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(f"{where}: re/im blocks do not match declared shape")
    return re + 1j * im
