"""Ideal and generalized measurements, sequences, and POV-measure tooling.

A measurement step is an operation family {R_delta}: on outcome ``delta`` the
(unnormalized) state becomes R rho R^dagger, and a time-ordered sequence has
outcome probabilities

    p(delta_1 ... delta_n) = tr( R_n ... R_1 rho R_1^dagger ... R_n^dagger ).

Ideal steps use the spectral projectors of an observable as their operations.
The family {R_delta^dagger R_delta} is the induced POV measure, which fixes
the single-time statistics but not the collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import DimPair, as_dim_pair
from .states import DensityMatrix

COMMUTATOR_TOL = 1e-9
COMPLETENESS_TOL = 1e-10


class NonStochasticMatrix(ValueError):
    """Smearing matrix is not column-stochastic."""


def _eig_label(value: float, taken: set[str]) -> str:
    base = f"{value:+.6g}"
    label = base
    k = 1
    while label in taken:
        label = f"{base}#{k}"
        k += 1
    return label


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian observable with its spectral data and a display label."""

    matrix: np.ndarray
    label: str
    spectral: hilbert.SpectralDecomposition

    @classmethod
    def from_matrix(cls, m, label: str) -> "Observable":
        a = hilbert.as_complex_matrix(m)
        spec = hilbert.spectral_decompose(a)
        return cls(a, label, spec)

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        taken: set[str] = set()
        out = []
        for v in self.spectral.eigenvalues:
            lab = _eig_label(v, taken)
            taken.add(lab)
            out.append(lab)
        return tuple(out)

    @property
    def outcome_values(self) -> tuple[float, ...]:
        return self.spectral.eigenvalues


def pauli(which: str) -> Observable:
    mats = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    if which not in mats:
        raise ValueError(f"unknown Pauli axis {which!r}")
    return Observable.from_matrix(mats[which], f"pauli_{which}")


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: labeled effects summing to identity."""

    labels: tuple[str, ...]
    effects: tuple[np.ndarray, ...]
    kind: str = "general"

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.effects) or not self.labels:
            raise ValueError("labels and effects must align and be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate outcome labels")
        n = self.effects[0].shape[0]
        total = np.zeros((n, n), dtype=complex)
        for e in self.effects:
            if e.shape != (n, n):
                raise ValueError("effects have mismatched shapes")
            if hilbert.hermiticity_defect(e) > hilbert.HERMITIAN_TOL:
                raise ValueError("effect is not Hermitian")
            if float(np.linalg.eigvalsh(e)[0]) < -1e-10:
                raise ValueError("effect is not positive semidefinite")
            total += e
        defect = float(np.max(np.abs(total - np.eye(n))))
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"effects do not sum to identity (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def effect(self, label: str) -> np.ndarray:
        return self.effects[self.labels.index(label)]


@dataclass(frozen=True, eq=False)
class OperationFamily:
    """Labeled operations {R_delta} with sum_delta R^dagger R = identity."""

    name: str
    labels: tuple[str, ...]
    operators: tuple[np.ndarray, ...]
    kind: str = "general"

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.operators) or not self.labels:
            raise ValueError("labels and operators must align and be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate outcome labels")
        for lab in self.labels:
            if "/" in lab or "/" in self.name:
                raise ValueError("names and labels must not contain '/'")
        n = self.operators[0].shape[0]
        total = np.zeros((n, n), dtype=complex)
        for r in self.operators:
            if r.shape != (n, n):
                raise ValueError("operators have mismatched shapes")
            total += r.conj().T @ r
        defect = float(np.max(np.abs(total - np.eye(n))))
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"operations violate completeness (defect {defect:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def operator(self, label: str) -> np.ndarray:
        return self.operators[self.labels.index(label)]

    def outcomes(self) -> tuple[str, ...]:
        return self.labels

    @classmethod
    def ideal(cls, obs: Observable, name: str | None = None) -> "OperationFamily":
        """Projective operations from an observable's spectral projectors."""
        return cls(
            name if name is not None else obs.label,
            obs.outcome_labels,
            obs.spectral.projectors,
            kind="ideal",
        )

    @classmethod
    def from_povm(cls, povm: Povm, name: str) -> "OperationFamily":
        """Canonical operations R = sqrt(M) realizing a POV measure."""
        roots = []
        for e in povm.effects:
            spec = hilbert.spectral_decompose(e)
            n = e.shape[0]
            root = np.zeros((n, n), dtype=complex)
            for lam, p in zip(spec.eigenvalues, spec.projectors):
                root += np.sqrt(max(lam, 0.0)) * p
            roots.append(root)
        return cls(name, povm.labels, tuple(roots), kind="general")


def embed_local(op, side: int, dims: DimPair | tuple[int, int]) -> np.ndarray:
    """Lift a one-side operator to the joint space (identity on the other side)."""
    dp = as_dim_pair(dims)
    a = hilbert.as_complex_matrix(op)
    if side == 1:
        if a.shape != (dp.d1, dp.d1):
            raise ValueError(f"side-1 operator shape {a.shape}, expected {dp.d1}")
        return hilbert.kron(a, np.eye(dp.d2, dtype=complex))
    if side == 2:
        if a.shape != (dp.d2, dp.d2):
            raise ValueError(f"side-2 operator shape {a.shape}, expected {dp.d2}")
        return hilbert.kron(np.eye(dp.d1, dtype=complex), a)
    raise ValueError("side must be 1 or 2")


def sequence_distribution(
    rho: DensityMatrix, steps: list[tuple[int, OperationFamily]]
) -> dict[tuple[str, ...], float]:
    """Joint outcome table of a time-ordered sequence of (side, family) steps.

    Returns every outcome tuple (in family label order per step, first step
    most significant) with its probability
    tr(R_n ... R_1 rho R_1^dagger ... R_n^dagger), from direct Kraus
    products on the joint space: the reference for faster table engines.
    """
    branches: list[tuple[tuple[str, ...], np.ndarray]] = [((), rho.matrix)]
    for side, fam in steps:
        embedded = [
            (lab, embed_local(op, side, rho.dims))
            for lab, op in zip(fam.labels, fam.operators)
        ]
        branches = [
            (path + (lab,), r @ sigma @ r.conj().T)
            for path, sigma in branches
            for lab, r in embedded
        ]
    return {path: float(np.real(np.trace(sigma))) for path, sigma in branches}


@dataclass(frozen=True, eq=False)
class CommutingDecomposition:
    """Joint spectral form of a commuting POVM: rank-1 projectors P_j and a
    coefficient table with effect(alpha) = sum_j table[alpha, j] P_j."""

    labels: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]
    table: np.ndarray  # shape (n_labels, n_projectors), entries in [0, 1]

    def reconstruct(self, label: str) -> np.ndarray:
        i = self.labels.index(label)
        n = self.projectors[0].shape[0]
        out = np.zeros((n, n), dtype=complex)
        for j, p in enumerate(self.projectors):
            out += self.table[i, j] * p
        return out


@dataclass(frozen=True)
class NotCommuting:
    """Returned when a POVM has a non-commuting effect pair."""

    pair: tuple[str, str]
    commutator_norm: float


def commuting_decompose(
    povm: Povm, tol: float = COMMUTATOR_TOL
) -> CommutingDecomposition | NotCommuting:
    """Joint diagonalization of a pairwise-commuting POVM.

    All effect pairs must commute within ``tol`` (every two-valued POVM
    does).  A common eigenbasis is found by diagonalizing a generically
    weighted sum of the effects; weights 1/pi^i break accidental coincidence
    of the weighted spectra.
    """
    n = povm.dim
    for i in range(len(povm.effects)):
        for j in range(i + 1, len(povm.effects)):
            a, b = povm.effects[i], povm.effects[j]
            comm = float(np.max(np.abs(a @ b - b @ a)))
            if comm > tol:
                return NotCommuting((povm.labels[i], povm.labels[j]), comm)
    weighted = np.zeros((n, n), dtype=complex)
    for i, e in enumerate(povm.effects, start=1):
        weighted += (np.pi ** -i) * e
    _, vecs = np.linalg.eigh(weighted)
    projectors = tuple(
        np.outer(vecs[:, j], vecs[:, j].conj()) for j in range(n)
    )
    table = np.empty((len(povm.effects), n), dtype=float)
    for i, e in enumerate(povm.effects):
        for j in range(n):
            v = vecs[:, j]
            table[i, j] = float(np.real(v.conj() @ e @ v))
    table = np.clip(table, 0.0, 1.0)
    return CommutingDecomposition(povm.labels, projectors, table)


def smeared_povm(obs: Observable, t) -> Povm:
    """Classically smeared projective measurement: effect(i) = sum_j t[i,j] P_j.

    ``t`` must be column-stochastic (entries >= 0, each column summing to 1)
    with as many columns as the observable has spectral projectors.  The
    resulting effects all commute.
    """
    mat = np.asarray(t, dtype=float)
    projs = obs.spectral.projectors
    if mat.ndim != 2 or mat.shape[1] != len(projs):
        raise NonStochasticMatrix(
            f"smearing matrix shape {mat.shape} does not match {len(projs)} projectors"
        )
    if np.any(mat < -1e-15):
        raise NonStochasticMatrix("smearing matrix has negative entries")
    colsums = mat.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > 1e-12):
        raise NonStochasticMatrix(f"column sums {colsums.tolist()} are not all 1")
    n = projs[0].shape[0]
    effects = []
    for i in range(mat.shape[0]):
        e = np.zeros((n, n), dtype=complex)
        for j, p in enumerate(projs):
            e += mat[i, j] * p
        effects.append(e)
    if mat.shape[0] == len(projs):
        labels = obs.outcome_labels
    else:
        labels = tuple(f"s{i}" for i in range(mat.shape[0]))
    return Povm(labels, tuple(effects), kind="general")


def family_to_json(fam: OperationFamily) -> dict:
    return {
        "name": fam.name,
        "labels": list(fam.labels),
        "operators": [hilbert.matrix_to_json(r) for r in fam.operators],
        "kind": fam.kind,
    }


def _operators_from_json(obj: dict, where: str) -> tuple[np.ndarray, ...]:
    return tuple(
        hilbert.matrix_from_json(m, f"{where} operator {i}")
        for i, m in enumerate(hilbert.json_field(obj, "operators", where))
    )


def family_from_json(obj: dict, where: str = "family") -> OperationFamily:
    """Decode a family; a missing field raises a ValueError that names it and
    the family (``where`` and the family's name)."""
    name = hilbert.json_field(obj, "name", where)
    where = f"{where} {name!r}"
    return OperationFamily(
        name,
        tuple(hilbert.json_field(obj, "labels", where)),
        _operators_from_json(obj, where),
        kind=obj.get("kind", "general"),
    )


def povm_to_json(povm: Povm) -> dict:
    return {
        "labels": list(povm.labels),
        "operators": [hilbert.matrix_to_json(e) for e in povm.effects],
        "kind": povm.kind,
    }


def povm_from_json(obj: dict) -> Povm:
    return Povm(
        tuple(hilbert.json_field(obj, "labels", "povm")),
        _operators_from_json(obj, "povm"),
        kind=obj.get("kind", "general"),
    )
