"""Bipartite density matrices, the flip-based state family, and collapse.

The central objects are the one-parameter family

    rho(d, c) = (1/d) (1/d + c) I  -  c F        on C^d (x) C^d,

where ``F`` is the flip (swap) operator and ``0 <= c <= 1/(d^2 - d)``, and
the distinguished member ``c = 1/d^2``.  Closed-form thresholds of the
parameter ``c`` (normalization, entanglement, single-time hidden-variables
admissibility, separability after a local collapse) are exposed as exact
fractions so boundary arithmetic stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import hilbert
from .hilbert import DimPair, as_dim_pair

# Outcomes at or below this probability are treated as impossible branches.
PROB_FLOOR = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class StateValidationError(ValueError):
    pass


class NotHermitian(StateValidationError):
    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"density matrix not Hermitian (deviation {defect:.3e})")


class TraceNotOne(StateValidationError):
    def __init__(self, trace: complex):
        self.trace = trace
        super().__init__(f"density matrix trace is {trace}, expected 1")


class NotPositive(StateValidationError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"density matrix has negative eigenvalue {min_eigenvalue:.3e}"
        )


class ParameterOutOfRange(ValueError):
    pass


class ZeroProbabilityOutcome(ValueError):
    """Conditioning on an outcome whose probability is at the floor."""

    def __init__(self, probability: float):
        self.probability = float(probability)
        super().__init__(
            f"outcome probability {probability:.3e} not above {PROB_FLOOR:.0e}"
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix together with its tensor split."""

    matrix: np.ndarray
    dims: DimPair

    @property
    def total_dim(self) -> int:
        return self.dims.total


def make_density(matrix, dims: DimPair | tuple[int, int]) -> DensityMatrix:
    """Validate Hermiticity, unit trace, and positivity, then wrap."""
    dp = as_dim_pair(dims)
    a = hilbert.as_complex_matrix(matrix)
    if a.shape != (dp.total, dp.total):
        raise StateValidationError(
            f"matrix shape {a.shape} does not match dims ({dp.d1}, {dp.d2})"
        )
    defect = hilbert.hermiticity_defect(a)
    if defect > hilbert.HERMITIAN_TOL:
        raise NotHermitian(defect)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(tr)
    min_eig = float(np.linalg.eigvalsh(a)[0])
    if min_eig < -PSD_TOL:
        raise NotPositive(min_eig)
    a = a.copy()
    a.flags.writeable = False
    return DensityMatrix(a, dp)


def _check_local_dim(d: int) -> None:
    if d < 2:
        raise ParameterOutOfRange(f"local dimension {d} < 2")


def normalization_bound(d: int) -> Fraction:
    """Largest admissible flip coefficient: positivity fails above it."""
    _check_local_dim(d)
    return Fraction(1, d * d - d)


def entanglement_threshold(d: int) -> Fraction:
    """The state is entangled exactly when c exceeds this value."""
    _check_local_dim(d)
    return Fraction(1, d * (d * d - 1))


def lhv1_threshold(d: int) -> Fraction:
    """Below or at this value a single-time local hidden-variables model exists."""
    _check_local_dim(d)
    return Fraction(1, d * d)


def collapse_separability_threshold(d: int) -> Fraction:
    """At or below this value the codimension-1 collapsed state is separable."""
    _check_local_dim(d)
    return Fraction(1, d * (d * d - 1) - d * d)


@dataclass(frozen=True)
class WernerParams:
    """Parameters (d, c) of the flip family; c may be a Fraction for exactness."""

    d: int
    c: float | Fraction

    def __post_init__(self) -> None:
        hi = normalization_bound(self.d)
        if isinstance(self.c, Rational):
            ok = 0 <= self.c <= hi
        else:
            ok = 0.0 <= float(self.c) <= float(hi) + 1e-15
        if not ok:
            raise ParameterOutOfRange(
                f"c={self.c} outside [0, {hi}] for d={self.d}"
            )


def werner_gen(d: int, c: float | Fraction) -> DensityMatrix:
    """State (1/d)(1/d + c) I - c F on C^d (x) C^d."""
    params = WernerParams(d, c)
    cf = float(params.c)
    n = d * d
    m = (1.0 / d) * (1.0 / d + cf) * np.eye(n, dtype=complex)
    m -= cf * hilbert.flip_operator(d)
    return make_density(m, (d, d))


def werner(d: int) -> DensityMatrix:
    """The distinguished member c = 1/d^2, i.e. ((d+1)/d^3) I - (1/d^2) F."""
    _check_local_dim(d)
    return werner_gen(d, Fraction(1, d * d))


def singlet() -> DensityMatrix:
    """Two-qubit singlet projector (|01> - |10>)/sqrt(2); equals the d = 2
    flip family at its normalization boundary c = 1/2."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return make_density(np.outer(v, v.conj()), (2, 2))


def maximally_mixed(d1: int, d2: int) -> DensityMatrix:
    return make_density(np.eye(d1 * d2, dtype=complex) / (d1 * d2), (d1, d2))


def product_state(rho1: DensityMatrix, rho2: DensityMatrix) -> DensityMatrix:
    return make_density(
        np.kron(rho1.matrix, rho2.matrix), (rho1.dims.total, rho2.dims.total)
    )


def flip_expectation(params: WernerParams | tuple) -> float | Fraction:
    """Closed-form tr(F rho) = 1/d + c (1 - d^2); exact when c is rational.

    Negative exactly when the state is entangled.
    """
    if not isinstance(params, WernerParams):
        params = WernerParams(*params)
    d, c = params.d, params.c
    if isinstance(c, Rational):
        return Fraction(1, d) + Fraction(c) * (1 - d * d)
    return 1.0 / d + c * (1 - d * d)


def partial_transpose(m, dims: DimPair | tuple[int, int]) -> np.ndarray:
    """Transpose subsystem 2 of a square matrix on C^{d1} (x) C^{d2}."""
    dp = as_dim_pair(dims)
    a = hilbert.as_complex_matrix(m)
    if a.shape != (dp.total, dp.total):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dp}")
    t = a.reshape(dp.d1, dp.d2, dp.d1, dp.d2)
    return np.transpose(t, (0, 3, 2, 1)).reshape(dp.total, dp.total)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue after transposing subsystem 2.

    Diagnostic only: a negative value certifies entanglement; conclusive as a
    separability test just for dims (2,2) and (2,3).
    """
    return hilbert.psd_min_eigenvalue(partial_transpose(rho.matrix, rho.dims))


def collapse(rho: DensityMatrix, ops, outcome=None) -> DensityMatrix:
    """State after observing ``outcome``: R rho R^dagger / tr(rho R^dagger R).

    ``ops`` is either a single operator on the full space or any object with
    an ``operator(label)`` accessor (an operation family); in the latter case
    ``outcome`` selects the operator.
    """
    if isinstance(ops, np.ndarray) or (hasattr(ops, "ndim") and not hasattr(ops, "operator")):
        r = hilbert.as_complex_matrix(ops)
    else:
        r = hilbert.as_complex_matrix(ops.operator(outcome))
    if r.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {r.shape} does not match state")
    unnorm = r @ rho.matrix @ r.conj().T
    p = float(np.real(np.trace(unnorm)))
    if p <= PROB_FLOOR:
        raise ZeroProbabilityOutcome(p)
    return make_density(unnorm / p, rho.dims)


def collapsed_c_prime(d: int, c: float | Fraction) -> float | Fraction:
    """Flip coefficient of the (d-1)-dimensional state after collapsing both
    sides by a shared rank-(d-1) projector:  c' = c d^2 / ((d-1)(d - c d - 1)).

    Exact when ``c`` is rational.  Requires d >= 3.
    """
    if d < 3:
        raise ParameterOutOfRange("codimension-1 collapse parameter needs d >= 3")
    WernerParams(d, c)
    if isinstance(c, Rational):
        c = Fraction(c)
        return c * d * d / ((d - 1) * (d - c * d - 1))
    return c * d * d / ((d - 1) * (d - c * d - 1))


def cross_term_norms(d: int, proj) -> tuple[float, float, float]:
    """Operator norms of the three flip cross-blocks that a shared local
    projector P kills:  (P(x)P) F (P(x)Pc),  (P(x)Pc) F (P(x)P),  and
    (P(x)Pc) F (P(x)Pc), with Pc = I - P.

    All three vanish identically for exact projectors; the returned norms are
    a numerical attestation of that.
    """
    p = hilbert.as_complex_matrix(proj)
    if p.shape != (d, d):
        raise ValueError(f"projector shape {p.shape} does not match d={d}")
    if float(np.max(np.abs(p @ p - p))) > 1e-10:
        raise ValueError("input is not an orthogonal projector")
    pc = np.eye(d, dtype=complex) - p
    f = hilbert.flip_operator(d)
    pp = hilbert.kron(p, p)
    ppc = hilbert.kron(p, pc)
    norm = lambda m: float(np.linalg.norm(m, 2))
    return (norm(pp @ f @ ppc), norm(ppc @ f @ pp), norm(ppc @ f @ ppc))


def mixture(states: list[DensityMatrix], weights) -> DensityMatrix:
    """Convex combination of states sharing one tensor split."""
    if not states:
        raise ValueError("empty mixture")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(states),):
        raise ValueError("weights do not match states")
    if np.any(w < -1e-15) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    dims = states[0].dims
    for s in states[1:]:
        if s.dims != dims:
            raise ValueError("mixture components have mismatched dims")
    m = sum(wi * s.matrix for wi, s in zip(w, states))
    return make_density(m, dims)


def werner_fit(rho: DensityMatrix, tol: float = 1e-8) -> tuple[int, float] | None:
    """Recover (d, c) if ``rho`` lies in the flip family, else None.

    Reads the two flip-eigenspace eigenvalues: the symmetric eigenspace
    carries (1/d)(1/d + c) - c and the antisymmetric one (1/d)(1/d + c) + c,
    so c is half their difference.  The reconstruction is then checked
    entrywise.
    """
    if rho.dims.d1 != rho.dims.d2:
        return None
    d = rho.dims.d1
    f = hilbert.flip_operator(d)
    eye = np.eye(d * d, dtype=complex)
    sym = (eye + f) / 2.0
    anti = (eye - f) / 2.0
    lam_sym = float(np.real(np.trace(rho.matrix @ sym))) / (d * (d + 1) / 2)
    lam_anti = float(np.real(np.trace(rho.matrix @ anti))) / (d * (d - 1) / 2)
    c = (lam_anti - lam_sym) / 2.0
    hi = float(normalization_bound(d))
    c = min(max(c, 0.0), hi)
    candidate = (1.0 / d) * (1.0 / d + c) * eye - c * f
    if float(np.max(np.abs(candidate - rho.matrix))) > tol:
        return None
    return d, c


def state_to_json(rho: DensityMatrix) -> dict:
    return {
        "dims": [rho.dims.d1, rho.dims.d2],
        "matrix": hilbert.matrix_to_json(rho.matrix),
    }


def state_from_json(obj: dict) -> DensityMatrix:
    d1, d2 = (int(x) for x in hilbert.json_field(obj, "dims", "state"))
    matrix = hilbert.json_field(obj, "matrix", "state")
    return make_density(hilbert.matrix_from_json(matrix, "state matrix"), (d1, d2))
