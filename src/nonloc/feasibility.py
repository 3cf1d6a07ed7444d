"""Local-causal admissibility by linear programming, and nonlocality probes.

``lchv_feasibility`` decides whether the sequence statistics of a state over
a finite context admit a local causal deterministic mixture, by phase-1
linear programming over the (finitely many) per-side response strategies.
Feasible instances yield a verified model; infeasible ones a separating
affine functional.  ``bell_polytope_oracle`` is an independent check for the
two-setting/two-outcome single-time case, where positivity, no-signalling,
and the eight facet inequalities characterize the local set exactly.

CHSH utilities (``chsh_value``, ``chsh_maximize``) support designated 2-dim
subspaces so that post-selected (collapsed) states can be probed directly;
``chsh_maximize`` is the Horodecki closed form over all observables on those
subspaces, from the SVD of the 3x3 correlation matrix.  ``classify_evidence``
assembles the nonlocality-index evidence a state admits within these finite
probes.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import hilbert, hvmodels, measurement, states
from .hilbert import DimPair
from .hvmodels import (
    ATOM_BUDGET,
    BudgetExceededError,
    Context,
    DeterministicModel,
    FiniteSampleSpace,
)
from .measurement import Observable, OperationFamily
from .states import DensityMatrix, PROB_FLOOR

if TYPE_CHECKING:  # bound at run time by _load_scipy
    from scipy import sparse
    from scipy.optimize import linprog, nnls

log = logging.getLogger("nonloc.feasibility")

LP_TOL = 1e-9
STRATEGY_BUDGET = 10**6
TSIRELSON = 2.0 * np.sqrt(2.0)

_SCIPY_NAMES = ("sparse", "linprog", "nnls")


def _load_scipy() -> None:
    """Bind ``sparse``, ``linprog`` and ``nnls`` as module globals.

    scipy is imported by the first LP, not by ``import nonloc``: the model
    builders, ``verify_model`` and the CHSH probes need numpy only.  A name
    already set is kept, so a function put on ``feasibility.linprog`` before
    the first LP is the one the LP calls.
    """
    from scipy import sparse
    from scipy.optimize import linprog, nnls

    for name, value in zip(_SCIPY_NAMES, (sparse, linprog, nnls)):
        globals().setdefault(name, value)


def __getattr__(name: str):
    if name in _SCIPY_NAMES:
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LpNumericalFailure(RuntimeError):
    """LP landed between the decision thresholds; neither side is claimed."""

    def __init__(self, message: str, result: "FeasibilityResult | None" = None):
        self.result = result
        super().__init__(message)


def _realized_side_trees(families: tuple[OperationFamily, ...], k: int, budget: int):
    """Realized response trees (distribution-distinct strategies) of one side.

    Unlike full trees, these assign outcomes only along self-consistent
    pasts; two full trees with the same realized tree are indistinguishable
    in every sequence distribution, so the feasibility LP works on these.
    """
    by_name = {f.name: f for f in families}
    names = tuple(by_name)
    partial: list[dict[tuple[str, ...], tuple[str, ...]]] = [{}]
    for depth in range(1, k + 1):
        for choices in itertools.product(names, repeat=depth):
            new = []
            for tree in partial:
                past = tree[choices[:-1]] if depth > 1 else ()
                for outcome in by_name[choices[-1]].labels:
                    t = dict(tree)
                    t[choices] = past + (outcome,)
                    new.append(t)
            partial = new
            if len(partial) > budget:
                raise BudgetExceededError(
                    f"realized strategies exceed budget {budget}"
                )
    return partial


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """LP outcome: a certificate of local realizability or a separation."""

    status: str  # "feasible" | "infeasible" | "indeterminate"
    max_residual: float
    certificate: list | None = None  # [{"weight", "side1", "side2"}, ...]
    witness: dict | None = None
    model: DeterministicModel | None = None
    report: hvmodels.VerificationReport | None = None


def result_to_json(res: FeasibilityResult) -> dict:
    out = {
        "status": res.status,
        "max_residual": res.max_residual,
        "certificate": res.certificate or [],
    }
    if res.witness is not None:
        out["witness"] = res.witness
    return out


def _phase1_system(
    rho: DensityMatrix, lp_ctx: Context, trees1: list[dict], trees2: list[dict]
) -> tuple[sparse.csc_array, np.ndarray]:
    """Equality constraints [kron(S1, S2) | I | -I] x = b of the phase-1 LP.

    Rows are the outcome strings of every collected sequence, in the order of
    ``sequence_distribution``; ``b`` holds their probabilities, from
    ``hvmodels.QuantumTables``.  Columns are the strategy pairs (t1, t2) at
    t1 * n2 + t2, then the two slack blocks.  A pair's column holds exactly
    one 1 per sequence, at the row of the outcome string its two trees give,
    so all row indices come from one broadcast of the per-side outcome
    indices.  This is the LP's first use of scipy, so it calls ``_load_scipy``.
    """
    _load_scipy()
    quantum = hvmodels.QuantumTables(rho, lp_ctx)
    seqs = list(lp_ctx.collected_sequences())
    tables = [quantum.collected(c1, c2) for c1, c2 in seqs]
    b_vec = np.concatenate([t.ravel() for t in tables])
    side1, side2 = (
        hvmodels._response_indices(
            trees, lp_ctx.choice_sequences(side)[1:], lp_ctx.labels(side)
        )[0]
        for side, trees in ((1, trees1), (2, trees2))
    )
    idx1 = np.stack([side1[c1] for c1, _ in seqs])
    idx2 = np.stack([side2[c2] for _, c2 in seqs])
    width = np.array([t.shape[1] for t in tables])
    offset = np.cumsum([0] + [t.size for t in tables[:-1]])
    rows = (offset[:, None, None] + idx1[:, :, None] * width[:, None, None]
            + idx2[:, None, :])
    n_seq, n_cols, n_rows = len(seqs), len(trees1) * len(trees2), b_vec.size
    n_ones = n_cols * n_seq
    slack = np.arange(n_rows)
    indices = np.concatenate([rows.reshape(n_seq, n_cols).T.ravel(), slack, slack])
    indptr = np.concatenate(
        [np.arange(0, n_ones, n_seq), n_ones + np.arange(2 * n_rows + 1)]
    )
    data = np.concatenate([np.ones(n_ones + n_rows), -np.ones(n_rows)])
    shape = (n_rows, n_cols + 2 * n_rows)
    return sparse.csc_array((data, indices, indptr), shape=shape), b_vec


def _row_labels(lp_ctx: Context) -> list[str]:
    """Constraint-row labels ``side:family=outcome/...``, in row order."""
    out = []
    for c1, c2 in lp_ctx.collected_sequences():
        path = [(1, n) for n in c1] + [(2, n) for n in c2]
        for outs in itertools.product(*(lp_ctx.family(s, n).labels for s, n in path)):
            out.append("/".join(f"{s}:{n}={o}" for (s, n), o in zip(path, outs)))
    return out


def lchv_feasibility(
    rho: DensityMatrix,
    ctx: Context,
    k: int,
    lp_tol: float = LP_TOL,
    strategy_budget: int = STRATEGY_BUDGET,
    model_tol: float = 1e-8,
) -> FeasibilityResult:
    """Decide local-causal realizability of all length-<=k sequences.

    Phase-1 LP: minimize the total slack needed to express every sequence
    probability as a mixture of deterministic local strategies.  The
    constraint matrix is the sparse Kronecker product of the two sides'
    strategy indicator matrices, and the targets are the collected quantum
    tables (see ``_phase1_system``).

    An optimum at most ``lp_tol`` counts as feasible: the certificate is
    re-fit by nonnegative least squares on the LP's optimal face (the
    strategy pairs with positive weight or with reduced cost at most
    ``lp_tol``), and the resulting model verified.  An optimum of at least
    ``100 * lp_tol`` counts as infeasible, with the phase-1 dual reported as
    a separating functional whose separation must clear the same margin.
    Anything between raises ``LpNumericalFailure``.
    """
    if ctx.dims != rho.dims:
        raise ValueError("context dims do not match state dims")
    k1 = min(k, ctx.max_len1) if ctx.side1 else 0
    k2 = min(k, ctx.max_len2) if ctx.side2 else 0
    if k1 == k2 == 0:
        raise ValueError(
            f"no sequence to decide: k={k} and the context caps allow no step"
        )
    lp_ctx = Context(ctx.side1, ctx.side2, k1, k2)
    trees1 = _realized_side_trees(ctx.side1, k1, strategy_budget)
    trees2 = _realized_side_trees(ctx.side2, k2, strategy_budget)
    n1, n2 = len(trees1), len(trees2)
    if n1 * n2 > strategy_budget:
        raise BudgetExceededError(
            f"{n1} x {n2} realized strategy pairs exceed budget {strategy_budget}"
        )
    log.info("feasibility LP over %d x %d strategies", n1, n2)

    a_eq, b_vec = _phase1_system(rho, lp_ctx, trees1, trees2)  # loads scipy
    n_cols = n1 * n2
    n_rows = b_vec.size

    cost = np.concatenate([np.zeros(n_cols), np.ones(2 * n_rows)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_vec, bounds=(0, None), method="highs")
    if res.status != 0:
        raise LpNumericalFailure(f"LP solver failed: {res.message}")
    opt = float(res.fun)
    log.info("phase-1 optimum %.3e", opt)

    if opt <= lp_tol:
        face = np.flatnonzero(
            (res.x[:n_cols] > 0) | (res.lower.marginals[:n_cols] <= lp_tol)
        )
        a_face = a_eq[:, face].toarray()
        x_face, _ = nnls(a_face, b_vec)
        residual = float(np.max(np.abs(a_face @ x_face - b_vec)))
        if residual > lp_tol:
            raise LpNumericalFailure(
                f"certificate refinement residual {residual:.3e} above lp_tol",
                FeasibilityResult("indeterminate", residual),
            )
        kept = x_face > 1e-14
        support = face[kept]
        log.debug(
            "feasibility LP: %d rows, %d nonzeros, %d face columns, "
            "certificate support %d", n_rows, a_eq.nnz, face.size, support.size,
        )
        weights = x_face[kept]
        weights = weights / float(np.sum(weights))
        atoms = []
        responses = {}
        certificate = []
        for rank, idx in enumerate(support):
            i1, i2 = divmod(int(idx), n2)
            atom = f"s{rank}"
            atoms.append(atom)
            responses[atom] = {1: trees1[i1], 2: trees2[i2]}
            certificate.append(
                {
                    "weight": float(weights[rank]),
                    "side1": hvmodels._side_tree_to_json(trees1[i1]),
                    "side2": hvmodels._side_tree_to_json(trees2[i2]),
                }
            )
        space = FiniteSampleSpace(tuple(atoms), np.asarray(weights))
        model = DeterministicModel(space, "local_causal", lp_ctx, responses)
        report = hvmodels.verify_model(model, rho, tol=model_tol)
        if not report.passed:
            raise LpNumericalFailure(
                f"certificate model failed verification: {report.summary()}",
                FeasibilityResult("indeterminate", residual),
            )
        return FeasibilityResult(
            "feasible", residual, certificate=certificate, model=model,
            report=report,
        )

    if opt >= 100.0 * lp_tol:
        y = np.asarray(res.eqlin.marginals, dtype=float)
        if float(y @ b_vec) < 0:
            y = -y
        value_on_targets = float(y @ b_vec)
        max_on_strategies = float(np.max((a_eq.T @ y)[:n_cols]))
        separation = value_on_targets - max_on_strategies
        if separation < 100.0 * lp_tol:
            raise LpNumericalFailure(
                f"witness separation {separation:.3e} below the margin "
                f"{100 * lp_tol:.0e}",
                FeasibilityResult("indeterminate", opt),
            )
        witness = {
            "functional": {
                lab: float(coef) for lab, coef in zip(_row_labels(lp_ctx), y)
                if abs(coef) > 1e-12
            },
            "value_on_targets": value_on_targets,
            "max_on_strategies": max_on_strategies,
            "separation": separation,
        }
        return FeasibilityResult("infeasible", opt, witness=witness)

    raise LpNumericalFailure(
        f"phase-1 optimum {opt:.3e} in the indeterminate band "
        f"({lp_tol:.0e}, {100 * lp_tol:.0e})",
        FeasibilityResult("indeterminate", opt),
    )


# --- CHSH -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChshSettings:
    """Two involutions per side on designated 2-dim local subspaces."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self) -> None:
        for obs, t in ((self.a1, self.t1), (self.a2, self.t1),
                       (self.b1, self.t2), (self.b2, self.t2)):
            if hilbert.hermiticity_defect(obs) > 1e-10:
                raise ValueError("CHSH observables must be Hermitian")
            if float(np.max(np.abs(obs @ obs - t))) > 1e-10:
                raise ValueError(
                    "CHSH observables must square to the subspace projector"
                )


def _subspace_paulis(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(t)
    cols = [i for i, v in enumerate(vals) if v > 0.5]
    if len(cols) != 2:
        raise ValueError("designated subspace must have rank 2")
    e1, e2 = vecs[:, cols[1]], vecs[:, cols[0]]
    sz = np.outer(e1, e1.conj()) - np.outer(e2, e2.conj())
    sx = np.outer(e1, e2.conj()) + np.outer(e2, e1.conj())
    return sz, sx


def _postselect(rho: DensityMatrix, t1, t2) -> DensityMatrix:
    joint = hilbert.kron(t1, t2)
    if float(np.max(np.abs(joint - np.eye(joint.shape[0])))) < 1e-14:
        return rho
    return states.collapse(rho, joint)


def chsh_value(rho: DensityMatrix, settings: ChshSettings) -> float:
    """E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), post-selecting on the
    designated subspaces first when they are proper."""
    rho_p = _postselect(rho, settings.t1, settings.t2)

    def corr(a, b) -> float:
        return float(np.real(np.trace(rho_p.matrix @ hilbert.kron(a, b))))

    return (
        corr(settings.a1, settings.b1)
        + corr(settings.a1, settings.b2)
        + corr(settings.a2, settings.b1)
        - corr(settings.a2, settings.b2)
    )


def chsh_maximize(
    rho: DensityMatrix,
    t1: np.ndarray | None = None,
    t2: np.ndarray | None = None,
) -> tuple[float, ChshSettings]:
    """Largest CHSH sum over observables on the designated 2-dim subspaces.

    On each side the observables are n . (sz, sx, sy) for unit vectors n,
    with sz, sx from ``_subspace_paulis`` and sy = -i sz sx.  With T the real
    3x3 correlation matrix of the post-selected state over the two Pauli
    stacks and T = U S V^T, the optimum is a_i = u_i and
    b_{1,2} = cos(th) v_1 +- sin(th) v_2 with tan(th) = s_2 / s_1, worth
    2 sqrt(s_1^2 + s_2^2) = 2 sqrt(m_1 + m_2), m_1, m_2 the two largest
    eigenvalues of T^T T (R., P. and M. Horodecki, Phys. Lett. A 200, 340
    (1995)).
    """
    if t1 is None:
        t1 = np.eye(rho.dims.d1, dtype=complex)
    if t2 is None:
        t2 = np.eye(rho.dims.d2, dtype=complex)
    t1 = hilbert.as_complex_matrix(t1)
    t2 = hilbert.as_complex_matrix(t2)
    paulis = []
    for t in (t1, t2):
        sz, sx = _subspace_paulis(t)
        paulis.append(np.stack([sz, sx, -1j * sz @ sx]))
    rho_p = _postselect(rho, t1, t2)
    d1, d2 = rho.dims.d1, rho.dims.d2
    corr = np.real(np.einsum(
        "ijkl,aki,blj->ab", rho_p.matrix.reshape(d1, d2, d1, d2), *paulis
    ))
    u, s, vt = np.linalg.svd(corr)
    value = 2.0 * float(np.hypot(s[0], s[1]))
    if value > TSIRELSON + 1e-6:
        raise RuntimeError(
            f"CHSH optimizer exceeded the quantum bound: {value!r}"
        )
    th = np.arctan2(s[1], s[0])
    rot = np.array([[np.cos(th), np.sin(th)], [np.cos(th), -np.sin(th)]])
    a1, a2 = (u[:, :2].T @ paulis[0].reshape(3, -1)).reshape(2, d1, d1)
    b1, b2 = (rot @ vt[:2] @ paulis[1].reshape(3, -1)).reshape(2, d2, d2)
    return value, ChshSettings(a1, a2, b1, b2, t1, t2)


def correlation_table(
    rho: DensityMatrix,
    a_obs: tuple[np.ndarray, np.ndarray],
    b_obs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Joint table p[x, y, a, b] of two two-outcome observables per side.

    Outcome index 0 is the +1 eigenspace (descending eigenvalue order).  The
    table is one contraction tr(rho P_xa (x) Q_yb) over the two sides'
    (setting, outcome) projector stacks.
    """
    projs = []
    for mats in (a_obs, b_obs):
        side = []
        for mat in mats:
            spec = hilbert.spectral_decompose(mat)
            if len(spec.projectors) != 2:
                raise ValueError("correlation tables need two-outcome observables")
            side.append(spec.projectors)
        projs.append(np.asarray(side))
    d1, d2 = rho.dims.d1, rho.dims.d2
    return np.real(np.einsum(
        "ijkl,xaki,yblj->xyab", rho.matrix.reshape(d1, d2, d1, d2), *projs
    ))


_CHSH_SIGNS = [
    signs
    for signs in itertools.product((1.0, -1.0), repeat=4)
    if signs[0] * signs[1] * signs[2] * signs[3] < 0
]


def bell_polytope_oracle(table: np.ndarray, tol: float = 1e-9) -> str:
    """Exact membership test for the two-setting, two-outcome local set.

    Requires a valid joint distribution per setting pair; returns "inside"
    or "outside".  Positivity, no-signalling, and the eight facet
    symmetrizations at local bound 2 are a complete description here, so
    this serves as an independent oracle for the feasibility LP.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2, 2, 2):
        raise ValueError("table must have shape (2, 2, 2, 2)")
    if np.any(t < -1e-9):
        raise ValueError("table has negative entries")
    sums = t.sum(axis=(2, 3))
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("per-setting tables must each sum to 1")
    marg_a = t.sum(axis=3)  # (x, y, a)
    marg_b = t.sum(axis=2)  # (x, y, b)
    if np.max(np.abs(marg_a[:, 0, :] - marg_a[:, 1, :])) > tol:
        return "outside"
    if np.max(np.abs(marg_b[0, :, :] - marg_b[1, :, :])) > tol:
        return "outside"
    corr = t[..., 0, 0] + t[..., 1, 1] - t[..., 0, 1] - t[..., 1, 0]
    for s in _CHSH_SIGNS:
        val = (
            s[0] * corr[0, 0]
            + s[1] * corr[0, 1]
            + s[2] * corr[1, 0]
            + s[3] * corr[1, 1]
        )
        if val > 2.0 + tol:
            return "outside"
    return "inside"


# --- Evidence assembly ------------------------------------------------------


@dataclass(frozen=True)
class ClassificationRecord:
    """Nonlocality-index evidence for one state, relative to finite probes.

    ``n_index`` is evidence about the least sequence length N at which a
    local causal description fails: "1" (single-time probe already
    nonlocal), "<=2" (a one-step collapse exposes a single-time violation),
    "infinity" (a local causal model covers all finite sequences),
    "open" (entangled, but every such probe here is silent), or "unknown".
    All bounds are relative to the finite contexts actually examined.
    """

    dims: tuple[int, int]
    entangled: bool | None
    entanglement_method: str
    n_index: str
    tag: str
    witness: dict
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "entangled": self.entangled,
            "entanglement_method": self.entanglement_method,
            "n_index": self.n_index,
            "tag": self.tag,
            "witness": self.witness,
            "notes": list(self.notes),
            "context_relative": True,
        }


def _standard_qubit_context(max_len: int) -> Context:
    fams1 = (
        OperationFamily.ideal(measurement.pauli("z"), "mz"),
        OperationFamily.ideal(measurement.pauli("x"), "mx"),
    )
    fams2 = (
        OperationFamily.ideal(measurement.pauli("z"), "mz"),
        OperationFamily.ideal(measurement.pauli("x"), "mx"),
    )
    return Context(fams1, fams2, max_len, max_len)


def classify_evidence(rho: DensityMatrix, lp_tol: float = LP_TOL) -> ClassificationRecord:
    """Assemble entanglement and nonlocality-index evidence for a state.

    The decision ladder: a separable state gets an all-sequences local model
    by mixing product-state models; a single-time CHSH violation (optimized,
    then certified by LP infeasibility) gives index 1; for the flip family
    with d >= 3, a rank-2 post-selection followed by CHSH gives index <= 2;
    the d = 2 flip family in its entangled single-time-local window gets the
    all-sequences coupling; the remaining entangled flip-family window below
    the collapse-separability threshold is reported open.
    """
    dims = (rho.dims.d1, rho.dims.d2)
    notes: list[str] = []
    fit = states.werner_fit(rho)
    entangled: bool | None = None
    method = "none"
    if fit is not None:
        d, c = fit
        thr = float(states.entanglement_threshold(d))
        entangled = c > thr + 1e-12
        method = "flip_expectation"
        notes.append(f"flip-family fit: d={d}, c={c:.12g}")
    elif dims in ((2, 2), (2, 3)):
        pt = states.ppt_min_eigenvalue(rho)
        entangled = pt < -1e-10
        method = "ppt"
        notes.append(f"partial-transpose minimum eigenvalue {pt:.6g}")
    else:
        pt = states.ppt_min_eigenvalue(rho)
        if pt < -1e-10:
            entangled = True
            method = "ppt"
            notes.append(f"partial-transpose minimum eigenvalue {pt:.6g}")
        else:
            notes.append(
                "positive partial transpose is inconclusive in these dimensions"
            )

    if entangled is False:
        notes.append(
            "separable: an all-sequences local causal model exists by mixing "
            "product-state models"
        )
        return ClassificationRecord(
            dims, False, method, "infinity", "nonentangled", {}, tuple(notes)
        )

    if dims == (2, 2):
        value, settings = chsh_maximize(rho)
        if value > 2.0 + 1e-6:
            ctx = Context(
                (
                    OperationFamily.ideal(
                        Observable.from_matrix(settings.a1, "a1")
                    ),
                    OperationFamily.ideal(
                        Observable.from_matrix(settings.a2, "a2")
                    ),
                ),
                (
                    OperationFamily.ideal(
                        Observable.from_matrix(settings.b1, "b1")
                    ),
                    OperationFamily.ideal(
                        Observable.from_matrix(settings.b2, "b2")
                    ),
                ),
                1,
                1,
            )
            witness: dict = {"chsh": value}
            try:
                res = lchv_feasibility(rho, ctx, 1, lp_tol=lp_tol)
                witness["feasibility"] = result_to_json(res)
            except LpNumericalFailure as exc:
                witness["feasibility"] = {"status": "indeterminate",
                                          "detail": str(exc)}
            notes.append(
                f"optimized single-time CHSH {value:.9g} exceeds the local bound"
            )
            return ClassificationRecord(
                dims, True, method, "1", "single_time_nonlocal", witness,
                tuple(notes),
            )
        if fit is not None:
            d, c = fit
            if c <= float(states.lhv1_threshold(2)) + 1e-12:
                ctx1 = _standard_qubit_context(1)
                try:
                    res = lchv_feasibility(rho, ctx1, 1, lp_tol=lp_tol)
                except LpNumericalFailure as exc:
                    notes.append(f"single-time LP indeterminate: {exc}")
                    return ClassificationRecord(
                        dims, entangled, method, "unknown", "", {},
                        tuple(notes),
                    )
                if res.status == "feasible":
                    target = _standard_qubit_context(2)
                    coupled = hvmodels.couple_lchv_d2(res.model, target)
                    report = hvmodels.verify_model(coupled, rho, tol=1e-8)
                    if report.passed:
                        notes.append(
                            "single-time local model couples to an "
                            "all-sequences local causal model"
                        )
                        return ClassificationRecord(
                            dims, entangled, method, "infinity", "d2_flip_family",
                            {
                                "verification": report.summary(),
                                "n_note": "finite multi-copy index recorded "
                                          "elsewhere; not computed here",
                            },
                            tuple(notes),
                        )
                    notes.append(f"coupling failed verification: {report.summary()}")
        notes.append("no single-time violation found; no coupling applies")
        return ClassificationRecord(
            dims, entangled, method, "unknown", "", {}, tuple(notes)
        )

    if fit is not None and dims[0] == dims[1] and dims[0] >= 3:
        d, c = fit
        t_local = np.zeros((d, d), dtype=complex)
        t_local[0, 0] = 1.0
        t_local[1, 1] = 1.0
        value, settings = chsh_maximize(rho, t_local, t_local)
        if value > 2.0 + 1e-6:
            notes.append(
                f"rank-2 post-selection exposes CHSH {value:.9g} > 2, so no "
                "local causal model covers two-step sequences"
            )
            if c <= float(states.lhv1_threshold(d)) + 1e-12:
                notes.append(
                    "a single-time local model exists at this parameter, so "
                    "the index is exactly 2"
                )
            return ClassificationRecord(
                dims, entangled, method, "<=2", "hidden_nonlocality",
                {"chsh_after_collapse": value},
                tuple(notes),
            )
        if c <= float(states.collapse_separability_threshold(d)) + 1e-12:
            notes.append(
                "entangled, yet every rank-(d-1) collapse is separable and "
                "the rank-2 probe is silent; no classification follows here"
            )
            return ClassificationRecord(
                dims, entangled, method, "open", "d_ge_3_flip_family", {},
                tuple(notes),
            )
        notes.append("rank-2 collapse probe found no violation")
        return ClassificationRecord(
            dims, entangled, method, "unknown", "", {}, tuple(notes)
        )

    notes.append("no probe in this toolbox applies to this state")
    return ClassificationRecord(
        dims, entangled, method, "unknown", "", {}, tuple(notes)
    )
