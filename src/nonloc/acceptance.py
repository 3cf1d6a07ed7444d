"""Acceptance suite: the eleven reproduction checks, runnable as a table.

Each criterion function returns a CriterionResult; ``run_all`` executes them
in order and ``format_table`` renders one pass/fail line per criterion.
The CLI ``reproduce`` subcommand and tests/test_acceptance.py both call into
this module so the shipped checks and the test suite cannot drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import feasibility, hvmodels, measurement, states
from .feasibility import (
    LpNumericalFailure,
    bell_polytope_oracle,
    chsh_maximize,
    correlation_table,
    lchv_feasibility,
)
from .hvmodels import Context, DeterministicModel, FiniteSampleSpace, StochasticModel
from .measurement import Observable, OperationFamily
from .states import DensityMatrix, make_density, werner, werner_gen

SEED = 20260817

@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.number:2d}  {self.name:<24s}  {self.detail}  [{self.seconds:.2f}s]"


def _rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def _random_involution(rng: np.random.Generator) -> np.ndarray:
    n = rng.normal(size=3)
    n = n / np.linalg.norm(n)
    x, y, z = (measurement.pauli(a).matrix for a in "xyz")
    return n[0] * x + n[1] * y + n[2] * z


def _random_density(rng: np.random.Generator, d1: int, d2: int) -> DensityMatrix:
    n = d1 * d2
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return make_density(m / np.real(np.trace(m)), (d1, d2))


def _involution_context(
    side1_mats, side2_mats, max_len: int
) -> Context:
    fams1 = tuple(
        OperationFamily.ideal(Observable.from_matrix(m, f"a{i}"))
        for i, m in enumerate(side1_mats)
    )
    fams2 = tuple(
        OperationFamily.ideal(Observable.from_matrix(m, f"b{i}"))
        for i, m in enumerate(side2_mats)
    )
    return Context(fams1, fams2, max_len, max_len)


# --- criteria ---------------------------------------------------------------


def criterion_1() -> CriterionResult:
    """Flip-family normalization and positivity across the admissible range."""
    t0 = time.time()
    worst_tr = 0.0
    worst_eig = 0.0
    for d in range(2, 7):
        grid = np.linspace(0.0, float(states.normalization_bound(d)), 20)
        mats = [werner(d)] + [werner_gen(d, float(c)) for c in grid]
        for rho in mats:
            worst_tr = max(worst_tr, abs(float(np.real(np.trace(rho.matrix))) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho.matrix)[0]))
    ok = worst_tr <= 1e-12 and worst_eig >= -1e-10
    return CriterionResult(
        1, "normalization-positivity", ok,
        f"max |tr-1| {worst_tr:.2e}, min eig {worst_eig:.2e} over d=2..6, 20-pt grids",
        time.time() - t0,
    )


def criterion_2() -> CriterionResult:
    """Flip expectation changes sign exactly across the entanglement threshold."""
    t0 = time.time()
    eps = Fraction(1, 10**6)
    ok = True
    details = []
    for d in range(2, 7):
        thr = states.entanglement_threshold(d)
        lo = states.flip_expectation(states.WernerParams(d, thr - eps))
        hi = states.flip_expectation(states.WernerParams(d, thr + eps))
        if not (lo > 0 and hi < 0):
            ok = False
            details.append(f"d={d}: no sign flip ({lo}, {hi})")
    # d=2: PPT agrees with the threshold on a 50-point grid
    disagreements = 0
    thr2 = float(states.entanglement_threshold(2))
    for c in np.linspace(0.0, float(states.normalization_bound(2)), 50):
        predicted = c > thr2
        ppt = states.ppt_min_eigenvalue(werner_gen(2, float(c))) < -1e-10
        if predicted != ppt:
            disagreements += 1
    ok = ok and disagreements == 0
    msg = f"sign flips at 1/(d(d^2-1)) +- 1e-6 for d=2..6; PPT grid disagreements {disagreements}"
    if details:
        msg += "; " + "; ".join(details)
    return CriterionResult(2, "entanglement-threshold", ok, msg, time.time() - t0)


def criterion_3() -> CriterionResult:
    """Collapse algebra: vanishing cross terms and the c' closed form."""
    t0 = time.time()
    worst_cross = 0.0
    for d in (3, 4, 5):
        proj = np.zeros((d, d), dtype=complex)
        for i in range(d - 1):
            proj[i, i] = 1.0
        worst_cross = max(worst_cross, max(states.cross_term_norms(d, proj)))
    pairs = [
        (3, Fraction(1, 30)), (3, Fraction(1, 15)), (3, Fraction(1, 10)),
        (3, Fraction(1, 20)), (4, Fraction(1, 50)), (4, Fraction(1, 25)),
        (4, Fraction(1, 16)), (5, Fraction(1, 100)), (5, Fraction(1, 40)),
        (5, Fraction(1, 25)),
    ]
    worst_fit = 0.0
    for d, c in pairs:
        rho = werner_gen(d, c)
        t = np.zeros((d, d), dtype=complex)
        for i in range(d - 1):
            t[i, i] = 1.0
        collapsed = states.collapse(rho, np.kron(t, t))
        idx = [i * d + j for i in range(d - 1) for j in range(d - 1)]
        sub = collapsed.matrix[np.ix_(idx, idx)]
        sub_rho = make_density(sub, (d - 1, d - 1))
        fit = states.werner_fit(sub_rho)
        assert fit is not None and fit[0] == d - 1
        expected = float(states.collapsed_c_prime(d, c))
        worst_fit = max(worst_fit, abs(fit[1] - expected))
    exact = states.collapsed_c_prime(3, Fraction(1, 15))
    lands = exact == Fraction(1, 6) == states.entanglement_threshold(2)
    ok = worst_cross < 1e-12 and worst_fit <= 1e-10 and lands
    return CriterionResult(
        3, "collapse-algebra", ok,
        f"cross terms {worst_cross:.2e}, c' fit dev {worst_fit:.2e}, "
        f"c'(3,1/15) = {exact} exactly",
        time.time() - t0,
    )


def criterion_4() -> CriterionResult:
    """Collapse-revealed CHSH: violation for d = 5, 6 only."""
    t0 = time.time()
    vals = {}
    for d in range(2, 7):
        rho = werner(d)
        if d == 2:
            val, _ = chsh_maximize(rho)
        else:
            t = states.rank2_projector(d)
            val, _ = chsh_maximize(rho, t, t)
        vals[d] = val
    oracle = {d: 2.0 * np.sqrt(2.0) * d / (d + 2) for d in (3, 4, 5, 6)}
    oracle[2] = 2.0 * np.sqrt(2.0) * 0.5  # singlet weight 2c = 1/2 at c = 1/4
    ok = (
        all(vals[d] > 2.0 + 1e-3 for d in (5, 6))
        and all(vals[d] <= 2.0 + 1e-6 for d in (2, 3, 4))
        and all(abs(vals[d] - oracle[d]) <= 1e-6 for d in range(2, 7))
    )
    return CriterionResult(
        4, "collapse-chsh", ok,
        "chsh " + ", ".join(f"d={d}: {vals[d]:.9g}" for d in range(2, 7)),
        time.time() - t0,
    )


def criterion_5() -> CriterionResult:
    """LP feasibility agrees with the exact polytope oracle, 200 instances."""
    t0 = time.time()
    rng = _rng(5)
    disagreements = 0
    indeterminate = 0
    for _ in range(200):
        rho = _random_density(rng, 2, 2)
        a = [_random_involution(rng) for _ in range(2)]
        b = [_random_involution(rng) for _ in range(2)]
        ctx = _involution_context(a, b, 1)
        table = correlation_table(rho, (a[0], a[1]), (b[0], b[1]))
        verdict = bell_polytope_oracle(table)
        try:
            res = lchv_feasibility(rho, ctx, 1)
        except LpNumericalFailure:
            indeterminate += 1
            continue
        if (res.status == "feasible") != (verdict == "inside"):
            disagreements += 1
    # singlet at optimal settings must come out infeasible on both routes
    val, settings = chsh_maximize(states.singlet())
    ctx = _involution_context(
        [settings.a1, settings.a2], [settings.b1, settings.b2], 1
    )
    table = correlation_table(
        states.singlet(), (settings.a1, settings.a2), (settings.b1, settings.b2)
    )
    res = lchv_feasibility(states.singlet(), ctx, 1)
    singlet_ok = (
        res.status == "infeasible" and bell_polytope_oracle(table) == "outside"
    )
    ok = disagreements == 0 and indeterminate == 0 and singlet_ok
    return CriterionResult(
        5, "lp-vs-oracle", ok,
        f"200 instances: {disagreements} disagreements, {indeterminate} "
        f"indeterminate; singlet infeasible: {singlet_ok}",
        time.time() - t0,
    )


def criterion_6() -> CriterionResult:
    """Single-time local models exist across the c <= 1/4 window."""
    t0 = time.time()
    rng = _rng(6)
    contexts = []
    for _ in range(5):
        a = [_random_involution(rng) for _ in range(3)]
        b = [_random_involution(rng) for _ in range(3)]
        contexts.append(_involution_context(a, b, 1))
    failures = []
    worst = 0.0
    for c in (0.10, 0.20, 0.25):
        rho = werner_gen(2, c)
        for i, ctx in enumerate(contexts):
            res = lchv_feasibility(rho, ctx, 1)
            if res.status != "feasible":
                failures.append(f"c={c} ctx{i}: {res.status}")
                continue
            rep = hvmodels.verify_model(res.model, rho, tol=1e-8)
            worst = max(worst, rep.max_deviation)
            if not rep.passed:
                failures.append(f"c={c} ctx{i}: verify {rep.max_deviation:.2e}")
    ok = not failures
    msg = f"15 instances feasible, worst model deviation {worst:.2e}"
    if failures:
        msg = "; ".join(failures)
    return CriterionResult(6, "single-time-locality", ok, msg, time.time() - t0)


def criterion_7() -> CriterionResult:
    """Entangled d=2 states pass a full local-causal sequence check."""
    t0 = time.time()
    rng = _rng(7)
    z, x = (measurement.pauli(a).matrix for a in "zx")
    base = [
        ([z, x], [z, x]),
        ([_random_involution(rng) for _ in range(2)],
         [_random_involution(rng) for _ in range(2)]),
        ([_random_involution(rng) for _ in range(2)],
         [_random_involution(rng) for _ in range(2)]),
    ]
    failures = []
    worst = 0.0
    for c in (0.20, 0.25):
        rho = werner_gen(2, c)
        for i, (a, b) in enumerate(base):
            ctx1 = _involution_context(a, b, 1)
            ctx2 = _involution_context(a, b, 2)
            res = lchv_feasibility(rho, ctx1, 1)
            if res.status != "feasible":
                failures.append(f"c={c} ctx{i}: k=1 {res.status}")
                continue
            coupled = hvmodels.couple_lchv_d2(res.model, ctx2)
            rep = hvmodels.verify_model(coupled, rho, tol=1e-10)
            worst = max(worst, rep.max_deviation)
            if not rep.passed:
                failures.append(f"c={c} ctx{i}: verify {rep.max_deviation:.2e}")
    ok = not failures
    msg = (
        f"6 couplings verified at 1e-10, worst deviation {worst:.2e} "
        f"(entangled: c > 1/6)"
    )
    if failures:
        msg = "; ".join(failures)
    return CriterionResult(7, "d2-sequence-locality", ok, msg, time.time() - t0)


def criterion_8() -> CriterionResult:
    """Deterministic/stochastic equivalence round trips preserve statistics."""
    t0 = time.time()
    rng = _rng(8)
    worst = 0.0
    for case in range(10):
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        ml = int(rng.integers(1, 3))
        a = [_random_involution(rng) for _ in range(n1)]
        b = [_random_involution(rng) for _ in range(n2)]
        ctx = _involution_context(a, b, ml)
        parts = []
        for _ in range(2):
            r1 = _random_density(rng, 2, 1)
            r2 = _random_density(rng, 2, 1)
            parts.append(hvmodels.product_local_model(r1, r2, ctx))
        w = float(rng.uniform(0.2, 0.8))
        model = hvmodels.mix_models(parts, [w, 1.0 - w])
        st = hvmodels.deterministic_to_stochastic(model)
        back = hvmodels.stochastic_to_deterministic(st)
        for names1, names2 in ctx.collected_sequences():
            d0 = model.distribution_collected(names1, names2)
            d1 = st.distribution_collected(names1, names2)
            d2 = back.distribution_collected(names1, names2)
            keys = set(d0) | set(d1) | set(d2)
            for key in keys:
                worst = max(
                    worst,
                    abs(d0.get(key, 0.0) - d1.get(key, 0.0)),
                    abs(d0.get(key, 0.0) - d2.get(key, 0.0)),
                )
    # single-atom model with quantum per-side conditionals for werner(2)
    rho = werner(2)
    fz = OperationFamily.ideal(measurement.pauli("z"), "mz")
    fx = OperationFamily.ideal(measurement.pauli("x"), "mx")
    ctx = Context((fz, fx), (fz, fx), 1, 1)
    kernels: dict = {"a0": {1: {}, 2: {}}}
    for side in (1, 2):
        for fam in ctx.families(side):
            probs = {}
            for lab, op in zip(fam.labels, fam.operators):
                big = measurement.embed_local(op, side, rho.dims)
                probs[lab] = float(np.real(np.trace(rho.matrix @ big.conj().T @ big)))
            kernels["a0"][side][((fam.name,), ())] = probs
    single = StochasticModel(
        FiniteSampleSpace(("a0",), np.array([1.0])), ctx, kernels
    )
    det = hvmodels.stochastic_to_deterministic(single)
    pair_worst = 0.0
    for names1, names2 in ctx.collected_sequences():
        ds = single.distribution_collected(names1, names2)
        dd = det.distribution_collected(names1, names2)
        for key in set(ds) | set(dd):
            pair_worst = max(pair_worst, abs(ds.get(key, 0.0) - dd.get(key, 0.0)))
    ok = worst <= 1e-12 and pair_worst <= 1e-12
    return CriterionResult(
        8, "fine-equivalence", ok,
        f"10 round trips dev {worst:.2e}; quantum-kernel case dev {pair_worst:.2e}",
        time.time() - t0,
    )


def criterion_9() -> CriterionResult:
    """Commuting-POV extension reproduces quantum joint tables."""
    t0 = time.time()
    rng = _rng(9)
    rho = werner(2)
    worst = 0.0
    worst_norm = 0.0
    failures = []
    for case in range(5):
        base1 = _random_involution(rng)
        base2 = _random_involution(rng)
        t1 = rng.uniform(0.1, 0.9, size=2)
        t2 = rng.uniform(0.1, 0.9, size=2)
        tm1 = np.array([[t1[0], t1[1]], [1 - t1[0], 1 - t1[1]]])
        tm2 = np.array([[t2[0], t2[1]], [1 - t2[0], 1 - t2[1]]])
        obs1 = Observable.from_matrix(base1, "base1")
        obs2 = Observable.from_matrix(base2, "base2")
        povm1 = measurement.smeared_povm(obs1, tm1)
        povm2 = measurement.smeared_povm(obs2, tm2)
        ctx = Context(
            (OperationFamily.ideal(obs1),),
            (OperationFamily.ideal(obs2),),
            1, 1,
        )
        res = lchv_feasibility(rho, ctx, 1)
        if res.status != "feasible":
            failures.append(f"case {case}: base model {res.status}")
            continue
        ext = hvmodels.extend_commuting_povm(res.model, povm1, povm2)
        table = ext.distribution_collected(("M1",), ("M2",))
        for (l1, l2), p in table.items():
            op = np.kron(povm1.effect(l1), povm2.effect(l2))
            q = float(np.real(np.trace(rho.matrix @ op)))
            worst = max(worst, abs(p - q))
        for atom in ext.space.atoms:
            for side in (1, 2):
                for kern in ext.kernels[atom][side].values():
                    worst_norm = max(worst_norm, abs(sum(kern.values()) - 1.0))
    # a non-commuting pair is rejected with NotCommuting
    e1 = (np.eye(2, dtype=complex) + measurement.pauli("x").matrix) / 4.0
    e2 = (np.eye(2, dtype=complex) + measurement.pauli("z").matrix) / 4.0
    bad = measurement.Povm(
        ("a", "b", "c"), (e1, e2, np.eye(2, dtype=complex) - e1 - e2)
    )
    rejected = isinstance(measurement.commuting_decompose(bad), measurement.NotCommuting)
    fz = OperationFamily.ideal(measurement.pauli("z"), "mz")
    fx = OperationFamily.ideal(measurement.pauli("x"), "mx")
    res = lchv_feasibility(rho, Context((fz, fx), (fz, fx), 1, 1), 1)
    try:
        hvmodels.extend_commuting_povm(res.model, bad, bad)
        rejected = False
    except hvmodels.NotCommutingError:
        pass
    ok = not failures and worst <= 1e-10 and worst_norm <= 1e-14 and rejected
    msg = (
        f"5 extensions dev {worst:.2e}, kernel normalization {worst_norm:.2e}, "
        f"non-commuting rejected: {rejected}"
    )
    if failures:
        msg += "; " + "; ".join(failures)
    return CriterionResult(9, "commuting-pov-extension", ok, msg, time.time() - t0)


def criterion_10() -> CriterionResult:
    """Conditioned models match the collapsed state's statistics."""
    t0 = time.time()
    rng = _rng(10)
    worst = 0.0
    failures = []
    for case in range(10):
        a = [_random_involution(rng) for _ in range(2)]
        b = [_random_involution(rng) for _ in range(2)]
        ctx = _involution_context(a, b, 2)
        if case % 2 == 0:
            rho = _random_density(rng, 2, 2)
            model = hvmodels.trivial_causal_model(rho, ctx)
        else:
            r1a, r2a = _random_density(rng, 2, 1), _random_density(rng, 2, 1)
            r1b, r2b = _random_density(rng, 2, 1), _random_density(rng, 2, 1)
            w = float(rng.uniform(0.3, 0.7))
            model = hvmodels.mix_models(
                [
                    hvmodels.product_local_model(r1a, r2a, ctx),
                    hvmodels.product_local_model(r1b, r2b, ctx),
                ],
                [w, 1.0 - w],
            )
            rho = states.mixture(
                [states.product_state(r1a, r2a), states.product_state(r1b, r2b)],
                [w, 1.0 - w],
            )
        side = int(rng.integers(1, 3))
        fam = ctx.families(side)[int(rng.integers(0, 2))]
        # pick the more likely outcome so conditioning is well defined
        op0 = measurement.embed_local(fam.operators[0], side, rho.dims)
        p0 = float(np.real(np.trace(rho.matrix @ op0.conj().T @ op0)))
        label = fam.labels[0] if p0 >= 0.5 else fam.labels[1]
        conditioned = hvmodels.collapse_model(model, ((side, fam.name), label))
        op = measurement.embed_local(
            fam.operator(label), side, rho.dims
        )
        rho_c = states.collapse(rho, op)
        rep = hvmodels.verify_model(conditioned, rho_c, tol=1e-10)
        worst = max(worst, rep.max_deviation)
        if not rep.passed:
            failures.append(f"case {case}: {rep.max_deviation:.2e}")
    ok = not failures
    msg = f"10 conditioned models match collapsed states, worst dev {worst:.2e}"
    if failures:
        msg = "; ".join(failures)
    return CriterionResult(10, "collapse-compatibility", ok, msg, time.time() - t0)


def criterion_11() -> CriterionResult:
    """Evidence table: the four flagship classifications."""
    t0 = time.time()
    checks = []
    rec = feasibility.classify_evidence(states.singlet())
    checks.append(("singlet", rec.n_index == "1"))
    rec = feasibility.classify_evidence(werner(5))
    checks.append(("werner(5)", rec.n_index == "<=2"))
    rec = feasibility.classify_evidence(werner_gen(2, 0.2))
    checks.append(
        ("werner_gen(2,0.2)", rec.n_index == "infinity" and rec.tag == "d2_flip_family")
    )
    for c in (0.05, float(Fraction(1, 15))):
        rec = feasibility.classify_evidence(werner_gen(3, c))
        checks.append((f"werner_gen(3,{c:.4g})", rec.n_index == "open"))
    ok = all(flag for _, flag in checks)
    msg = ", ".join(f"{name}: {'ok' if flag else 'WRONG'}" for name, flag in checks)
    return CriterionResult(11, "classification-table", ok, msg, time.time() - t0)


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
)


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    selected = numbers or list(range(1, len(ALL_CRITERIA) + 1))
    return [ALL_CRITERIA[n - 1]() for n in selected]


def format_table(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
