import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from nonloc import acceptance, feasibility, hilbert, hvmodels, measurement, states
from nonloc.feasibility import (
    LP_TOL,
    ChshSettings,
    LpNumericalFailure,
    _phase1_system,
    _row_labels,
    _strategy_index,
    bell_polytope_oracle,
    chsh_maximize,
    chsh_value,
    classify_evidence,
    correlation_table,
    lchv_feasibility,
    result_to_json,
)
from nonloc.hvmodels import BudgetExceededError, Context
from nonloc.measurement import Observable, OperationFamily, pauli, smeared_povm
from nonloc.states import ZeroProbabilityOutcome

RT2 = np.sqrt(2.0)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)

MZ = OperationFamily.ideal(pauli("z"), "mz")
MX = OperationFamily.ideal(pauli("x"), "mx")
MY = OperationFamily.ideal(pauli("y"), "my")
# three- and two-outcome qutrit observables, and a smeared (non-ideal) x
Q3 = OperationFamily.ideal(
    Observable.from_matrix(np.diag([1.0, 0.0, -1.0]).astype(complex), "q3")
)
Q2 = OperationFamily.ideal(
    Observable.from_matrix(np.diag([1.0, -1.0, -1.0]).astype(complex), "q2")
)
SMEARED_X = OperationFamily.from_povm(
    smeared_povm(pauli("x"), np.array([[0.8, 0.3], [0.2, 0.7]])), "sx"
)


def qubit_pair_ctx(max_len: int) -> Context:
    return Context((MZ, MX), (MZ, MX), max_len, max_len)


def chsh_angle_ctx(max_len: int = 1) -> Context:
    """Measurement menu at the optimal singlet angles."""
    b_plus = (SZ + SX) / RT2
    b_minus = (SZ - SX) / RT2
    return Context(
        (MZ, MX),
        (
            OperationFamily.ideal(Observable.from_matrix(b_plus, "b1")),
            OperationFamily.ideal(Observable.from_matrix(b_minus, "b2")),
        ),
        max_len,
        max_len,
    )


def diag_product(p1: float, p2: float) -> states.DensityMatrix:
    a = np.diag([p1, 1 - p1]).astype(complex)
    b = np.diag([p2, 1 - p2]).astype(complex)
    return states.make_density(np.kron(a, b), (2, 2))


def side_index(families, k: int, budget: int = 10**6) -> dict:
    """The LP's strategy index arrays for ``families`` on side 1 with cap ``k``."""
    return _strategy_index(Context(families, (), k, 0), 1, budget)


def n_strategies(families, k: int) -> int:
    return len(side_index(families, k)[()])


def reference_side_trees(families, k: int) -> list[dict]:
    """Realized trees grown one choice sequence at a time, every outcome of
    the sequence's last family appended to every partial tree's response to
    its prefix (the enumeration the LP used before the mixed-radix digits)."""
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
    return partial


def lp_side_trees(lp_ctx: Context, side: int) -> list[dict]:
    cap = lp_ctx.max_len1 if side == 1 else lp_ctx.max_len2
    return reference_side_trees(lp_ctx.families(side), cap)


def assert_matches_reference_trees(lp_ctx: Context, side: int) -> None:
    """``_strategy_index`` holds, in tree order, each reference tree's
    response to every choice sequence as its index among the sequence's
    outcome strings in label-product order (zeros at ``()``)."""
    trees = lp_side_trees(lp_ctx, side)
    labels = lp_ctx.labels(side)
    out = {(): np.zeros(len(trees), dtype=np.intp)}
    for choices in lp_ctx.choice_sequences(side)[1:]:
        strings = list(itertools.product(*(labels[n] for n in choices)))
        out[choices] = np.array([strings.index(t[choices]) for t in trees])
    index = _strategy_index(lp_ctx, side, 10**6)
    assert list(index) == list(out)
    for choices, want in out.items():
        assert np.array_equal(index[choices], want)


class TestStrategyEnumeration:
    def test_single_family_depth_one(self):
        assert n_strategies((MZ,), 1) == 2

    def test_two_families_depth_one(self):
        assert n_strategies((MZ, MX), 1) == 4

    def test_realized_count_is_product_over_choice_sequences(self):
        # one response per own-side choice sequence, whatever the past
        for fams, k, want in (((MZ, MX), 2, 2**6), ((MZ,), 3, 2**3),
                              ((Q3, Q2), 2, 3 * 2 * 3 * 2 * 3 * 2)):
            assert n_strategies(fams, k) == want

    def test_depth_two_exceeds_budget(self):
        with pytest.raises(BudgetExceededError):
            side_index((MZ, MX), 2, 63)
        assert len(side_index((MZ, MX), 2, 64)[()]) == 64

    @pytest.mark.parametrize("k", [2, 8])
    def test_over_budget_side_raises_before_enumerating(self, k):
        # z/x/y has 2**12 = 4096 strategies at k=2, and 2**9840 at k=8,
        # more than any array could hold: the count is checked first
        with pytest.raises(BudgetExceededError,
                           match=r"^realized response trees exceed budget 1000$"):
            side_index((MZ, MX, MY), k, 10**3)

    def test_single_family_depth_two(self):
        # the second z outcome repeats the first: 8 full trees, 4 realized,
        # answering ("+1", "+1"), ("+1", "-1"), ("-1", "+1"), ("-1", "-1")
        assert side_index((MZ,), 2)[("mz", "mz")].tolist() == [0, 1, 2, 3]

    def test_realized_trees_collapse_duplicates(self):
        index = side_index((MZ, MX), 2)
        responses = np.stack([idx for c, idx in index.items() if c], axis=1)
        assert len(np.unique(responses, axis=0)) == 64

    def test_realized_is_prefix_consistent(self):
        index = side_index((MZ, MX), 2)
        assert len(index) == 1 + 6
        for choices, idx in index.items():
            if choices:
                assert idx.dtype == np.intp
                assert np.array_equal(idx // 2, index[choices[:-1]])

    @pytest.mark.parametrize("families", [(MZ,), (MZ, MX), (Q3, Q2)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_walker_matches_reference_order(self, families, k):
        assert_matches_reference_trees(Context(families, (), k, 0), 1)


def reference_system(rho, lp_ctx: Context, trees1, trees2):
    """Dense full phase-1 system built row by row from tree masks and
    ``sequence_distribution``, one row per outcome string of every collected
    sequence: (strategy columns, targets, row labels, Collins–Gisin rows).
    A row is a Collins–Gisin row when on each side with steps its last
    outcome is not the last label of that side's last family."""
    rows, targets, labels, events = [], [], [], []
    for c1, c2 in lp_ctx.collected_sequences():
        path = [(1, n) for n in c1] + [(2, n) for n in c2]
        steps = [(s, lp_ctx.family(s, n)) for s, n in path]
        for outs, prob in measurement.sequence_distribution(rho, steps).items():
            o1, o2 = outs[:len(c1)], outs[len(c1):]
            mask1 = np.array([not c1 or t[c1] == o1 for t in trees1], dtype=float)
            mask2 = np.array([not c2 or t[c2] == o2 for t in trees2], dtype=float)
            rows.append(np.outer(mask1, mask2).ravel())
            targets.append(prob)
            labels.append("/".join(f"{s}:{n}={o}" for (s, n), o in zip(path, outs)))
            events.append(all(
                not c or o[-1] != lp_ctx.family(side, c[-1]).labels[-1]
                for side, c, o in ((1, c1, o1), (2, c2, o2))
            ))
    return np.array(rows), np.array(targets), labels, np.array(events)


def reference_verdict(rho, lp_ctx: Context) -> str:
    """Phase-1 verdict of the full reference system [A | I | -I] x = b."""
    from scipy.optimize import linprog

    trees1, trees2 = (lp_side_trees(lp_ctx, side) for side in (1, 2))
    a_ref, b_ref, _, _ = reference_system(rho, lp_ctx, trees1, trees2)
    n_rows = b_ref.size
    eye = np.eye(n_rows)
    cost = np.concatenate([np.zeros(a_ref.shape[1]), np.ones(2 * n_rows)])
    res = linprog(cost, A_eq=np.hstack([a_ref, eye, -eye]), b_eq=b_ref,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    if res.fun <= LP_TOL:
        return "feasible"
    assert res.fun >= 100 * LP_TOL
    return "infeasible"


ASSEMBLY_CASES = {
    "zx-k1": (Context((MZ, MX), (MZ, MX), 1, 1), (2, 2)),
    "zx-k2": (Context((MZ, MX), (MZ, MX), 2, 2), (2, 2)),
    "caps-2-1": (Context((MZ, MX), (MZ, MX), 2, 1), (2, 2)),
    "qutrit": (Context((Q3, Q2), (Q3,), 2, 1), (3, 3)),
    "povm": (Context((MZ, SMEARED_X), (SMEARED_X, MX), 2, 2), (2, 2)),
    "empty-side": (Context((MZ, MX), (), 2, 0), (2, 1)),
}


class TestPhase1System:
    @pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
    @pytest.mark.parametrize("side", [1, 2])
    def test_strategies_match_reference_trees(self, case, side):
        assert_matches_reference_trees(ASSEMBLY_CASES[case][0], side)

    @staticmethod
    def systems(case):
        """(LP system, full reference system) of one assembly case."""
        lp_ctx, dims = ASSEMBLY_CASES[case]
        rho = acceptance._random_density(np.random.default_rng(len(case)), *dims)
        side1, side2 = (_strategy_index(lp_ctx, side, 10**6) for side in (1, 2))
        system = _phase1_system(hvmodels.QuantumTables(rho, lp_ctx), side1, side2)
        trees1, trees2 = (lp_side_trees(lp_ctx, side) for side in (1, 2))
        return system, reference_system(rho, lp_ctx, trees1, trees2)

    @pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
    def test_matches_row_by_row_reference(self, case):
        (a_eq, b_vec), (a_ref, b_ref, labels, events) = self.systems(case)
        n_cols = a_ref.shape[1]
        # the normalization row first, then the reference's Collins–Gisin rows
        a_cg = np.vstack([np.ones(n_cols), a_ref[events]])
        b_cg = np.concatenate([[1.0], b_ref[events]])
        n_rows = b_cg.size
        assert a_eq.shape == (n_rows, n_cols + 2 * n_rows)
        assert np.array_equal(a_eq[:, :n_cols].toarray(), a_cg)
        eye = np.eye(n_rows)
        assert np.array_equal(a_eq[:, n_cols:].toarray(), np.hstack([eye, -eye]))
        assert np.max(np.abs(b_vec - b_cg)) <= 1e-12
        lp_ctx = ASSEMBLY_CASES[case][0]
        assert _row_labels(lp_ctx) == ["normalization"] + [
            lab for lab, kept in zip(labels, events) if kept
        ]

    @pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
    def test_row_count_is_full_rank(self, case):
        (a_eq, b_vec), (a_ref, _, _, _) = self.systems(case)
        n_cols = a_ref.shape[1]
        # the kept rows are independent and span every row of the full system
        assert np.linalg.matrix_rank(a_eq[:, :n_cols].toarray()) == b_vec.size
        assert np.linalg.matrix_rank(a_ref) == b_vec.size


def random_involution_ctx(c: float) -> Context:
    """Two random involutions per side, caps 2, seeded by ``c``."""
    rng = np.random.default_rng(int(100 * c))
    mats = [acceptance._random_involution(rng) for _ in range(4)]
    return acceptance._involution_context(mats[:2], mats[2:], 2)


@pytest.fixture
def refit_cols(monkeypatch):
    """The column count of every ``nnls`` refit, in call order."""
    widths = []
    real_nnls = feasibility.nnls

    def recording_nnls(a, b):
        widths.append(a.shape[1])
        return real_nnls(a, b)

    monkeypatch.setattr(feasibility, "nnls", recording_nnls)
    return widths


class TestCertificateRefit:
    @pytest.mark.parametrize("c", [0.1, 0.2, 0.25])
    def test_werner_random_settings_depth_two(self, c, refit_cols):
        res = lchv_feasibility(states.werner_gen(2, c), random_involution_ctx(c), 2)
        assert res.status == "feasible"
        assert res.max_residual <= LP_TOL
        assert res.report is not None and res.report.passed
        # one refit, on the HiGHS basis: at most one column per Collins–Gisin row
        assert len(refit_cols) == 1 and len(res.certificate) <= refit_cols[0] <= 121

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.25])
    def test_face_fallback_when_basis_refit_fails(self, c, refit_cols, monkeypatch):
        real_linprog = feasibility.linprog

        def dropped_largest(*args, **kwargs):
            res = real_linprog(*args, **kwargs)
            res.x[np.argmax(res.x[:64 * 64])] = 0.0  # the strategy columns come first
            return res

        monkeypatch.setattr(feasibility, "linprog", dropped_largest)
        res = lchv_feasibility(states.werner_gen(2, c), random_involution_ctx(c), 2)
        assert res.status == "feasible"
        assert res.report is not None and res.report.passed
        # the basis lost its heaviest column and misses; the face still holds it
        assert len(refit_cols) == 2 and refit_cols[0] <= 121 < refit_cols[1]

    def test_debug_line_reports_sizes(self, caplog):
        with caplog.at_level("DEBUG", logger="nonloc.feasibility"):
            res = lchv_feasibility(states.werner_gen(2, 0.2), qubit_pair_ctx(1), 1)
        lines = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(lines) == 1
        # 3 x 3 events: the normalization row holds 16 strategy ones, each of
        # the 4 one-sided rows 8 and the 4 two-sided rows 4; 18 slack ones
        found = re.fullmatch(
            r"feasibility LP: 9 rows, 82 nonzeros, refit on (\d+) basis columns, "
            r"certificate support (\d+)", lines[0]
        )
        assert found is not None
        width, support = map(int, found.groups())
        assert support == len(res.certificate) <= width <= 9


class TestFullSystemVerdict:
    """The Collins–Gisin LP decides as the LP over every outcome string."""

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.25])
    def test_werner_random_settings_depth_two(self, c):
        ctx, rho = random_involution_ctx(c), states.werner_gen(2, c)
        assert lchv_feasibility(rho, ctx, 2).status == reference_verdict(rho, ctx)

    @pytest.mark.parametrize("k", [1, 2])
    def test_singlet(self, k):
        ctx = chsh_angle_ctx(k)
        res = lchv_feasibility(states.singlet(), ctx, k)
        assert res.status == reference_verdict(states.singlet(), ctx) == "infeasible"


class TestWitnessMargin:
    def test_zeroed_duals_are_indeterminate(self, monkeypatch):
        real_linprog = feasibility.linprog

        def zeroed_duals(*args, **kwargs):
            res = real_linprog(*args, **kwargs)
            res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)
            return res

        monkeypatch.setattr(feasibility, "linprog", zeroed_duals)
        with pytest.raises(LpNumericalFailure, match="witness separation") as exc:
            lchv_feasibility(states.singlet(), chsh_angle_ctx(1), 1)
        assert exc.value.result.status == "indeterminate"
        assert exc.value.result.max_residual >= 100 * LP_TOL


# Run in a fresh interpreter, so that no other test has loaded scipy yet.
COLD_START = """
import sys
import nonloc
from nonloc import feasibility, hvmodels, measurement, states

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_loaded(), scipy_loaded()
mz = measurement.OperationFamily.ideal(measurement.pauli("z"), "mz")
mx = measurement.OperationFamily.ideal(measurement.pauli("x"), "mx")
ctx = hvmodels.Context((mz, mx), (mz, mx), 1, 1)
rho = states.werner_gen(2, 0.2)
assert hvmodels.verify_model(hvmodels.trivial_causal_model(rho, ctx), rho).passed
feasibility.chsh_maximize(states.singlet())
assert not scipy_loaded(), scipy_loaded()
assert feasibility.lchv_feasibility(rho, ctx, 1).status == "feasible"
assert "scipy.optimize" in sys.modules and "scipy.sparse" in sys.modules
print("ok")
"""


class TestScipyOnFirstLp:
    def test_import_and_models_leave_scipy_unloaded(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
        proc = subprocess.run([sys.executable, "-c", COLD_START],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_function_set_before_first_lp_is_called(self, monkeypatch):
        import scipy.optimize

        names = vars(feasibility)
        for name in ("sparse", "linprog", "nnls"):  # as before the first LP
            monkeypatch.delitem(names, name, raising=False)
        calls = []

        def recording_linprog(*args, **kwargs):
            calls.append(kwargs["method"])
            return scipy.optimize.linprog(*args, **kwargs)

        monkeypatch.setitem(names, "linprog", recording_linprog)
        res = lchv_feasibility(states.werner_gen(2, 0.2), qubit_pair_ctx(1), 1)
        assert res.status == "feasible" and calls == ["highs"]
        assert feasibility.linprog is recording_linprog
        assert feasibility.nnls is scipy.optimize.nnls

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'lingrog'"):
            feasibility.lingrog


class TestLchvFeasibility:
    def test_product_state_feasible(self):
        res = lchv_feasibility(diag_product(0.7, 0.6), qubit_pair_ctx(1), 1)
        assert res.status == "feasible"
        assert res.max_residual < 1e-9
        assert res.certificate
        assert res.report is not None and res.report.passed
        assert abs(sum(e["weight"] for e in res.certificate) - 1.0) < 1e-9

    def test_werner_inside_single_time_window(self):
        res = lchv_feasibility(states.werner_gen(2, 0.2), qubit_pair_ctx(1), 1)
        assert res.status == "feasible"
        assert res.model is not None
        assert res.model.shape == "local_causal"

    def test_singlet_infeasible_with_chsh_witness(self):
        res = lchv_feasibility(states.singlet(), chsh_angle_ctx(1), 1)
        assert res.status == "infeasible"
        assert res.witness is not None
        # dual separation reproduces the CHSH gap in Collins–Gisin form:
        # CHSH = 4 I + 2 for the functional I over events, so the gap of
        # 2*sqrt(2) - 2 becomes (sqrt(2) - 1) / 2
        assert res.witness["separation"] == pytest.approx(
            (RT2 - 1.0) / 2.0, abs=1e-6
        )
        assert res.witness["value_on_targets"] > res.witness["max_on_strategies"]

    def test_infeasibility_is_monotone_in_depth(self):
        res = lchv_feasibility(states.singlet(), chsh_angle_ctx(2), 2)
        assert res.status == "infeasible"

    def test_werner_depth_two_feasible(self):
        res = lchv_feasibility(states.werner_gen(2, 0.2), qubit_pair_ctx(2), 2)
        assert res.status == "feasible"
        assert res.report is not None and res.report.passed

    def test_depth_clamps_to_context_bounds(self):
        # k larger than the caps only probes what the context allows
        res = lchv_feasibility(diag_product(0.7, 0.6), qubit_pair_ctx(1), 3)
        assert res.status == "feasible"

    def test_no_step_is_an_input_error(self):
        with pytest.raises(ValueError, match="no sequence to decide"):
            lchv_feasibility(diag_product(0.7, 0.6), qubit_pair_ctx(1), 0)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            lchv_feasibility(
                states.singlet(), qubit_pair_ctx(2), 2, strategy_budget=10
            )

    def test_pair_budget_checked_after_sides(self, monkeypatch):
        # each side's 64 strategies fit, their 4096 pairs do not; no LP is set up
        def no_system(*args):
            raise AssertionError("phase-1 system built past the pair budget")

        monkeypatch.setattr(feasibility, "_phase1_system", no_system)
        with pytest.raises(BudgetExceededError,
                           match=r"^64 x 64 realized strategy pairs exceed budget 4095$"):
            lchv_feasibility(
                states.singlet(), qubit_pair_ctx(2), 2, strategy_budget=4095
            )

    def test_result_json_keys(self):
        res = lchv_feasibility(states.singlet(), chsh_angle_ctx(1), 1)
        obj = result_to_json(res)
        assert obj["status"] == "infeasible"
        assert set(obj) >= {"status", "max_residual", "certificate", "witness"}
        assert set(obj["witness"]) >= {
            "functional", "value_on_targets", "max_on_strategies", "separation"
        }


class TestChsh:
    def spec_settings(self) -> ChshSettings:
        eye = np.eye(2, dtype=complex)
        return ChshSettings(
            SZ, SX, (SZ + SX) / RT2, (SZ - SX) / RT2, eye, eye
        )

    def test_singlet_at_standard_angles(self):
        # signed sum at these angles is -2*sqrt(2); magnitude is what the
        # optimizer reports after absorbing signs into the settings
        val = chsh_value(states.singlet(), self.spec_settings())
        assert val == pytest.approx(-2.0 * RT2, abs=1e-12)

    def test_settings_validation(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            ChshSettings(0.5 * SZ, SX, SZ, SX, eye, eye)
        skew = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            ChshSettings(skew, SX, SZ, SX, eye, eye)

    def test_maximize_singlet_hits_tsirelson(self):
        value, settings = chsh_maximize(states.singlet())
        assert value == pytest.approx(2.0 * RT2, abs=1e-6)
        assert chsh_value(states.singlet(), settings) == pytest.approx(
            value, abs=1e-10
        )

    def test_maximize_flip_family_linear_in_weight(self):
        for c in (0.25, 0.35, 0.45):
            value, _ = chsh_maximize(states.werner_gen(2, c))
            assert value == pytest.approx(2.0 * RT2 * 2.0 * c, abs=1e-6)

    def test_product_states_stay_local(self):
        value, _ = chsh_maximize(diag_product(0.7, 0.6))
        assert value <= 2.0 + 1e-9

    def test_rank2_collapse_values(self):
        # post-selected flip states: violation first appears at d = 5
        for d, want in ((3, 6.0 / 5.0), (4, 8.0 / 6.0), (5, 10.0 / 7.0),
                        (6, 12.0 / 8.0)):
            t = np.zeros((d, d), dtype=complex)
            t[0, 0] = t[1, 1] = 1.0
            value, _ = chsh_maximize(states.werner(d), t, t)
            assert value == pytest.approx(RT2 * want, abs=1e-6)
        t5 = np.zeros((5, 5), dtype=complex)
        t5[0, 0] = t5[1, 1] = 1.0
        assert chsh_maximize(states.werner(5), t5, t5)[0] > 2.0 + 1e-3
        t4 = np.zeros((4, 4), dtype=complex)
        t4[0, 0] = t4[1, 1] = 1.0
        assert chsh_maximize(states.werner(4), t4, t4)[0] < 2.0

    def test_orthogonal_postselection_rejected(self):
        vec = np.zeros(9, dtype=complex)
        vec[8] = 1.0  # |2,2> lives outside the probed block
        rho = states.make_density(np.outer(vec, vec.conj()), (3, 3))
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = t[1, 1] = 1.0
        with pytest.raises(ZeroProbabilityOutcome):
            chsh_maximize(rho, t, t)

    def test_rank_requirement(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = 1.0
        with pytest.raises(ValueError):
            chsh_maximize(states.werner(3), t, t)


PAULIS = (SX, np.array([[0, -1j], [1j, 0]]), SZ)


def horodecki_value(rho: states.DensityMatrix) -> float:
    """2 sqrt(m1 + m2) of ``rho`` post-selected on the top-left 2x2 block of
    each side, from T[i, j] = tr(rho' s_i (x) s_j) by ``np.kron`` and traces."""
    d = rho.dims.d1
    block = np.zeros((d, d))
    block[0, 0] = block[1, 1] = 1.0
    embedded = []
    for s in PAULIS:
        e = np.zeros((d, d), dtype=complex)
        e[:2, :2] = s
        embedded.append(e)
    pp = np.kron(block, block)
    post = pp @ rho.matrix @ pp
    post = post / np.real(np.trace(post))
    t = np.array([[np.real(np.trace(post @ np.kron(a, b))) for b in embedded]
                  for a in embedded])
    m = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * float(np.sqrt(m[-1] + m[-2]))


def random_complex_state(rng) -> states.DensityMatrix:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return states.make_density(m / np.real(np.trace(m)), (2, 2))


class TestChshClosedForm:
    def test_complex_maximally_entangled_state_is_index_one(self):
        # (|00> + i|11>)/sqrt(2) has no optimum among real z-x observables
        v = np.array([1.0, 0.0, 0.0, 1.0j]) / RT2
        rec = classify_evidence(states.make_density(np.outer(v, v.conj()), (2, 2)))
        assert rec.n_index == "1"
        assert rec.witness["chsh"] == pytest.approx(2.0 * RT2, abs=1e-9)
        assert rec.witness["feasibility"]["status"] == "infeasible"

    def check_closed_form(self, rho, t=None):
        value, settings = chsh_maximize(rho, t, t)
        assert value == pytest.approx(horodecki_value(rho), abs=1e-9)
        assert chsh_value(rho, settings) == pytest.approx(value, abs=1e-9)
        assert value <= 2.0 * RT2 + 1e-12

    def test_random_complex_states(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            self.check_closed_form(random_complex_state(rng))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_rank2_postselected_flip_family(self, d):
        t = np.zeros((d, d), dtype=complex)
        t[0, 0] = t[1, 1] = 1.0
        hi = float(states.normalization_bound(d))
        for c in (0.0, hi / 3, float(states.lhv1_threshold(d)), hi):
            self.check_closed_form(states.werner_gen(d, c), t)


def random_two_outcome(rng, d: int) -> np.ndarray:
    """A random observable with eigenvalues +1 and -1, each at least once."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    plus = int(rng.integers(1, d))
    return u @ np.diag([1.0] * plus + [-1.0] * (d - plus)) @ u.conj().T


def trace_loop_table(rho, a_obs, b_obs) -> np.ndarray:
    """Reference for ``correlation_table``: p[x, y, a, b] one trace at a time."""
    projs = [[hilbert.spectral_decompose(m).projectors for m in obs]
             for obs in (a_obs, b_obs)]
    table = np.empty((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        op = hilbert.kron(projs[0][x][a], projs[1][y][b])
        table[x, y, a, b] = float(np.real(np.trace(rho.matrix @ op)))
    return table


class TestBellPolytopeOracle:
    def singlet_table(self) -> np.ndarray:
        return correlation_table(
            states.singlet(), (SZ, SX), ((SZ + SX) / RT2, (SZ - SX) / RT2)
        )

    def test_uniform_inside(self):
        assert bell_polytope_oracle(np.full((2, 2, 2, 2), 0.25)) == "inside"

    def test_deterministic_inside(self):
        t = np.zeros((2, 2, 2, 2))
        t[:, :, 0, 1] = 1.0
        assert bell_polytope_oracle(t) == "inside"

    def test_singlet_at_optimal_angles_outside(self):
        assert bell_polytope_oracle(self.singlet_table()) == "outside"

    def test_singlet_at_aligned_angles_inside(self):
        table = correlation_table(states.singlet(), (SZ, SX), (SZ, SX))
        assert bell_polytope_oracle(table) == "inside"

    def test_pr_box_outside(self):
        t = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        if (a + b) % 2 == (x * y):
                            t[x, y, a, b] = 0.5
        assert bell_polytope_oracle(t) == "outside"

    def test_signalling_outside(self):
        t = np.zeros((2, 2, 2, 2))
        t[:, 0, 0, 0] = 1.0  # side-1 outcome tracks side-2 setting
        t[:, 1, 1, 0] = 1.0
        assert bell_polytope_oracle(t) == "outside"

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            bell_polytope_oracle(np.full((2, 2, 2, 2), 0.3))
        bad = np.full((2, 2, 2, 2), 0.25)
        bad[0, 0, 0, 0] = -0.25
        bad[0, 0, 1, 1] = 0.75
        with pytest.raises(ValueError):
            bell_polytope_oracle(bad)
        with pytest.raises(ValueError):
            bell_polytope_oracle(np.full((2, 2, 2), 0.25))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_correlation_table_matches_trace_loop(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + dims[0])
        d1, d2 = dims
        g = rng.normal(size=(d1 * d2,) * 2) + 1j * rng.normal(size=(d1 * d2,) * 2)
        rho = states.make_density(g @ g.conj().T / np.trace(g @ g.conj().T), dims)
        a_obs, b_obs = (
            tuple(random_two_outcome(rng, d) for _ in range(2)) for d in dims
        )
        table = correlation_table(rho, a_obs, b_obs)
        assert table.shape == (2, 2, 2, 2)
        assert np.max(np.abs(table - trace_loop_table(rho, a_obs, b_obs))) <= 1e-12

    def test_correlation_table_requires_two_outcomes(self):
        with pytest.raises(ValueError):
            correlation_table(
                states.werner(3),
                (np.diag([1.0, 0.0, -1.0]).astype(complex),) * 2,
                (np.diag([1.0, 0.0, -1.0]).astype(complex),) * 2,
            )

    def test_agrees_with_lp_on_flip_states(self):
        b1 = (SZ + SX) / RT2
        b2 = (SZ - SX) / RT2
        for c in (0.1, 0.3, 0.42):
            rho = states.werner_gen(2, c)
            table = correlation_table(rho, (SZ, SX), (b1, b2))
            oracle = bell_polytope_oracle(table)
            res = lchv_feasibility(rho, chsh_angle_ctx(1), 1)
            assert (oracle == "outside") == (res.status == "infeasible")


class TestLpCouplingPipeline:
    def test_single_time_model_couples_and_verifies(self):
        rho = states.werner_gen(2, 0.2)
        res = lchv_feasibility(rho, qubit_pair_ctx(1), 1)
        assert res.status == "feasible"
        coupled = hvmodels.couple_lchv_d2(res.model, qubit_pair_ctx(2))
        report = hvmodels.verify_model(coupled, rho, tol=1e-8)
        assert report.passed, report.summary()


class TestClassification:
    def test_separable_state(self):
        rec = classify_evidence(states.maximally_mixed(2, 2))
        assert rec.entangled is False
        assert rec.n_index == "infinity"
        assert rec.tag == "nonentangled"

    def test_singlet(self):
        rec = classify_evidence(states.singlet())
        assert rec.entangled is True
        assert rec.n_index == "1"
        assert rec.tag == "single_time_nonlocal"
        assert rec.witness["chsh"] == pytest.approx(2.0 * RT2, abs=1e-6)
        assert rec.witness["feasibility"]["status"] == "infeasible"

    def test_d2_entangled_single_time_local(self):
        rec = classify_evidence(states.werner_gen(2, 0.2))
        assert rec.entangled is True
        assert rec.n_index == "infinity"
        assert rec.tag == "d2_flip_family"

    def test_d2_gap_is_honest_unknown(self):
        # between the coupling window (c <= 1/4) and the first CHSH
        # violation (c > 1/(2*sqrt(2))) no probe here decides anything
        rec = classify_evidence(states.werner_gen(2, 0.35))
        assert rec.n_index == "unknown"
        assert rec.tag == ""

    def test_d5_hidden_nonlocality(self):
        rec = classify_evidence(states.werner(5))
        assert rec.entangled is True
        assert rec.n_index == "<=2"
        assert rec.tag == "hidden_nonlocality"
        assert rec.witness["chsh_after_collapse"] == pytest.approx(
            2.0 * RT2 * 5.0 / 7.0, abs=1e-6
        )
        assert any("exactly 2" in n for n in rec.notes)

    def test_d3_open_window(self):
        rec = classify_evidence(states.werner_gen(3, 0.05))
        assert rec.entangled is True
        assert rec.n_index == "open"
        assert rec.tag == "d_ge_3_flip_family"

    def test_to_json_marks_context_relativity(self):
        obj = classify_evidence(states.maximally_mixed(2, 2)).to_json()
        assert obj["context_relative"] is True
        assert obj["n_index"] == "infinity"


@hyp_settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 0.5))
def test_oracle_matches_flip_family_threshold(c):
    # at the optimal angles the table leaves the local set exactly where
    # the optimized CHSH value 4*sqrt(2)*c crosses 2
    rho = states.werner_gen(2, c)
    table = correlation_table(
        rho, (SZ, SX), ((SZ + SX) / RT2, (SZ - SX) / RT2)
    )
    want = "outside" if 4.0 * RT2 * c > 2.0 + 1e-9 else "inside"
    boundary = abs(4.0 * RT2 * c - 2.0) < 1e-7
    if not boundary:
        assert bell_polytope_oracle(table) == want


@hyp_settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_maximize_never_exceeds_quantum_bound(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    rho = states.make_density(m / np.real(np.trace(m)), (2, 2))
    value, settings = chsh_maximize(rho)
    assert value <= 2.0 * RT2 + 1e-6
    assert chsh_value(rho, settings) == pytest.approx(value, abs=1e-9)
