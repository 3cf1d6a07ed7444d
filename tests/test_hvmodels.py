import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonloc import hvmodels, measurement, states
from nonloc.feasibility import lchv_feasibility
from nonloc.hvmodels import (
    BudgetExceededError,
    Context,
    DeterministicModel,
    FiniteSampleSpace,
    MissingBasisObservable,
    NotCommutingError,
    StochasticModel,
    ZeroProbabilityBranch,
    collapse_model,
    couple_lchv_d2,
    deterministic_to_stochastic,
    extend_commuting_povm,
    mix_models,
    model_from_json,
    model_to_json,
    product_local_model,
    stochastic_to_deterministic,
    trivial_causal_model,
    verify_model,
)
from nonloc.measurement import OperationFamily, Povm, pauli, smeared_povm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

MZ = OperationFamily.ideal(pauli("z"), "mz")
MX = OperationFamily.ideal(pauli("x"), "mx")


def labelled_family(name: str, labels: tuple[str, ...]) -> OperationFamily:
    """Ideal family on C^len(labels) with outcome ``labels``: the
    computational-basis projectors."""
    basis = np.eye(len(labels), dtype=complex)
    return OperationFamily(name, labels, tuple(np.diag(v) for v in basis), "ideal")


def qubit_pair_ctx(max_len: int) -> Context:
    return Context((MZ, MX), (MZ, MX), max_len, max_len)


def z_only_ctx(max_len: int) -> Context:
    return Context((MZ,), (MZ,), max_len, max_len)


def diag_product(p1: float, p2: float) -> states.DensityMatrix:
    a = np.diag([p1, 1 - p1]).astype(complex)
    b = np.diag([p2, 1 - p2]).astype(complex)
    return states.make_density(np.kron(a, b), (2, 2))


class TestContext:
    def test_sequence_counts_two_obs_len_two(self):
        ctx = qubit_pair_ctx(2)
        assert sum(1 for _ in ctx.interleaved_sequences()) == 164
        assert sum(1 for _ in ctx.collected_sequences()) == 48

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Context((MZ, OperationFamily.ideal(pauli("x"), "mz")), (MZ,), 1, 1)

    def test_empty_side_with_positive_bound_rejected(self):
        with pytest.raises(ValueError):
            Context((MZ,), (), 1, 1)

    def test_single_system_context_allowed(self):
        ctx = Context((MZ, MX), (), 2, 0)
        assert ctx.dims.d2 == 1
        assert sum(1 for _ in ctx.interleaved_sequences()) == 6

    def test_mismatched_dims_on_side_rejected(self):
        big = OperationFamily.ideal(
            measurement.Observable.from_matrix(np.diag([1.0, 0.0, -1.0]).astype(complex), "q")
        )
        with pytest.raises(ValueError):
            Context((MZ, big), (MZ,), 1, 1)

    def test_family_lookup(self):
        ctx = qubit_pair_ctx(1)
        assert ctx.family(1, "mx") is MX
        with pytest.raises(KeyError):
            ctx.family(2, "my")


class TestFiniteSampleSpace:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FiniteSampleSpace(("a", "b"), np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteSampleSpace(("a", "b"), np.array([1.5, -0.5]))


class TestTrivialCausalModel:
    def test_singlet_z_two_atoms(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        assert m.shape == "causal"
        assert len(m.space) == 2
        assert np.allclose(m.space.weights, [0.5, 0.5])
        # anticorrelation lives on the joint path; single-step responses on a
        # causal model are free to disagree across interleavings
        for atom in m.space.atoms:
            o1, o2 = m.responses[atom][((1, "mz"), (2, "mz"))]
            assert {o1, o2} == {"+1", "-1"}
            assert o1 == m.responses[atom][((1, "mz"),)][0]

    def test_singlet_verifies(self):
        m = trivial_causal_model(states.singlet(), qubit_pair_ctx(1))
        rep = verify_model(m, states.singlet())
        assert rep.passed, rep.summary()
        assert rep.max_deviation < 1e-10

    def test_werner_sequences_verify(self):
        rho = states.werner(2)
        m = trivial_causal_model(rho, qubit_pair_ctx(2))
        rep = verify_model(m, rho)
        assert rep.passed, rep.summary()

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            trivial_causal_model(states.singlet(), qubit_pair_ctx(2), atom_budget=3)

    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            trivial_causal_model(states.werner(3), qubit_pair_ctx(1))


class TestProductAndMix:
    def test_product_model_verifies(self):
        rho1 = np.diag([0.7, 0.3]).astype(complex)
        rho2 = np.diag([0.6, 0.4]).astype(complex)
        m = product_local_model(rho1, rho2, qubit_pair_ctx(2))
        assert m.shape == "local_causal"
        rep = verify_model(m, diag_product(0.7, 0.6))
        assert rep.passed, rep.summary()

    def test_mixture_verifies_against_mixed_state(self):
        ctx = qubit_pair_ctx(1)
        m1 = product_local_model(
            np.diag([1.0, 0.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex), ctx
        )
        m2 = product_local_model(
            np.diag([0.0, 1.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex), ctx
        )
        mixed = mix_models([m1, m2], [0.25, 0.75])
        rho = states.make_density(
            0.25 * np.diag([1, 0, 0, 0]).astype(complex)
            + 0.75 * np.diag([0, 0, 0, 1]).astype(complex),
            (2, 2),
        )
        rep = verify_model(mixed, rho)
        assert rep.passed, rep.summary()

    def test_mix_weight_validation(self):
        ctx = qubit_pair_ctx(1)
        m = product_local_model(
            np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2, ctx
        )
        with pytest.raises(ValueError):
            mix_models([m, m], [0.5, 0.6])
        with pytest.raises(ValueError):
            mix_models([m, m], [1.5, -0.5])
        with pytest.raises(ValueError):
            mix_models([], [])

    def test_mix_context_mismatch(self):
        m1 = product_local_model(
            np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2, qubit_pair_ctx(1)
        )
        m2 = product_local_model(
            np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2, z_only_ctx(1)
        )
        with pytest.raises(ValueError):
            mix_models([m1, m2], [0.5, 0.5])


class TestCollapseModel:
    def test_singlet_conditional_anticorrelation(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        post = collapse_model(m, ((1, "mz"), "+1"))
        assert post.context.max_len1 == 0
        table = post.distribution_interleaved(((2, "mz"),))
        assert table == {("-1",): pytest.approx(1.0)}

    def test_local_shape_collapse(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            z_only_ctx(1),
        )
        post = collapse_model(m, ((1, "mz"), "+1"))
        table = post.distribution_collected((), ("mz",))
        assert table[("+1",)] == pytest.approx(0.6, abs=1e-12)
        assert table[("-1",)] == pytest.approx(0.4, abs=1e-12)

    def test_zero_probability_branch(self):
        m = product_local_model(
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([1.0, 0.0]).astype(complex),
            z_only_ctx(1),
        )
        with pytest.raises(ZeroProbabilityBranch):
            collapse_model(m, ((1, "mz"), "-1"))

    def test_unknown_family_rejected(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        with pytest.raises(KeyError):
            collapse_model(m, ((1, "my"), "+1"))

    def test_exhausted_bound_rejected(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        post = collapse_model(m, ((1, "mz"), "+1"))
        with pytest.raises(ValueError):
            collapse_model(post, ((1, "mz"), "-1"))


class TestCoupling:
    def test_product_state_coupled_to_length_two(self):
        ctx1 = qubit_pair_ctx(1)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        lhv1 = product_local_model(plus, zero, ctx1)
        ctx2 = qubit_pair_ctx(2)
        coupled = couple_lchv_d2(lhv1, ctx2)
        assert coupled.shape == "local_causal"
        rho = states.make_density(np.kron(plus, zero), (2, 2))
        rep = verify_model(coupled, rho)
        assert rep.passed, rep.summary()
        assert rep.max_deviation < 1e-10

    def test_atoms_and_weights_pinned(self):
        """Atoms are (first-step atom, side-1 follow-up atom, side-2
        follow-up atom) in nested order, weighted by the product."""
        mt = OperationFamily.ideal(
            measurement.Observable.from_matrix(0.6 * SZ + 0.8 * SX, "mt"), "mt"
        )
        rho1 = np.diag([0.7, 0.3]).astype(complex)
        rho2 = np.diag([1.0, 0.0]).astype(complex)
        lhv1 = product_local_model(rho1, rho2, Context((MZ, mt), (MZ, mt), 1, 1))
        coupled = couple_lchv_d2(lhv1, Context((MZ, mt), (MZ, mt), 2, 2))
        first = {"a0*a0": 0.496, "a0*a1": 0.124, "a1*a0": 0.064,
                 "a1*a1": 0.016, "a2*a0": 0.24, "a2*a1": 0.06}
        follow = (0.2, 0.6, 0.2)  # cos^2 = 0.8 and 0.2 between the eigenbases
        keys = [(a, i1, i2) for a in first for i1 in range(3) for i2 in range(3)]
        assert coupled.space.atoms == tuple(f"{a}|{i1}|{i2}" for a, i1, i2 in keys)
        want = [first[a] * follow[i1] * follow[i2] for a, i1, i2 in keys]
        assert np.max(np.abs(coupled.space.weights - want)) < 1e-12
        rep = verify_model(coupled, states.make_density(np.kron(rho1, rho2), (2, 2)))
        assert rep.passed, rep.summary()

    def test_requires_local_shape(self):
        m = trivial_causal_model(states.singlet(), qubit_pair_ctx(1))
        with pytest.raises(ValueError):
            couple_lchv_d2(m, qubit_pair_ctx(2))

    def test_requires_qubit_pair(self):
        d3 = OperationFamily.ideal(
            measurement.Observable.from_matrix(
                np.diag([1.0, 0.0, -1.0]).astype(complex), "q"
            )
        )
        ctx = Context((d3,), (d3,), 1, 1)
        m = product_local_model(
            np.eye(3, dtype=complex) / 3, np.eye(3, dtype=complex) / 3, ctx
        )
        with pytest.raises(ValueError):
            couple_lchv_d2(m, Context((d3,), (d3,), 2, 2))

    def test_requires_length_one_coverage(self):
        ctx0 = Context((MZ, MX), (MZ, MX), 1, 0)
        m = product_local_model(
            np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2, ctx0
        )
        with pytest.raises(ValueError):
            couple_lchv_d2(m, qubit_pair_ctx(2))

    def test_degenerate_first_step_rejected(self):
        ident = OperationFamily.ideal(
            measurement.Observable.from_matrix(np.eye(2, dtype=complex), "one")
        )
        ctx1 = Context((ident,), (ident,), 1, 1)
        m = product_local_model(
            np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2, ctx1
        )
        with pytest.raises(ValueError):
            couple_lchv_d2(m, Context((ident,), (ident,), 2, 2))


class TestFineTranslations:
    def test_deterministic_requires_local_shape(self):
        m = trivial_causal_model(states.singlet(), qubit_pair_ctx(1))
        with pytest.raises(ValueError):
            deterministic_to_stochastic(m)

    def test_round_trip_preserves_distributions(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            qubit_pair_ctx(2),
        )
        s = deterministic_to_stochastic(m)
        back = stochastic_to_deterministic(s)
        ctx = m.context
        for c1, c2 in ctx.collected_sequences():
            want = m.distribution_collected(c1, c2)
            mid = s.distribution_collected(c1, c2)
            got = back.distribution_collected(c1, c2)
            keys = set(want) | set(mid) | set(got)
            for k in keys:
                assert mid.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-12)
                assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-12)

    def test_degenerate_kernels_are_point_masses(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            z_only_ctx(1),
        )
        s = deterministic_to_stochastic(m)
        for atom in s.space.atoms:
            for side in (1, 2):
                for dist in s.kernels[atom][side].values():
                    assert set(dist.values()) == {1.0}

    def test_nondegenerate_instantiation_matches_chain_rule(self):
        ctx = Context((labelled_family("mz", ("u", "v")),), (), 2, 0)
        kernels = {
            "a": {
                1: {
                    (("mz",), ()): {"u": 0.3, "v": 0.7},
                    (("mz", "mz"), ("u",)): {"u": 0.2, "v": 0.8},
                    (("mz", "mz"), ("v",)): {"u": 0.5, "v": 0.5},
                },
                2: {},
            }
        }
        s = StochasticModel(FiniteSampleSpace(("a",), np.array([1.0])), ctx, kernels)
        det = stochastic_to_deterministic(s)
        assert len(det.space) == 4
        table = det.distribution_collected(("mz", "mz"), ())
        assert table[("u", "u")] == pytest.approx(0.06, abs=1e-14)
        assert table[("u", "v")] == pytest.approx(0.24, abs=1e-14)
        assert table[("v", "u")] == pytest.approx(0.35, abs=1e-14)
        assert table[("v", "v")] == pytest.approx(0.35, abs=1e-14)

    def test_missing_kernel_is_named(self):
        # side 1 reaches mz/mz, but only the length-1 kernel is given; the
        # weight-0 atom without any kernel is skipped
        ctx = Context((MZ,), (MZ,), 2, 1)
        kernels = {
            "a": {1: {(("mz",), ()): {"+1": 0.5, "-1": 0.5}},
                  2: {(("mz",), ()): {"+1": 1.0}}},
            "b": {},
        }
        space = FiniteSampleSpace(("a", "b"), np.array([1.0, 0.0]))
        message = r"^missing kernel or unlisted outcome at 1:mz/1:mz$"
        with pytest.raises(ValueError, match=message):
            stochastic_to_deterministic(StochasticModel(space, ctx, kernels))
        for past in ("+1", "-1"):
            kernels["a"][1][(("mz", "mz"), (past,))] = {past: 1.0}
        det = stochastic_to_deterministic(StochasticModel(space, ctx, kernels))
        assert det.space.atoms == ("a|t0|t0", "a|t1|t0")

    def test_live_atom_without_kernels_is_named(self):
        # atom "b" has positive weight but no entry in ``kernels``; every
        # reader of the kernels names the same sequence
        ctx = Context((MZ,), (MZ,), 1, 1)
        kernels = {"a": {1: {(("mz",), ()): {"+1": 1.0}},
                         2: {(("mz",), ()): {"-1": 1.0}}}}
        space = FiniteSampleSpace(("a", "b"), np.array([0.5, 0.5]))
        s = StochasticModel(space, ctx, kernels)
        message = r"^missing kernel or unlisted outcome at 1:mz$"
        with pytest.raises(ValueError, match=message):
            stochastic_to_deterministic(s)
        with pytest.raises(ValueError, match=message):
            s.distribution_collected(("mz",), ("mz",))
        rep = verify_model(s, states.singlet())
        assert not rep.passed and rep.worst_sequence == "1:mz"

    @pytest.mark.parametrize("labels", [("+1", "-1"), ("u", "v", "+1")])
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_matches_reference_trees(self, labels, seed):
        s = random_stochastic(np.random.default_rng(seed), labels)
        det = stochastic_to_deterministic(s)
        want = reference_realized_trees(s)
        assert det.space.atoms == tuple(want)
        assert not any(a.startswith("b|") for a in det.space.atoms)  # weight 0
        assert np.array_equal(det.space.weights, [w for w, _ in want.values()])
        assert det.responses == {a: trees for a, (_, trees) in want.items()}

    def test_degenerate_round_trip_keeps_index(self):
        rho = states.werner_gen(2, 0.2)
        certificate = lchv_feasibility(rho, qubit_pair_ctx(1), 1).model
        coupled = couple_lchv_d2(certificate, Context((MZ, MX), (MZ, MX), 3, 2))
        back = stochastic_to_deterministic(deterministic_to_stochastic(coupled))
        assert back.space.atoms == tuple(f"{a}|t0|t0" for a in coupled.space.atoms)
        assert np.array_equal(back.space.weights, coupled.space.weights)
        for side in (1, 2):
            assert back.index[side].keys() == coupled.index[side].keys()
            for key, idx in coupled.index[side].items():
                assert np.array_equal(back.index[side][key], idx)

    def test_instantiation_budget(self):
        m = product_local_model(
            np.eye(2, dtype=complex) / 2,
            np.eye(2, dtype=complex) / 2,
            qubit_pair_ctx(2),
        )
        s = deterministic_to_stochastic(m)
        with pytest.raises(BudgetExceededError):
            stochastic_to_deterministic(s, atom_budget=2)


class TestSideDistribution:
    def test_two_atom_chain_rule_product(self):
        ctx = Context((labelled_family("mz", ("u", "v")),),
                      (labelled_family("mx", ("x", "y")),), 1, 1)
        kernels = {
            "a": {
                1: {(("mz",), ()): {"u": 0.3, "v": 0.7}},
                2: {(("mx",), ()): {"x": 0.5, "y": 0.5}},
            },
            "b": {
                1: {(("mz",), ()): {"u": 1.0}},
                2: {(("mx",), ()): {"x": 0.2, "y": 0.8}},
            },
        }
        s = StochasticModel(
            FiniteSampleSpace(("a", "b"), np.array([0.5, 0.5])), ctx, kernels
        )
        table = s.distribution_collected(("mz",), ("mx",))
        assert table[("u", "x")] == pytest.approx(0.175, abs=1e-14)
        assert table[("u", "y")] == pytest.approx(0.475, abs=1e-14)
        assert table[("v", "x")] == pytest.approx(0.175, abs=1e-14)
        assert table[("v", "y")] == pytest.approx(0.175, abs=1e-14)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-14)


class TestExtendCommutingPovm:
    def basis_model(self):
        b1 = OperationFamily.ideal(pauli("z"), "bz1")
        b2 = OperationFamily.ideal(pauli("z"), "bz2")
        ctx = Context((b1,), (b2,), 1, 1)
        responses = {"a0": {1: {("bz1",): ("+1",)}, 2: {("bz2",): ("+1",)}}}
        space = FiniteSampleSpace(("a0",), np.array([1.0]))
        return DeterministicModel.from_responses(space, "local_causal", ctx, responses)

    def test_joint_table_frozen(self):
        lhv1 = self.basis_model()
        t1 = np.array([[0.8, 0.3], [0.2, 0.7]])
        t2 = np.array([[0.6, 0.1], [0.4, 0.9]])
        ext = extend_commuting_povm(
            lhv1, smeared_povm(pauli("z"), t1), smeared_povm(pauli("z"), t2)
        )
        assert ext.space is lhv1.space
        table = ext.distribution_collected(("M1",), ("M2",))
        assert table[("+1", "+1")] == pytest.approx(0.48, abs=1e-12)
        assert table[("+1", "-1")] == pytest.approx(0.32, abs=1e-12)
        assert table[("-1", "+1")] == pytest.approx(0.12, abs=1e-12)
        assert table[("-1", "-1")] == pytest.approx(0.08, abs=1e-12)

    def test_extension_verifies_against_state(self):
        lhv1 = self.basis_model()
        t1 = np.array([[0.8, 0.3], [0.2, 0.7]])
        t2 = np.array([[0.6, 0.1], [0.4, 0.9]])
        ext = extend_commuting_povm(
            lhv1, smeared_povm(pauli("z"), t1), smeared_povm(pauli("z"), t2)
        )
        rho = diag_product(1.0, 1.0)
        rep = verify_model(ext, rho)
        assert rep.passed, rep.summary()

    def test_not_commuting_raises(self):
        lhv1 = self.basis_model()
        e1 = (np.eye(2, dtype=complex) + SX) / 4.0
        e2 = (np.eye(2, dtype=complex) + SZ) / 4.0
        bad = Povm(("a", "b", "c"), (e1, e2, np.eye(2, dtype=complex) - e1 - e2))
        good = smeared_povm(pauli("z"), np.array([[0.8, 0.3], [0.2, 0.7]]))
        with pytest.raises(NotCommutingError) as exc:
            extend_commuting_povm(lhv1, bad, good)
        assert exc.value.info.pair == ("a", "b")

    def test_missing_basis_raises(self):
        bx = OperationFamily.ideal(pauli("x"), "bx1")
        ctx = Context((bx,), (bx,), 1, 1)
        responses = {"a0": {1: {("bx1",): ("+1",)}, 2: {("bx1",): ("+1",)}}}
        m = DeterministicModel.from_responses(
            FiniteSampleSpace(("a0",), np.array([1.0])), "local_causal", ctx, responses
        )
        zsm = smeared_povm(pauli("z"), np.array([[0.8, 0.3], [0.2, 0.7]]))
        with pytest.raises(MissingBasisObservable):
            extend_commuting_povm(m, zsm, zsm)


class TestVerifyReport:
    def test_structural_fields(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        rep = verify_model(m, states.singlet())
        assert rep.structural["shape"] == "causal"
        assert rep.structural["weight_sum_deviation"] < 1e-12
        assert rep.structural["per_side_responses"] is False
        assert "pass" in rep.summary()

    def test_detects_wrong_state(self):
        m = trivial_causal_model(states.singlet(), z_only_ctx(1))
        rep = verify_model(m, diag_product(1.0, 1.0))
        assert not rep.passed
        assert rep.max_deviation > 0.4

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_local_models_detect_wrong_state(self, stochastic):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            z_only_ctx(1),
        )
        if stochastic:
            m = deterministic_to_stochastic(m)
        rep = verify_model(m, diag_product(1.0, 1.0))
        assert not rep.passed
        # |00> gives (+1, +1) with certainty; the model gives it 0.7 * 0.6
        assert rep.max_deviation == pytest.approx(1.0 - 0.7 * 0.6, abs=1e-12)
        assert rep.worst_sequence == "1:mz=+1/2:mz=+1"
        assert rep.n_sequences == 3
        assert rep.structural["responses_read_only_past"] is True

    def test_kernel_normalization_reported(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            z_only_ctx(1),
        )
        s = deterministic_to_stochastic(m)
        rep = verify_model(s, diag_product(0.7, 0.6))
        assert rep.passed
        assert rep.structural["kernel_normalization_deviation"] < 1e-12


def random_density(rng, d1: int, d2: int) -> states.DensityMatrix:
    g = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
    mat = g @ g.conj().T
    return states.make_density(mat / np.real(np.trace(mat)), (d1, d2))


def random_families(rng, d: int, prefix: str) -> tuple[OperationFamily, ...]:
    """An ideal family of a random observable and the canonical operations
    of a random three-outcome POVM."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = measurement.Observable.from_matrix(g + g.conj().T, f"{prefix}o")
    parts = []
    for _ in range(3):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(parts))
    root = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    effects = tuple(root @ a @ root for a in parts)
    effects = tuple((e + e.conj().T) / 2 for e in effects)
    povm = Povm(("p", "q", "r"), effects)
    return (OperationFamily.ideal(obs, f"{prefix}o"),
            OperationFamily.from_povm(povm, f"{prefix}p"))


def collected_path(c1, c2):
    return tuple((1, n) for n in c1) + tuple((2, n) for n in c2)


class TestQuantumTables:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_agree_with_sequence_distribution(self, dims):
        rng = np.random.default_rng(sum(dims))
        rho = random_density(rng, *dims)
        ctx = Context(random_families(rng, dims[0], "a"),
                      random_families(rng, dims[1], "b"), 2, 2)
        tables = hvmodels.QuantumTables(rho, ctx)
        paths = [collected_path(c1, c2) for c1, c2 in ctx.collected_sequences()]
        checked = [(p, tables.collected(*hvmodels._split(p)).ravel()) for p in paths]
        checked += [(p, tables.interleaved(p)) for p in ctx.interleaved_sequences()]
        assert len(checked) == 48 + 164
        for path, table in checked:
            want = measurement.sequence_distribution(
                rho, [(s, ctx.step_family((s, n))) for s, n in path]
            )
            assert table.shape == (len(want),)
            assert np.max(np.abs(table - np.array(list(want.values())))) < 1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            hvmodels.QuantumTables(states.werner(3), qubit_pair_ctx(1))

    def test_verify_model_reads_given_tables(self):
        rho = diag_product(0.7, 0.6)
        m = product_local_model(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]), qubit_pair_ctx(2))
        tables = hvmodels.QuantumTables(rho, m.context)
        assert verify_model(m, rho, quantum=tables) == verify_model(m, rho)

    @pytest.mark.parametrize("other", ["state", "context"])
    def test_verify_model_rejects_tables_of_other_inputs(self, other):
        rho = diag_product(0.7, 0.6)
        m = product_local_model(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]), qubit_pair_ctx(1))
        # an equal but distinct object is still another input
        tables = (hvmodels.QuantumTables(diag_product(0.7, 0.6), m.context) if other == "state"
                  else hvmodels.QuantumTables(rho, qubit_pair_ctx(1)))
        with pytest.raises(ValueError, match="another state or context"):
            verify_model(m, rho, quantum=tables)


# Per-atom loops computing the model tables one sequence at a time; the array
# engine behind distribution_* must reproduce them.


def reference_interleaved(m: DeterministicModel, path) -> dict:
    """The table of ``path`` counted atom by atom over the decoded
    ``responses`` view."""
    out: dict = {}
    responses = m.responses
    if m.shape == "causal":
        for atom, w in zip(m.space.atoms, m.space.weights):
            key = responses[atom][path]
            out[key] = out.get(key, 0.0) + float(w)
        return out
    idx1 = [i for i, s in enumerate(path) if s[0] == 1]
    idx2 = [i for i, s in enumerate(path) if s[0] == 2]
    c1 = tuple(path[i][1] for i in idx1)
    c2 = tuple(path[i][1] for i in idx2)
    for atom, w in zip(m.space.atoms, m.space.weights):
        o1 = responses[atom][1][c1] if c1 else ()
        o2 = responses[atom][2][c2] if c2 else ()
        merged = [None] * len(path)
        for i, o in zip(idx1, o1):
            merged[i] = o
        for i, o in zip(idx2, o2):
            merged[i] = o
        key = tuple(merged)
        out[key] = out.get(key, 0.0) + float(w)
    return out


def reference_side_distribution(s: StochasticModel, atom, side, choices) -> dict:
    table: dict = {(): 1.0}
    for k in range(1, len(choices) + 1):
        new: dict = {}
        for past, p in table.items():
            if p == 0.0:
                continue
            for o, q in s.kernel(atom, side, choices[:k], past).items():
                new[past + (o,)] = new.get(past + (o,), 0.0) + p * q
        table = new
    return table


def reference_realized_trees(s: StochasticModel) -> dict:
    """``{atom|t{i1}|t{i2}: (weight, {1: tree1, 2: tree2})}`` by walking each
    nonzero-weight atom's trees one branch at a time: every tree is extended
    at each choice sequence by the outcomes of positive probability at its
    own past, in the kernel's order."""
    out = {}
    for atom, w in zip(s.space.atoms, s.space.weights):
        if float(w) == 0.0:
            continue
        per_side = []
        for side in (1, 2):
            partial = [({}, 1.0)]
            for choices in s.context.choice_sequences(side)[1:]:
                new = []
                for tree, weight in partial:
                    past = tree[choices[:-1]] if len(choices) > 1 else ()
                    for o, p in s.kernel(atom, side, choices, past).items():
                        if p > 0.0:
                            new.append(({**tree, choices: past + (o,)}, weight * p))
                partial = new
            per_side.append(partial)
        for i1, (t1, p1) in enumerate(per_side[0]):
            for i2, (t2, p2) in enumerate(per_side[1]):
                out[f"{atom}|t{i1}|t{i2}"] = (float(w) * p1 * p2, {1: t1, 2: t2})
    return out


def reference_collected(s: StochasticModel, c1, c2) -> dict:
    out: dict = {}
    for atom, w in zip(s.space.atoms, s.space.weights):
        t1 = reference_side_distribution(s, atom, 1, c1)
        t2 = reference_side_distribution(s, atom, 2, c2)
        for o1, p1 in t1.items():
            for o2, p2 in t2.items():
                out[o1 + o2] = out.get(o1 + o2, 0.0) + float(w) * p1 * p2
    return out


def random_stochastic(rng, labels) -> StochasticModel:
    """Three atoms with random kernels over ``labels`` on every own past,
    some entries exactly zero, on families that list ``labels``."""
    mz, mx = labelled_family("mz", labels), labelled_family("mx", labels)
    ctx = Context((mz, mx), (mx,), 2, 1)
    kernels = {}
    for atom in ("a", "b", "c"):
        per_side = {}
        for side in (1, 2):
            nodes = {}
            for choices in ctx.choice_sequences(side)[1:]:
                for past in itertools.product(labels, repeat=len(choices) - 1):
                    p = rng.dirichlet(np.ones(len(labels)))
                    p[rng.random(len(labels)) < 0.3] = 0.0
                    p = p / p.sum() if p.sum() > 0 else np.eye(len(labels))[0]
                    nodes[(choices, past)] = dict(zip(labels, p.tolist()))
            per_side[side] = nodes
        kernels[atom] = per_side
    space = FiniteSampleSpace(("a", "b", "c"), np.array([0.2, 0.0, 0.8]))
    return StochasticModel(space, ctx, kernels)


class TestModelTables:
    def deterministic_models(self):
        rng = np.random.default_rng(7)
        causal = trivial_causal_model(
            random_density(rng, 2, 3),
            Context(random_families(rng, 2, "a"), random_families(rng, 3, "b"), 1, 1),
        )
        local = mix_models(
            [product_local_model(np.diag([0.7, 0.3]).astype(complex),
                                 np.diag([0.6, 0.4]).astype(complex), qubit_pair_ctx(2)),
             product_local_model(np.eye(2, dtype=complex) / 2,
                                 np.diag([0.1, 0.9]).astype(complex), qubit_pair_ctx(2))],
            [0.25, 0.75],
        )
        other_labels = stochastic_to_deterministic(random_stochastic(rng, ("u", "v", "+1")))
        rho = states.werner_gen(2, 0.2)
        certificate = lchv_feasibility(rho, qubit_pair_ctx(1), 1).model
        coupled = couple_lchv_d2(certificate, qubit_pair_ctx(2))
        causal2 = trivial_causal_model(rho, qubit_pair_ctx(2))
        collapsed = [collapse_model(causal2, ((2, "mx"), "-1")),
                     collapse_model(coupled, ((1, "mz"), "+1")),
                     collapse_model(local, ((2, "mx"), "-1"))]
        return causal, local, other_labels, certificate, coupled, *collapsed

    def test_deterministic_tables_match_reference_loop(self):
        for m in self.deterministic_models():
            for path in m.context.interleaved_sequences():
                assert m.distribution_interleaved(path) == reference_interleaved(m, path)
            for c1, c2 in m.context.collected_sequences():
                path = collected_path(c1, c2)
                assert m.distribution_collected(c1, c2) == reference_interleaved(m, path)

    @pytest.mark.parametrize("labels", [("+1", "-1"), ("u", "v", "+1")])
    def test_stochastic_tables_match_reference_loop(self, labels):
        s = random_stochastic(np.random.default_rng(len(labels)), labels)
        for c1, c2 in s.context.collected_sequences():
            got = s.distribution_collected(c1, c2)
            want = reference_collected(s, c1, c2)
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, abs=1e-12)

    def test_malformed_responses_raise_value_error(self):
        m = product_local_model(np.eye(2, dtype=complex) / 2,
                                np.eye(2, dtype=complex) / 2, qubit_pair_ctx(2))
        responses = m.responses
        del responses[m.space.atoms[0]][1][("mz", "mx")]
        with pytest.raises(ValueError, match="at 1:mz/1:mx"):
            DeterministicModel.from_responses(m.space, m.shape, m.context, responses)

    def test_unlisted_outcome_raises(self):
        ctx = Context((MZ,), (MZ,), 1, 1)
        space = FiniteSampleSpace(("a",), np.array([1.0]))
        trees = {"a": {1: {("mz",): ("u",)}, 2: {("mz",): ("+1",)}}}
        with pytest.raises(ValueError, match="at 1:mz$"):
            DeterministicModel.from_responses(space, "local_causal", ctx, trees)
        s = StochasticModel(space, ctx, {"a": {
            1: {(("mz",), ()): {"+1": 0.5, "-1": 0.5}},
            2: {(("mz",), ()): {"u": 1.0}},
        }})
        with pytest.raises(ValueError, match="at 2:mz$"):
            stochastic_to_deterministic(s)
        with pytest.raises(ValueError, match="at 2:mz$"):
            s.distribution_collected(("mz",), ("mz",))

    @pytest.mark.parametrize("shape", ["causal", "local_causal"])
    def test_constructor_rejects_malformed_index(self, shape):
        """A first-step index past the last outcome is out of range; a
        two-step index with the wrong first digit is inconsistent with its
        prefix.  Each error names its sequence."""
        if shape == "causal":
            m = trivial_causal_model(states.singlet(), z_only_ctx(1))
            first, second = ((1, "mz"),), ((1, "mz"), (2, "mz"))
            names = "1:mz", "1:mz/2:mz"
        else:
            m = product_local_model(np.eye(2, dtype=complex) / 2,
                                    np.eye(2, dtype=complex) / 2, qubit_pair_ctx(2))
            first, second = ("mz",), ("mz", "mx")
            names = "1:mz", "1:mz/1:mx"
        for key, change, name, fault in (
            (first, lambda idx: idx + 2, names[0], "are out of range"),
            (second, lambda idx: idx ^ 2, names[1], "do not extend the prefix's responses"),
        ):
            index = dict(m.index) if shape == "causal" else {1: dict(m.index[1]), 2: m.index[2]}
            table = index if shape == "causal" else index[1]
            table[key] = change(table[key])
            with pytest.raises(ValueError, match=f"at {name} {fault}$"):
                DeterministicModel(m.space, m.shape, m.context, index)


# Exact model JSON of small models with dyadic weights, so that every float
# prints the same on any machine: the node keys ``n1/o1/.../nk`` (causal
# steps written ``side:name``) are the file format, not an implementation
# detail.
Z = OperationFamily(
    "z", ("0", "1"),
    (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    "ideal",
)
Z_JSON = (
    '{"kind": "ideal", "labels": ["0", "1"], "name": "z", "operators": ['
    '{"cols": 2, "im": [[0.0, 0.0], [0.0, 0.0]], "re": [[1.0, 0.0], [0.0, 0.0]], '
    '"rows": 2}, {"cols": 2, "im": [[0.0, 0.0], [0.0, 0.0]], '
    '"re": [[0.0, 0.0], [0.0, 1.0]], "rows": 2}]}'
)


def z_ctx_json(len1: int, len2: int) -> str:
    return (f'{{"max_len1": {len1}, "max_len2": {len2}, '
            f'"side1": [{Z_JSON}], "side2": [{Z_JSON}]}}')


GOLDEN_JSON = {
    "causal": (
        '{"atoms": ["a0", "a1", "a2", "a3", "a4"], "context": ' + z_ctx_json(1, 1)
        + ', "responses": {'
        '"a0": {"1:z": "0", "1:z/0/2:z": "0", "2:z": "0", "2:z/0/1:z": "0"}, '
        '"a1": {"1:z": "0", "1:z/0/2:z": "1", "2:z": "0", "2:z/0/1:z": "1"}, '
        '"a2": {"1:z": "1", "1:z/1/2:z": "0", "2:z": "0", "2:z/0/1:z": "1"}, '
        '"a3": {"1:z": "1", "1:z/1/2:z": "0", "2:z": "1", "2:z/1/1:z": "0"}, '
        '"a4": {"1:z": "1", "1:z/1/2:z": "1", "2:z": "1", "2:z/1/1:z": "1"}}, '
        '"shape": "causal", "weights": [0.375, 0.125, 0.25, 0.125, 0.125]}'
    ),
    "local_causal": (
        '{"atoms": ["a0*a0", "a0*a1", "a1*a0", "a1*a1"], "context": ' + z_ctx_json(2, 1)
        + ', "responses": {'
        '"a0*a0": {"side1": {"z": "0", "z/0/z": "0"}, "side2": {"z": "0"}}, '
        '"a0*a1": {"side1": {"z": "0", "z/0/z": "0"}, "side2": {"z": "1"}}, '
        '"a1*a0": {"side1": {"z": "1", "z/1/z": "1"}, "side2": {"z": "0"}}, '
        '"a1*a1": {"side1": {"z": "1", "z/1/z": "1"}, "side2": {"z": "1"}}}, '
        '"shape": "local_causal", "weights": [0.375, 0.375, 0.125, 0.125]}'
    ),
    "stochastic": (
        '{"atoms": ["a"], "context": ' + z_ctx_json(2, 1) + ', "kernels": {"a": {'
        '"side1": {"z": {"0": 0.75, "1": 0.25}, "z/0/z": {"0": 1.0}, '
        '"z/1/z": {"0": 0.5, "1": 0.5}}, "side2": {"z": {"0": 0.5, "1": 0.5}}}}, '
        '"shape": "stochastic", "weights": [1.0]}'
    ),
}


def golden_model(shape: str):
    if shape == "causal":
        rho = states.make_density(np.diag([0.375, 0.125, 0.375, 0.125]).astype(complex),
                                  (2, 2))
        return trivial_causal_model(rho, Context((Z,), (Z,), 1, 1))
    if shape == "local_causal":
        return product_local_model(np.diag([0.75, 0.25]), np.diag([0.5, 0.5]),
                                   Context((Z,), (Z,), 2, 1))
    kernels = {"a": {
        1: {(("z",), ()): {"0": 0.75, "1": 0.25},
            (("z", "z"), ("0",)): {"0": 1.0},
            (("z", "z"), ("1",)): {"0": 0.5, "1": 0.5}},
        2: {(("z",), ()): {"0": 0.5, "1": 0.5}},
    }}
    return StochasticModel(FiniteSampleSpace(("a",), np.array([1.0])),
                           Context((Z,), (Z,), 2, 1), kernels)


class TestModelJson:
    def round_trip_check(self, m, rho):
        back = model_from_json(model_to_json(m))
        assert back.shape == m.shape
        assert back.space.atoms == m.space.atoms
        assert np.allclose(back.space.weights, m.space.weights)
        rep = verify_model(back, rho)
        assert rep.passed, rep.summary()

    def test_causal_round_trip(self):
        m = trivial_causal_model(states.singlet(), qubit_pair_ctx(1))
        self.round_trip_check(m, states.singlet())

    def test_local_round_trip(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            qubit_pair_ctx(2),
        )
        self.round_trip_check(m, diag_product(0.7, 0.6))

    @staticmethod
    def broken_json(shape: str, how: str) -> tuple[dict, str]:
        """JSON of a verified model with one depth-2 response removed, or
        re-keyed under the other first outcome so that it no longer extends
        the atom's response to its prefix; returns (json, sequence named)."""
        if shape == "causal":
            m = trivial_causal_model(states.singlet(), z_only_ctx(1))
            first, step = "1:mz", "2:mz"
        else:
            m = product_local_model(np.diag([0.7, 0.3]).astype(complex),
                                    np.diag([0.6, 0.4]).astype(complex), qubit_pair_ctx(2))
            first, step = "mz", "mx"
        obj = model_to_json(m)
        atom = m.space.atoms[0]
        tree = obj["responses"][atom] if shape == "causal" else obj["responses"][atom]["side1"]
        seg, outcome = next(k.split("/")[:2] for k in tree if k.startswith(first + "/"))
        value = tree.pop(f"{seg}/{outcome}/{step}")
        if how == "inconsistent":
            other = "-1" if outcome == "+1" else "+1"
            tree[f"{seg}/{other}/{step}"] = value
        named = f"{first}/{step}" if shape == "causal" else f"1:{first}/1:{step}"
        return obj, named

    @pytest.mark.parametrize("shape", ["causal", "local_causal"])
    @pytest.mark.parametrize("how", ["missing", "inconsistent"])
    def test_broken_responses_fail_verification(self, shape, how):
        """Malformed responses are rejected when the model is loaded."""
        obj, named = self.broken_json(shape, how)
        with pytest.raises(ValueError, match=f"at {named}( |$)"):
            model_from_json(obj)

    def test_missing_kernel_fails_verification(self):
        m = product_local_model(np.diag([0.7, 0.3]).astype(complex),
                                np.diag([0.6, 0.4]).astype(complex), qubit_pair_ctx(2))
        obj = model_to_json(deterministic_to_stochastic(m))
        kernels = obj["kernels"][m.space.atoms[0]]["side2"]
        key = next(k for k in kernels if k.count("/") == 2)
        del kernels[key]
        rep = verify_model(model_from_json(obj), diag_product(0.7, 0.6))
        assert not rep.passed
        assert rep.structural["responses_read_only_past"] is False
        assert rep.worst_sequence == "/".join(f"2:{n}" for n in key.split("/")[0::2])

    @pytest.mark.parametrize(
        "key", ["context", "atoms", "weights", "shape", "responses", "kernels"]
    )
    def test_missing_field_is_named(self, key):
        m = product_local_model(np.diag([0.7, 0.3]).astype(complex),
                                np.diag([0.6, 0.4]).astype(complex), z_only_ctx(1))
        obj = model_to_json(deterministic_to_stochastic(m) if key == "kernels" else m)
        del obj[key]
        with pytest.raises(ValueError, match=f"^model has no field '{key}'$"):
            model_from_json(obj)

    @pytest.mark.parametrize("shape", ["local_causal", "stochastic"])
    def test_missing_side_is_named(self, shape):
        m = product_local_model(np.diag([0.7, 0.3]).astype(complex),
                                np.diag([0.6, 0.4]).astype(complex), z_only_ctx(1))
        if shape == "stochastic":
            m = deterministic_to_stochastic(m)
        obj = model_to_json(m)
        atom = m.space.atoms[0]
        del obj["responses" if shape == "local_causal" else "kernels"][atom]["side2"]
        with pytest.raises(ValueError,
                           match=re.escape(f"model atom '{atom}' has no field 'side2'")):
            model_from_json(obj)

    def test_stochastic_round_trip(self):
        m = product_local_model(
            np.diag([0.7, 0.3]).astype(complex),
            np.diag([0.6, 0.4]).astype(complex),
            z_only_ctx(1),
        )
        s = deterministic_to_stochastic(m)
        self.round_trip_check(s, diag_product(0.7, 0.6))

    @pytest.mark.parametrize("shape", list(GOLDEN_JSON))
    def test_golden_text(self, shape):
        m = golden_model(shape)
        text = json.dumps(model_to_json(m), sort_keys=True)
        assert text == GOLDEN_JSON[shape]
        back = model_from_json(json.loads(text))
        assert json.dumps(model_to_json(back), sort_keys=True) == text
        if shape == "stochastic":
            assert back.kernels == m.kernels
        else:
            assert back.responses == m.responses


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_trivial_model_matches_random_states(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = g @ g.conj().T
    rho = states.make_density(mat / np.real(np.trace(mat)), (2, 2))
    m = trivial_causal_model(rho, qubit_pair_ctx(1))
    rep = verify_model(m, rho, tol=1e-8)
    assert rep.passed, rep.summary()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**30))
def test_model_distributions_normalized(seed):
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.0, 0.5))
    m = trivial_causal_model(states.werner_gen(2, c), qubit_pair_ctx(1))
    for path in m.context.interleaved_sequences():
        assert sum(m.distribution_interleaved(path).values()) == pytest.approx(
            1.0, abs=1e-12
        )


def reference_interval_model(rho: states.DensityMatrix, ctx: Context):
    """The interval construction as a recursion over post-measurement states.

    Every cell of a step path carries its unnormalized state sigma; each
    operation R of the next step splits it into children of length
    tr(R sigma R^dagger), laid out from the cell's left end with the last
    child ending at the cell's right end.  Empty cells are not split.
    ``work`` counts the children of each cell longer than ``PROB_FLOOR``;
    ``trivial_causal_model`` raises BudgetExceededError exactly when
    max(work, atoms) exceeds its budget.  Shorter cells are float slivers
    where the last-child rule meets rounding, and no other layout of the same
    lengths reproduces them.  Returns (atoms, weights, responses, work).
    """
    cells = {(): [(0.0, 1.0, (), rho.matrix)]}
    paths = list(ctx.interleaved_sequences())
    work = 0
    for path in paths:
        fam = ctx.step_family(path[-1])
        ops = [measurement.embed_local(r, path[-1][0], rho.dims) for r in fam.operators]
        children = []
        for lo, hi, outs, sigma in cells[path[:-1]]:
            if hi <= lo:
                continue
            cursor = lo
            for i, (lab, r) in enumerate(zip(fam.labels, ops)):
                child = r @ sigma @ r.conj().T
                p = max(float(np.real(np.trace(child))), 0.0)
                nxt = hi if i == len(ops) - 1 else cursor + p
                children.append((cursor, nxt, outs + (lab,), child))
                cursor = nxt
            if hi - lo > states.PROB_FLOOR:
                work += len(ops)
        cells[path] = children
    breakpoints = {0.0, 1.0}
    for path in paths:
        for lo, hi, _, _ in cells[path]:
            breakpoints.update((lo, hi))
    points = hvmodels._dedupe_points(breakpoints)
    bounds = [(a, b) for a, b in zip(points, points[1:]) if b > a]
    atoms = tuple(f"a{i}" for i in range(len(bounds)))
    responses = {a: {} for a in atoms}
    for path in paths:
        live = [c for c in cells[path] if c[1] > c[0]]
        for atom, (a, b) in zip(atoms, bounds):
            mid = (a + b) / 2.0
            responses[atom][path] = next(c for c in reversed(live) if c[0] <= mid)[2]
    return atoms, np.array([b - a for a, b in bounds]), responses, work


def diagonal_family(d: int, name: str) -> OperationFamily:
    obs = measurement.Observable.from_matrix(
        np.diag(np.arange(d, dtype=float)).astype(complex), name
    )
    return OperationFamily.ideal(obs, name)


@st.composite
def interval_cases(draw):
    """(state, context) on 2x2 or 2x3 at L = 1 or 2.  Pure states are random
    vectors or product basis states; each side measures its basis, so
    repeated and basis-state measurements give zero-probability branches.
    Two families a side at L = 2 on 2x3 make up to about 2000 atoms and a
    second of reference work, so that case keeps only the random family on
    the qutrit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**30)))
    d2 = draw(st.sampled_from([2, 3]))
    length = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["mixed", "pure", "basis"]))
    if kind == "mixed":
        rho = random_density(rng, 2, d2)
    else:
        v = np.zeros(2 * d2, dtype=complex)
        if kind == "basis":
            v[rng.integers(2 * d2)] = 1.0
        else:
            v = rng.normal(size=2 * d2) + 1j * rng.normal(size=2 * d2)
        rho = states.make_density(np.outer(v, v.conj()) / np.vdot(v, v).real, (2, d2))
    side1 = (diagonal_family(2, "z"), random_families(rng, 2, "a")[draw(st.integers(0, 1))])
    side2 = (diagonal_family(d2, "z"), random_families(rng, d2, "b")[draw(st.integers(0, 1))])
    if d2 == 3 and length == 2:
        side2 = side2[1:]
    return rho, Context(side1, side2, length, length)


@settings(max_examples=25, deadline=None)
@given(interval_cases())
def test_trivial_model_matches_recursive_reference(case):
    rho, ctx = case
    atoms, weights, responses, work = reference_interval_model(rho, ctx)
    m = trivial_causal_model(rho, ctx)
    assert m.space.atoms == atoms
    assert m.responses == responses
    assert np.max(np.abs(m.space.weights - weights)) < 1e-12
    budget = max(work, len(atoms))
    with pytest.raises(BudgetExceededError):
        trivial_causal_model(rho, ctx, atom_budget=budget - 1)
    assert len(trivial_causal_model(rho, ctx, atom_budget=budget).space) == len(atoms)
