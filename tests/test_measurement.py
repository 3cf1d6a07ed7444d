import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonloc import hilbert, measurement, states
from nonloc.measurement import (
    NonStochasticMatrix,
    NotCommuting,
    Observable,
    OperationFamily,
    Povm,
    commuting_decompose,
    embed_local,
    pauli,
    sequence_distribution,
    smeared_povm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


class TestObservable:
    def test_pauli_outcomes(self):
        obs = pauli("z")
        assert obs.outcome_labels == ("+1", "-1")
        assert obs.outcome_values == (1.0, -1.0)

    def test_degenerate_labels(self):
        obs = Observable.from_matrix(np.diag([2.0, 1.0, 1.0]).astype(complex), "m")
        assert obs.outcome_labels == ("+2", "+1")

    def test_label_collision_dedupe(self):
        # two distinct eigenvalues that format identically get suffixed
        obs = Observable.from_matrix(
            np.diag([1.0, 1.0 + 1e-7]).astype(complex), "m"
        )
        assert len(set(obs.outcome_labels)) == 2


class TestOperationFamily:
    def test_ideal_projectors(self):
        fam = OperationFamily.ideal(pauli("z"), "mz")
        assert fam.kind == "ideal"
        assert np.allclose(fam.operator("+1"), np.diag([1.0, 0.0]))
        assert np.allclose(fam.operator("-1"), np.diag([0.0, 1.0]))

    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            OperationFamily("bad", ("a",), (np.eye(2, dtype=complex) * 0.5,), "general")

    def test_no_slash_in_names(self):
        with pytest.raises(ValueError):
            OperationFamily.ideal(pauli("z"), "m/z")

    def test_from_povm_sqrt(self):
        t = np.array([[0.8, 0.3], [0.2, 0.7]])
        povm = smeared_povm(pauli("z"), t)
        fam = OperationFamily.from_povm(povm, "sm")
        for lab in povm.labels:
            r = fam.operator(lab)
            assert np.max(np.abs(r.conj().T @ r - povm.effect(lab))) < 1e-12

    def test_random_family_completeness(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # polar-like split of identity: R1 = sqrt(E), R2 = sqrt(I - E)
        e = a @ a.conj().T
        e = e / (np.linalg.eigvalsh(e)[-1] * 1.5)
        r1 = hilbert.spectral_decompose(e)
        sq1 = sum(np.sqrt(max(v, 0.0)) * p
                  for v, p in zip(r1.eigenvalues, r1.projectors))
        r2 = hilbert.spectral_decompose(np.eye(2) - e)
        sq2 = sum(np.sqrt(max(v, 0.0)) * p
                  for v, p in zip(r2.eigenvalues, r2.projectors))
        fam = OperationFamily("f", ("a", "b"), (sq1, sq2), "general")
        total = sum(op.conj().T @ op for op in fam.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


class TestPovm:
    def test_identity_halves(self):
        fam = Povm(("a", "b"), (np.eye(2, dtype=complex) / 2,) * 2)
        assert fam.dim == 2

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm(("a", "b"), (np.eye(2, dtype=complex) / 2,
                              np.eye(2, dtype=complex) / 3))

    def test_rejects_negative_effect(self):
        bad = np.diag([1.5, 1.0]).astype(complex)
        good = np.eye(2, dtype=complex) - bad
        with pytest.raises(ValueError):
            Povm(("a", "b"), (bad, good))


class TestSequenceDistribution:
    def test_single_qubit_two_steps_quarters(self):
        # |0> measured along x then z: all four outcome pairs are 1/4
        ket0 = np.zeros((2, 2), dtype=complex)
        ket0[0, 0] = 1.0
        rho = states.make_density(ket0, (2, 1))
        steps = [(1, OperationFamily.ideal(pauli("x"), "mx")),
                 (1, OperationFamily.ideal(pauli("z"), "mz"))]
        table = sequence_distribution(rho, steps)
        assert len(table) == 4
        for prob in table.values():
            assert prob == pytest.approx(0.25, abs=1e-14)

    def test_singlet_anticorrelation(self):
        steps = [(1, OperationFamily.ideal(pauli("z"), "mz")),
                 (2, OperationFamily.ideal(pauli("z"), "mz"))]
        table = sequence_distribution(states.singlet(), steps)
        assert table[("+1", "-1")] == pytest.approx(0.5, abs=1e-14)
        assert table[("-1", "+1")] == pytest.approx(0.5, abs=1e-14)
        assert table[("+1", "+1")] == pytest.approx(0.0, abs=1e-14)
        assert table[("-1", "-1")] == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 4))
def test_distribution_sums_to_one_property(seed, length):
    rng = np.random.default_rng(seed)
    d1 = int(rng.integers(2, 4))
    d2 = int(rng.integers(2, 4))
    g = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
    m = g @ g.conj().T
    rho = states.make_density(m / np.real(np.trace(m)), (d1, d2))
    steps = []
    for i in range(length):
        side = int(rng.integers(1, 3))
        d = d1 if side == 1 else d2
        obs = Observable.from_matrix(random_hermitian(rng, d), f"m{i}")
        steps.append((side, OperationFamily.ideal(obs)))
    table = sequence_distribution(rho, steps)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_marginalization_equals_truncation_property(seed):
    rng = np.random.default_rng(seed)
    rho = states.werner_gen(2, float(rng.uniform(0, 0.5)))
    fams = [OperationFamily.ideal(
        Observable.from_matrix(random_hermitian(rng, 2), f"m{i}")) for i in range(3)]
    steps = [(1, fams[0]), (2, fams[1]), (1, fams[2])]
    full = sequence_distribution(rho, steps)
    trunc = sequence_distribution(rho, steps[:-1])
    marg: dict = {}
    for outs, p in full.items():
        marg[outs[:-1]] = marg.get(outs[:-1], 0.0) + p
    for key, p in trunc.items():
        assert marg[key] == pytest.approx(p, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_side_reorder_invariance_property(seed):
    rng = np.random.default_rng(seed)
    rho = states.werner_gen(2, float(rng.uniform(0, 0.5)))
    f1 = OperationFamily.ideal(Observable.from_matrix(random_hermitian(rng, 2), "a"))
    f2 = OperationFamily.ideal(Observable.from_matrix(random_hermitian(rng, 2), "b"))
    t12 = sequence_distribution(rho, [(1, f1), (2, f2)])
    t21 = sequence_distribution(rho, [(2, f2), (1, f1)])
    # keys of t21 are ordered (side-2 outcome, side-1 outcome)
    for (o1, o2), p in t12.items():
        assert t21[(o2, o1)] == pytest.approx(p, abs=1e-12)


class TestCommutingDecompose:
    def test_smeared_table_recovered(self):
        t = np.array([[0.8, 0.3], [0.2, 0.7]])
        povm = smeared_povm(pauli("z"), t)
        dec = commuting_decompose(povm)
        assert not isinstance(dec, NotCommuting)
        # reconstruction is the basis-order-independent contract
        for lab in povm.labels:
            assert np.max(np.abs(dec.reconstruct(lab) - povm.effect(lab))) < 1e-10
        # coefficient columns match t up to basis permutation
        got = sorted(map(tuple, np.round(dec.table.T, 12).tolist()))
        want = sorted(map(tuple, np.round(t.T, 12).tolist()))
        assert got == want

    def test_projectors_rank_one(self):
        povm = smeared_povm(pauli("x"), np.array([[0.6, 0.1], [0.4, 0.9]]))
        dec = commuting_decompose(povm)
        for p in dec.projectors:
            assert np.isclose(np.real(np.trace(p)), 1.0)
            assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_non_commuting_returned_as_value(self):
        e1 = (np.eye(2, dtype=complex) + SX) / 4.0
        e2 = (np.eye(2, dtype=complex) + SZ) / 4.0
        povm = Povm(("a", "b", "c"), (e1, e2, np.eye(2, dtype=complex) - e1 - e2))
        out = commuting_decompose(povm)
        assert isinstance(out, NotCommuting)
        assert out.pair == ("a", "b")
        assert out.commutator_norm > 1e-3

    def test_two_valued_always_commutes(self):
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 3)
        e = h @ h.conj().T
        e = e / (np.linalg.eigvalsh(e)[-1] * 1.25)
        povm = Povm(("e", "rest"), (e, np.eye(3, dtype=complex) - e))
        dec = commuting_decompose(povm)
        assert not isinstance(dec, NotCommuting)
        for lab in povm.labels:
            assert np.max(np.abs(dec.reconstruct(lab) - povm.effect(lab))) < 1e-10

    def test_column_normalization(self):
        povm = smeared_povm(pauli("z"), np.array([[0.55, 0.25], [0.45, 0.75]]))
        dec = commuting_decompose(povm)
        assert np.max(np.abs(dec.table.sum(axis=0) - 1.0)) < 1e-12


class TestSmearedPovm:
    def test_effects(self):
        t = np.array([[0.8, 0.3], [0.2, 0.7]])
        povm = smeared_povm(pauli("z"), t)
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.allclose(povm.effect("+1"), 0.8 * p0 + 0.3 * p1)
        assert np.allclose(povm.effect("-1"), 0.2 * p0 + 0.7 * p1)

    def test_identity_matrix_gives_projections(self):
        povm = smeared_povm(pauli("z"), np.eye(2))
        assert np.allclose(povm.effect("+1"), np.diag([1.0, 0.0]))

    def test_rejects_non_stochastic(self):
        with pytest.raises(NonStochasticMatrix):
            smeared_povm(pauli("z"), np.array([[0.8, 0.3], [0.3, 0.7]]))
        with pytest.raises(NonStochasticMatrix):
            smeared_povm(pauli("z"), np.array([[1.2, 0.3], [-0.2, 0.7]]))


class TestEmbedLocal:
    def test_sides(self):
        op = np.diag([1.0, 0.0]).astype(complex)
        left = embed_local(op, 1, hilbert.DimPair(2, 3))
        right = embed_local(op, 2, hilbert.DimPair(3, 2))
        assert np.allclose(left, np.kron(op, np.eye(3)))
        assert np.allclose(right, np.kron(np.eye(3), op))
        with pytest.raises(ValueError):
            embed_local(np.eye(4, dtype=complex), 0, hilbert.DimPair(2, 2))


def test_povm_json_round_trip():
    povm = smeared_povm(pauli("z"), np.array([[0.8, 0.3], [0.2, 0.7]]))
    back = measurement.povm_from_json(measurement.povm_to_json(povm))
    assert back.labels == povm.labels
    for lab in povm.labels:
        assert np.array_equal(back.effect(lab), povm.effect(lab))


def test_family_json_round_trip():
    fam = OperationFamily.ideal(pauli("x"), "mx")
    back = measurement.family_from_json(measurement.family_to_json(fam))
    assert back.name == fam.name
    assert back.labels == fam.labels
    assert back.kind == fam.kind
    for lab in fam.labels:
        assert np.array_equal(back.operator(lab), fam.operator(lab))
