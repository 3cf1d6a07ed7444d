from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonloc import hilbert, states
from nonloc.states import (
    DensityMatrix,
    ParameterOutOfRange,
    StateValidationError,
    WernerParams,
    ZeroProbabilityOutcome,
    collapse,
    collapse_separability_threshold,
    collapsed_c_prime,
    entanglement_threshold,
    flip_expectation,
    lhv1_threshold,
    make_density,
    maximally_mixed,
    normalization_bound,
    partial_transpose,
    ppt_min_eigenvalue,
    product_state,
    singlet,
    werner,
    werner_fit,
    werner_gen,
)


class TestMakeDensity:
    def test_accepts_valid(self):
        rho = make_density(np.eye(4, dtype=complex) / 4.0, (2, 2))
        assert rho.dims.total == 4

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(StateValidationError):
            make_density(m, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            make_density(np.eye(4, dtype=complex), (2, 2))

    def test_rejects_negative(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(StateValidationError):
            make_density(m, (2, 2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            make_density(np.eye(4, dtype=complex) / 4.0, (2, 3))


class TestThresholds:
    # frozen exact values for d = 2..6
    @pytest.mark.parametrize("d,norm,ent,lhv1", [
        (2, Fraction(1, 2), Fraction(1, 6), Fraction(1, 4)),
        (3, Fraction(1, 6), Fraction(1, 24), Fraction(1, 9)),
        (4, Fraction(1, 12), Fraction(1, 60), Fraction(1, 16)),
        (5, Fraction(1, 20), Fraction(1, 120), Fraction(1, 25)),
        (6, Fraction(1, 30), Fraction(1, 210), Fraction(1, 36)),
    ])
    def test_frozen(self, d, norm, ent, lhv1):
        assert normalization_bound(d) == norm
        assert entanglement_threshold(d) == ent
        assert lhv1_threshold(d) == lhv1

    @pytest.mark.parametrize("d,cs", [
        (3, Fraction(1, 15)), (4, Fraction(1, 44)),
        (5, Fraction(1, 95)), (6, Fraction(1, 174)),
    ])
    def test_collapse_separability_frozen(self, d, cs):
        assert collapse_separability_threshold(d) == cs

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_rejects_local_dimension_below_two(self, d):
        for fn in (normalization_bound, entanglement_threshold,
                   lhv1_threshold, collapse_separability_threshold, werner):
            with pytest.raises(ParameterOutOfRange, match=f"local dimension {d} < 2"):
                fn(d)

    def test_collapse_separability_needs_d3(self):
        with pytest.raises(ParameterOutOfRange, match="d >= 3"):
            collapse_separability_threshold(2)

    def test_ordering(self):
        for d in range(3, 7):
            assert (entanglement_threshold(d)
                    < collapse_separability_threshold(d)
                    < lhv1_threshold(d)
                    < normalization_bound(d))


class TestWernerFamily:
    def test_werner2_eigenvalues(self):
        # oracle: eigenvalues (1/d)(1/d+c) -+ c on the symmetric/antisymmetric
        # flip eigenspaces; at d=2, c=1/4: 1/8 (x3) and 5/8 (x1)
        eigs = np.sort(np.linalg.eigvalsh(werner(2).matrix))
        assert np.allclose(eigs, [0.125, 0.125, 0.125, 0.625], atol=1e-14)

    def test_werner_is_werner_gen_at_inverse_d_squared(self):
        for d in (2, 3, 4):
            assert np.allclose(
                werner(d).matrix, werner_gen(d, Fraction(1, d * d)).matrix
            )

    def test_singlet_is_boundary_member(self):
        assert np.allclose(
            singlet().matrix, werner_gen(2, Fraction(1, 2)).matrix, atol=1e-15
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            WernerParams(2, Fraction(51, 100))
        with pytest.raises(ParameterOutOfRange):
            WernerParams(3, -0.01)

    def test_flip_expectation_frozen(self):
        # tr(F W) = 1/d + c(1 - d^2)
        assert flip_expectation(WernerParams(2, Fraction(1, 4))) == Fraction(-1, 4)
        assert flip_expectation(WernerParams(3, Fraction(1, 24))) == 0
        val = flip_expectation(WernerParams(3, 0.1))
        assert val == pytest.approx(1.0 / 3.0 - 0.8, abs=1e-15)

    def test_flip_expectation_matches_trace(self):
        for d, c in [(2, 0.1), (3, 0.05), (4, 0.02)]:
            rho = werner_gen(d, c)
            f = hilbert.flip_operator(d)
            direct = float(np.real(np.trace(f @ rho.matrix)))
            assert direct == pytest.approx(
                float(flip_expectation(WernerParams(d, c))), abs=1e-12
            )

    def test_invariance_under_local_rotation(self):
        # flip-family states commute with U (x) U
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(a)[0]
        uu = np.kron(u, u)
        rho = werner_gen(3, 0.05).matrix
        assert np.max(np.abs(uu @ rho @ uu.conj().T - rho)) < 1e-12


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = (a + a.conj().T) / 2.0
        assert np.allclose(
            partial_transpose(partial_transpose(m, (2, 3)), (2, 3)), m
        )

    def test_werner2_min_eigenvalue(self):
        # oracle: PT(W) has minimum eigenvalue 1/4 - 3c/2 at d=2, so -1/8 at c=1/4
        assert ppt_min_eigenvalue(werner(2)) == pytest.approx(-0.125, abs=1e-12)

    def test_singlet_min_eigenvalue(self):
        assert ppt_min_eigenvalue(singlet()) == pytest.approx(-0.5, abs=1e-12)

    def test_separable_werner_is_ppt(self):
        assert ppt_min_eigenvalue(werner_gen(2, 0.1)) > -1e-12


class TestCollapse:
    def test_singlet_projective_collapse(self):
        # project side 1 onto |0>: the singlet collapses to |01>
        p0 = np.diag([1.0, 0.0]).astype(complex)
        rho = collapse(singlet(), np.kron(p0, np.eye(2)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_zero_probability_rejected(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        rho = make_density(ket00, (2, 2))
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ZeroProbabilityOutcome):
            collapse(rho, np.kron(p1, np.eye(2)))

    def test_restriction_trace_closed_form(self):
        # oracle: throwing both sides onto a rank-(d-1) block keeps
        # probability (d-1)(d-1-cd)/d^2
        for d, c in [(3, Fraction(1, 15)), (4, 0.02), (5, 0.01)]:
            rho = werner_gen(d, c)
            t = np.zeros((d, d), dtype=complex)
            for i in range(d - 1):
                t[i, i] = 1.0
            tt = np.kron(t, t)
            p = float(np.real(np.trace(tt @ rho.matrix @ tt)))
            cf = float(c)
            expected = (d - 1) * (d - 1 - cf * d) / d**2
            assert p == pytest.approx(expected, abs=1e-12)


class TestCollapsedCPrime:
    def test_exact_landing(self):
        assert collapsed_c_prime(3, Fraction(1, 15)) == Fraction(1, 6)
        assert collapsed_c_prime(3, Fraction(1, 15)) == entanglement_threshold(2)

    def test_fraction_arithmetic(self):
        # c' = c d^2 / ((d-1)(d - cd - 1))
        assert collapsed_c_prime(4, Fraction(1, 44)) == Fraction(
            Fraction(16, 44), 3 * (4 - Fraction(4, 44) - 1)
        )

    def test_requires_d_at_least_3(self):
        with pytest.raises(ValueError):
            collapsed_c_prime(2, 0.1)

    def test_matches_numeric_collapse(self):
        d, c = 4, 0.03
        rho = werner_gen(d, c)
        t = np.zeros((d, d), dtype=complex)
        for i in range(d - 1):
            t[i, i] = 1.0
        collapsed = collapse(rho, np.kron(t, t))
        idx = [i * d + j for i in range(d - 1) for j in range(d - 1)]
        sub = make_density(collapsed.matrix[np.ix_(idx, idx)], (d - 1, d - 1))
        fit = werner_fit(sub)
        assert fit is not None
        assert fit[0] == d - 1
        assert fit[1] == pytest.approx(float(collapsed_c_prime(d, c)), abs=1e-10)


class TestCrossTerms:
    @pytest.mark.parametrize("d,rank", [(3, 2), (4, 3), (4, 2), (5, 4)])
    def test_vanish_for_block_projectors(self, d, rank):
        t = np.zeros((d, d), dtype=complex)
        for i in range(rank):
            t[i, i] = 1.0
        assert max(states.cross_term_norms(d, t)) < 1e-12

    def test_vanish_for_random_projectors(self):
        # the vanishing is an algebraic identity in the flip structure,
        # not a property of the standard basis
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = np.linalg.qr(a)[0]
        t = q[:, :2] @ q[:, :2].conj().T
        assert max(states.cross_term_norms(4, t)) < 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            states.cross_term_norms(3, np.diag([0.5, 0.0, 0.0]).astype(complex))


class TestWernerFit:
    @pytest.mark.parametrize("d,c", [
        (2, 0.0), (2, 0.2), (2, 0.5), (3, 0.05), (4, 1 / 44), (5, 0.01),
    ])
    def test_round_trip(self, d, c):
        fit = werner_fit(werner_gen(d, c))
        assert fit is not None
        assert fit[0] == d
        assert fit[1] == pytest.approx(c, abs=1e-12)

    def test_rejects_non_member(self):
        ket = np.zeros((4, 4), dtype=complex)
        ket[1, 1] = 1.0
        assert werner_fit(make_density(ket, (2, 2))) is None

    def test_rejects_unequal_dims(self):
        assert werner_fit(maximally_mixed(2, 3)) is None


class TestConstructors:
    def test_maximally_mixed(self):
        rho = maximally_mixed(2, 3)
        assert np.allclose(rho.matrix, np.eye(6) / 6.0)

    def test_product_state(self):
        r1 = make_density(np.diag([0.7, 0.3]).astype(complex), (2, 1))
        r2 = make_density(np.diag([0.4, 0.6]).astype(complex), (2, 1))
        rho = product_state(r1, r2)
        assert rho.dims == hilbert.DimPair(2, 2)
        assert np.allclose(np.diag(rho.matrix), [0.28, 0.42, 0.12, 0.18])

    def test_mixture(self):
        rho = states.mixture([singlet(), maximally_mixed(2, 2)], [0.5, 0.5])
        assert np.isclose(np.real(np.trace(rho.matrix)), 1.0)
        with pytest.raises(ValueError):
            states.mixture([singlet()], [0.5])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 1.0))
def test_werner_gen_valid_on_range_property(d, frac):
    c = frac * float(normalization_bound(d))
    rho = werner_gen(d, c)
    assert np.isclose(np.real(np.trace(rho.matrix)), 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10
    # entanglement iff threshold crossing, mirrored by PPT at d = 2
    if d == 2 and abs(c - 1.0 / 6.0) > 1e-9:
        assert (ppt_min_eigenvalue(rho) < -1e-10) == (c > 1.0 / 6.0)


def test_state_json_round_trip():
    rho = werner_gen(3, 0.05)
    back = states.state_from_json(states.state_to_json(rho))
    assert back.dims == rho.dims
    assert np.array_equal(back.matrix, rho.matrix)
