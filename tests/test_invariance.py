"""Invariances of the CHSH value, the quantum tables and the k=1 LP verdict.

Three transformations of a (state, context) pair must leave all three
unchanged, after the matching permutation of outcomes or sides: a local
unitary on each side with the families conjugated too, relabeling the
outcomes of one family, and swapping the two sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonloc import hvmodels, states
from nonloc.feasibility import LpNumericalFailure, chsh_maximize, lchv_feasibility
from nonloc.hvmodels import Context
from nonloc.measurement import Observable, OperationFamily

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=8, deadline=None)


def random_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def perturbed_family(rng, m: np.ndarray, name: str) -> OperationFamily:
    """The involution along m's Bloch direction plus noise of about 0.3 rad."""
    n = np.array([np.real(np.trace(m @ s)) / 2.0 for s in PAULIS])
    n = n + 0.3 * rng.normal(size=3)
    n = n / np.linalg.norm(n)
    obs = Observable.from_matrix(sum(c * s for c, s in zip(n, PAULIS)), name)
    return OperationFamily.ideal(obs)


def random_instance(rng) -> tuple[states.DensityMatrix, Context]:
    """A noisy entangled qubit pair probed near its CHSH-optimal settings, so
    that both LP verdicts occur; sequences up to length 2 on each side."""
    theta, p = rng.uniform(0.3, np.pi / 4), rng.uniform(0.6, 1.0)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    psi = u @ np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)])
    rho = states.make_density(
        p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0, (2, 2)
    )
    _, s = chsh_maximize(rho)
    side1 = (perturbed_family(rng, s.a1, "a1"), perturbed_family(rng, s.a2, "a2"))
    side2 = (perturbed_family(rng, s.b1, "b1"), perturbed_family(rng, s.b2, "b2"))
    return rho, Context(side1, side2, 2, 2)


def tables(rho, ctx) -> dict:
    quantum = hvmodels.QuantumTables(rho, ctx)
    return {seq: quantum.collected(*seq) for seq in ctx.collected_sequences()}


def verdict(rho, ctx) -> str:
    try:
        return lchv_feasibility(rho, ctx, 1).status
    except LpNumericalFailure:
        return "indeterminate"


def chsh(rho) -> float:
    return chsh_maximize(rho)[0]


def context_chsh(tabs: dict, ctx: Context) -> float:
    """Largest |CHSH| expression over the context's +-1 families, reading
    outcome index 0 as +1; flipping one family's sign keeps it."""
    sign = np.array([1.0, -1.0])
    e = np.array([[sign @ tabs[(a,), (b,)] @ sign for b in ctx.names(2)]
                  for a in ctx.names(1)])
    return max(abs(e.sum() - 2.0 * e[x, y]) for x in range(2) for y in range(2))


@PROPERTY
@given(SEEDS)
def test_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    rho, ctx = random_instance(rng)
    u1, u2 = random_unitary(rng), random_unitary(rng)
    u = np.kron(u1, u2)
    rho_u = states.make_density(u @ rho.matrix @ u.conj().T, (2, 2))

    def conjugated(fams, v):
        return tuple(
            OperationFamily(f.name, f.labels,
                            tuple(v @ r @ v.conj().T for r in f.operators), f.kind)
            for f in fams
        )

    ctx_u = Context(conjugated(ctx.side1, u1), conjugated(ctx.side2, u2), 2, 2)
    assert chsh(rho_u) == pytest.approx(chsh(rho), abs=1e-9)
    after = tables(rho_u, ctx_u)
    for seq, table in tables(rho, ctx).items():
        np.testing.assert_allclose(after[seq], table, atol=1e-12)
    assert verdict(rho_u, ctx_u) == verdict(rho, ctx)


@PROPERTY
@given(SEEDS, st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1)]))
def test_outcome_relabeling(seed, which):
    rng = np.random.default_rng(seed)
    rho, ctx = random_instance(rng)
    side, index = which
    fam = ctx.families(side)[index]
    perm = np.arange(len(fam.labels))[::-1]
    relabeled = OperationFamily(
        fam.name, fam.labels, tuple(fam.operators[i] for i in perm), fam.kind
    )
    fams = [list(ctx.side1), list(ctx.side2)]
    fams[side - 1][index] = relabeled
    ctx_r = Context(tuple(fams[0]), tuple(fams[1]), 2, 2)

    before, after = tables(rho, ctx), tables(rho, ctx_r)
    for (c1, c2), table in before.items():
        # label j of the relabeled family now names old outcome perm[j]
        steps = [(1, n) for n in c1] + [(2, n) for n in c2]
        want = table.reshape([len(ctx.family(s, n).labels) for s, n in steps])
        for axis, step in enumerate(steps):
            if step == (side, fam.name):
                want = np.take(want, perm, axis=axis)
        np.testing.assert_allclose(after[c1, c2], want.reshape(table.shape),
                                   atol=1e-12)
    assert context_chsh(after, ctx_r) == pytest.approx(
        context_chsh(before, ctx), abs=1e-9
    )
    assert verdict(rho, ctx_r) == verdict(rho, ctx)


@PROPERTY
@given(SEEDS)
def test_side_swap(seed):
    rng = np.random.default_rng(seed)
    rho, ctx = random_instance(rng)
    swapped = rho.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    rho_s = states.make_density(swapped, (2, 2))
    ctx_s = Context(ctx.side2, ctx.side1, ctx.max_len2, ctx.max_len1)
    assert chsh(rho_s) == pytest.approx(chsh(rho), abs=1e-9)
    after = tables(rho_s, ctx_s)
    for (c1, c2), table in tables(rho, ctx).items():
        np.testing.assert_allclose(after[c2, c1], table.T, atol=1e-12)
    assert verdict(rho_s, ctx_s) == verdict(rho, ctx)
