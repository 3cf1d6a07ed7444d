"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s (or read the failure message) to see the per-criterion lines;
`nonloc reproduce` prints the same table.
"""

import numpy as np
import pytest

from nonloc import acceptance
from nonloc.feasibility import (
    bell_polytope_oracle,
    chsh_maximize,
    correlation_table,
    lchv_feasibility,
)
from nonloc.measurement import pauli
from nonloc.states import make_density


@pytest.mark.parametrize(
    "number",
    range(1, len(acceptance.ALL_CRITERIA) + 1),
    ids=[f"{i:02d}-{fn.__name__.removeprefix('criterion_')}"
         for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1)],
)
def test_criterion(number, capsys):
    result = acceptance.ALL_CRITERIA[number - 1]()
    with capsys.disabled():
        print(result.line())
    assert result.number == number
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


def _perturbed(rng, mat, noise: float):
    """The involution whose Bloch direction is that of ``mat`` moved by a
    Gaussian step of size ~``noise``, renormalized."""
    paulis = [pauli(a).matrix for a in "xyz"]
    n = np.array([np.real(np.trace(mat @ s)) / 2 for s in paulis])
    n = n + noise * rng.normal(size=3)
    n = n / np.linalg.norm(n)
    return sum(c * s for c, s in zip(n, paulis))


def test_lp_vs_oracle_stratified():
    """Criterion 5 with both verdicts well represented.

    Criterion 5's random states all fall inside the local set, so only the
    singlet exercises the infeasible branch there.  Here partially entangled
    states with white noise are probed at perturbed CHSH-optimal settings,
    which puts most of them outside.
    """
    rng = np.random.default_rng(acceptance.SEED + 50)
    counts = {"inside": 0, "outside": 0}
    disagreements = []
    for i in range(200):
        theta, p = rng.uniform(0.3, np.pi / 4), rng.uniform(0.7, 1.0)
        psi = np.array([0, np.cos(theta), -np.sin(theta), 0], dtype=complex)
        rho = make_density(
            p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4, (2, 2)
        )
        _, s = chsh_maximize(rho)
        a = [_perturbed(rng, m, 0.15) for m in (s.a1, s.a2)]
        b = [_perturbed(rng, m, 0.15) for m in (s.b1, s.b2)]
        verdict = bell_polytope_oracle(correlation_table(rho, tuple(a), tuple(b)))
        counts[verdict] += 1
        ctx = acceptance._involution_context(a, b, 1)
        status = lchv_feasibility(rho, ctx, 1).status
        if (status == "infeasible") != (verdict == "outside"):
            disagreements.append((i, verdict, status))
    assert counts["outside"] >= 100 and counts["inside"] >= 40, counts
    assert disagreements == []
