"""The four benchmark workloads: inputs, the timed calls, and their checks.

Each workload builds a pool of items from the seed (numpy arrays turned into
``DensityMatrix`` and ``Context`` objects: that is set-up), times one call
sequence per item, and checks every item's outputs outside the timed region.
Items beyond the pool reuse it in order.  Every call into ``nonloc`` goes
through a module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

import inputs

VERIFY_TOL = 1e-8  # verify_model tolerance, as lchv_feasibility uses internally
REPLAY_TOL = 1e-8  # independent replay of model tables against rho
WEIGHT_TOL = 1e-9
CHSH_TOL = 1e-6
LABELS = ("+1", "-1")  # outcome labels of a +-1 involution's ideal measurement


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # separates the workloads' random streams
    pool: int  # distinct items built in set-up
    window: int  # items whose counts must repeat exactly across runs
    make: Callable  # (nl, rng, index) -> item dict
    run: Callable  # (nl, item) -> outputs; the timed region
    check: Callable  # (nl, item, outputs, rng) -> (problems, extras)


def _context(nl, a, b, lengths):
    def fams(mats, prefix):
        return tuple(
            nl.measurement.OperationFamily.ideal(
                nl.measurement.Observable.from_matrix(m, f"{prefix}{i}"), f"{prefix}{i}"
            )
            for i, m in enumerate(mats)
        )

    return nl.hvmodels.Context(fams(a, "a"), fams(b, "b"), *lengths)


def _settings(a, b) -> dict:
    out = {(1, f"a{i}"): m for i, m in enumerate(a)}
    out.update({(2, f"b{i}"): m for i, m in enumerate(b)})
    return out


def _werner(c: float) -> np.ndarray:
    """(1/2)(1/2 + c) I - c F on C^2 (x) C^2, F the swap."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    return (0.5 * (0.5 + c) * np.eye(4) - c * swap).astype(complex)


def _singlet() -> np.ndarray:
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


# --- independent replay -----------------------------------------------------


def collected_paths(lengths: tuple[int, int]):
    """Collected sequences (all side-1 steps, then side-2) as step paths,
    with at most ``lengths[s - 1]`` steps on side s."""
    per_side = []
    for side, prefix, length in ((1, "a", lengths[0]), (2, "b", lengths[1])):
        names = [f"{prefix}0", f"{prefix}1"]
        per_side.append([
            tuple((side, n) for n in choice)
            for k in range(length + 1)
            for choice in itertools.product(names, repeat=k)
        ])
    return [p1 + p2 for p1 in per_side[0] for p2 in per_side[1] if p1 or p2]


def interleaved_paths(length: int):
    """Every time-ordered path with at most ``length`` steps per side."""
    steps = [(1, "a0"), (1, "a1"), (2, "b0"), (2, "b1")]
    out = []
    frontier = [()]
    while frontier:
        grown = []
        for path in frontier:
            for step in steps:
                if sum(s == step[0] for s, _ in path) < length:
                    grown.append(path + (step,))
        out.extend(grown)
        frontier = grown
    return out


def interleaved_count(length: int) -> int:
    """Number of interleaved_paths(length), counted in closed form."""
    return sum(
        comb(i + j, i) * 2 ** (i + j)
        for i in range(length + 1)
        for j in range(length + 1)
    ) - 1


def sequence_probability(rho, settings, path, outs) -> float:
    """tr(rho E1 (x) E2) with E_s = K_s^dag K_s, K_s the product of the
    own-side projectors (1 + o A)/2 in time order."""
    k = {1: np.eye(2, dtype=complex), 2: np.eye(2, dtype=complex)}
    for (side, name), o in zip(path, outs):
        proj = (np.eye(2) + float(o) * settings[(side, name)]) / 2.0
        k[side] = proj @ k[side]
    effect = np.kron(k[1].conj().T @ k[1], k[2].conj().T @ k[2])
    return float(np.real(np.trace(rho @ effect)))


def replay(model, rho, settings, paths, rng, n_sample: int) -> list[str]:
    """Compare the model's public tables with sequence_probability on a
    seeded sample of paths."""
    problems = []
    picks = rng.choice(len(paths), size=min(n_sample, len(paths)), replace=False)
    for idx in sorted(picks):
        path = paths[idx]
        if model.shape == "causal":
            table = model.distribution_interleaved(path)
        else:
            table = model.distribution_collected(
                tuple(n for s, n in path if s == 1), tuple(n for s, n in path if s == 2)
            )
        expected = {
            outs: sequence_probability(rho, settings, path, outs)
            for outs in itertools.product(LABELS, repeat=len(path))
        }
        for outs in set(table) | set(expected):
            dev = abs(table.get(outs, 0.0) - expected.get(outs, 0.0))
            if dev > REPLAY_TOL:
                problems.append(f"replay {path} {outs}: deviation {dev:.2e}")
                break
    return problems


def _check_verdict(res, expected: str, item, rng, n_replay: int) -> list[str]:
    problems = []
    if res.status != expected:
        problems.append(f"verdict {res.status}, expected {expected}")
    if res.status == "feasible":
        w = np.array([c["weight"] for c in res.certificate])
        if w.size == 0 or w.min() < 0 or abs(w.sum() - 1.0) > WEIGHT_TOL:
            problems.append("certificate weights not a distribution")
        if not res.report.passed:
            problems.append(f"certificate report failed: {res.report.summary()}")
        problems += replay(res.model, item["rho"], item["settings"],
                           collected_paths(item["lengths"]), rng, n_replay)
    elif res.status == "infeasible":
        if not res.witness or not res.witness["separation"] > 0:
            problems.append("infeasible verdict without a positive separation")
    return problems


# --- lp-scan ------------------------------------------------------------------


def _lp_scan_make(nl, rng, index):
    rho = inputs.random_state(rng, rng.uniform(0.3, 1.0))
    if index % 2 == 0:
        a, b = inputs.random_involutions(rng), inputs.random_involutions(rng)
    else:
        a, b = inputs.near_optimal_involutions(rng, rho, noise=0.15)
    return {"rho": rho, "a": a, "b": b, "settings": _settings(a, b), "lengths": (1, 1),
            "state": nl.states.make_density(rho, (2, 2)), "ctx": _context(nl, a, b, (1, 1))}


def _lp_scan_run(nl, item):
    value, _ = nl.feasibility.chsh_maximize(item["state"])
    return value, nl.feasibility.lchv_feasibility(item["state"], item["ctx"], 1)


def _lp_scan_check(nl, item, out, rng):
    value, res = out
    closed = inputs.chsh_closed_form(item["rho"])
    problems = []
    if value > closed + CHSH_TOL:
        problems.append(f"CHSH {value} above the closed form {closed}")
    if "inside" not in item:  # depends on the input alone: once per pool item
        table = nl.feasibility.correlation_table(item["state"], tuple(item["a"]), tuple(item["b"]))
        item["inside"] = nl.feasibility.bell_polytope_oracle(table) == "inside"
    problems += _check_verdict(res, "feasible" if item["inside"] else "infeasible", item, rng, 2)
    return problems, {"shortfall": value < closed - CHSH_TOL, "verdict": res.status}


# --- lp-deep ------------------------------------------------------------------

DEEP_C = (0.1, 0.2, 0.25)


def _lp_deep_make(nl, rng, index):
    kind = index % (len(DEEP_C) + 1)
    if kind < len(DEEP_C):
        rho, expected = _werner(DEEP_C[kind]), "feasible"
        a, b = inputs.random_involutions(rng), inputs.random_involutions(rng)
    else:
        rho, expected = _singlet(), "infeasible"
        a, b = inputs.singlet_settings()
    return {"rho": rho, "settings": _settings(a, b), "lengths": (2, 2), "expected": expected,
            "state": nl.states.make_density(rho, (2, 2)), "ctx": _context(nl, a, b, (2, 2))}


def _lp_deep_run(nl, item):
    return nl.feasibility.lchv_feasibility(item["state"], item["ctx"], 2)


def _lp_deep_check(nl, item, res, rng):
    return _check_verdict(res, item["expected"], item, rng, 8), {"verdict": res.status}


# --- verify-local -------------------------------------------------------------

LOCAL_LEN = (3, 2)  # 189 atoms, 104 sequences; (3, 3) takes ~1.3 s an item


def _verify_local_make(nl, rng, index):
    rho = _werner(rng.uniform(0.05, 0.25))
    a, b = inputs.random_involutions(rng), inputs.random_involutions(rng)
    return {"rho": rho, "settings": _settings(a, b),
            "state": nl.states.make_density(rho, (2, 2)),
            "ctx1": _context(nl, a, b, (1, 1)), "ctx": _context(nl, a, b, LOCAL_LEN)}


def _verify_local_run(nl, item):
    h, state = nl.hvmodels, item["state"]
    lp = nl.feasibility.lchv_feasibility(state, item["ctx1"], 1)
    coupled = h.couple_lchv_d2(lp.model, item["ctx"])
    rep_det = h.verify_model(coupled, state, tol=VERIFY_TOL)
    stoch = h.deterministic_to_stochastic(coupled)
    rep_stoch = h.verify_model(stoch, state, tol=VERIFY_TOL)
    back = h.stochastic_to_deterministic(stoch)
    return lp, coupled, rep_det, stoch, rep_stoch, back


def _verify_local_check(nl, item, out, rng):
    lp, coupled, rep_det, stoch, rep_stoch, back = out
    problems = [] if lp.status == "feasible" else [f"k=1 LP verdict {lp.status}"]
    n_seq = (2 ** (LOCAL_LEN[0] + 1) - 1) * (2 ** (LOCAL_LEN[1] + 1) - 1) - 1
    for label, rep in (("deterministic", rep_det), ("stochastic", rep_stoch)):
        if not rep.passed:
            problems.append(f"{label} verification failed: {rep.summary()}")
        if rep.n_sequences != n_seq:
            problems.append(f"{label} verified {rep.n_sequences} sequences, expected {n_seq}")
    if len(back.space) != len(coupled.space):
        problems.append(f"round trip has {len(back.space)} atoms, expected {len(coupled.space)}")
    paths = collected_paths(LOCAL_LEN)
    for model in (coupled, stoch, back):
        problems += replay(model, item["rho"], item["settings"], paths, rng, 8)
    return problems, {}


# --- verify-causal ------------------------------------------------------------

CAUSAL_LEN = 2  # 149 atoms, 164 sequences; at 3 one item takes ~10 s


def _verify_causal_make(nl, rng, index):
    rho = inputs.random_state(rng, rng.uniform(0.3, 0.9))
    a, b = inputs.random_involutions(rng), inputs.random_involutions(rng)
    return {"rho": rho, "settings": _settings(a, b),
            "state": nl.states.make_density(rho, (2, 2)),
            "ctx": _context(nl, a, b, (CAUSAL_LEN, CAUSAL_LEN))}


def _verify_causal_run(nl, item):
    model = nl.hvmodels.trivial_causal_model(item["state"], item["ctx"])
    return model, nl.hvmodels.verify_model(model, item["state"], tol=VERIFY_TOL)


def _verify_causal_check(nl, item, out, rng):
    model, rep = out
    problems = [] if rep.passed else [f"verification failed: {rep.summary()}"]
    n_seq = interleaved_count(CAUSAL_LEN)
    if rep.n_sequences != n_seq:
        problems.append(f"verified {rep.n_sequences} sequences, expected {n_seq}")
    problems += replay(model, item["rho"], item["settings"],
                       interleaved_paths(CAUSAL_LEN), rng, 16)
    return problems, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp-scan", 1, 128, 64, _lp_scan_make, _lp_scan_run, _lp_scan_check),
        Workload("lp-deep", 2, 48, 4, _lp_deep_make, _lp_deep_run, _lp_deep_check),
        Workload("verify-local", 3, 48, 4, _verify_local_make, _verify_local_run,
                 _verify_local_check),
        Workload("verify-causal", 4, 32, 4, _verify_causal_make, _verify_causal_run,
                 _verify_causal_check),
    )
}


def build_pool(nl, workload: Workload, seed: int) -> list[dict]:
    return [workload.make(nl, inputs.item_rng(seed, workload.tag, i), i)
            for i in range(workload.pool)]
