"""Finite hidden-variables models for sequential measurements.

A deterministic model is a finite weighted sample space together with
response trees: for every atom and every admissible sequence of observable
choices, the realized outcome string.  Responses never read later choices
(causality is structural), and in the ``local_causal`` shape each side's
responses read only that side's choices (locality is structural too).
Stochastic models replace responses with per-side outcome kernels composed by
the chain rule.

Constructions provided here:

* ``trivial_causal_model``: each step sequence's outcome probabilities, from
  ``QuantumTables``, laid end to end as cells of the unit interval, one atom
  per cell of their common refinement.  Reproduces the quantum sequence
  distributions of any state, with no locality.
* ``product_local_model``: independent per-side interval models for a product
  state (the locality base case).
* ``mix_models``: convex combination on the tagged disjoint union.
* ``collapse_model``: conditioning on the outcome of an allowed first step.
* ``couple_lchv_d2``: extends a single-time local model of the d=2 flip
  family to all finite sequences by handing follow-up measurements to
  single-system models of the collapsed (pure) states.
* Fine-style translations ``deterministic_to_stochastic`` /
  ``stochastic_to_deterministic`` between the two model kinds.
* ``extend_commuting_povm``: turns a single-time local model over basis
  observables into a stochastic model of a pair of commuting POVMs.

``verify_model`` replays every sequence distribution of a model against the
quantum one with one array engine.  ``QuantumTables`` builds each side's
effects along a prefix trie of its choice sequences and gets every table
from one contraction with the state.  On the model side, one pass over
(atom, choice sequence) gives outcome-string indices (deterministic models)
or chain-rule probability matrices (stochastic models), from which each
table is a weighted count or a matrix product.  The public
``distribution_*`` methods are thin wrappers over the same arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hilbert, measurement
from .hilbert import DimPair
from .measurement import OperationFamily
from .states import PROB_FLOOR, DensityMatrix, make_density

ATOM_BUDGET = 10**6
DEFAULT_VERIFY_TOL = 1e-10

StepKey = tuple[int, str]  # (side, family name)


class BudgetExceededError(RuntimeError):
    pass


class ZeroProbabilityBranch(ValueError):
    pass


class NotCommutingError(ValueError):
    def __init__(self, info: measurement.NotCommuting):
        self.info = info
        super().__init__(
            f"effects {info.pair} do not commute "
            f"(commutator norm {info.commutator_norm:.3e})"
        )


class MissingBasisObservable(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Context:
    """Finite measurement context: per-side observable menus and length caps."""

    side1: tuple[OperationFamily, ...]
    side2: tuple[OperationFamily, ...]
    max_len1: int
    max_len2: int

    def __post_init__(self) -> None:
        for side, bound in ((self.side1, self.max_len1), (self.side2, self.max_len2)):
            if bound < 0:
                raise ValueError("length bounds must be >= 0")
            if not side and bound > 0:
                raise ValueError("empty side cannot have a positive length bound")
            names = [f.name for f in side]
            if len(set(names)) != len(names):
                raise ValueError("duplicate family names on one side")
            dims = {f.dim for f in side}
            if len(dims) > 1:
                raise ValueError("families on one side have mismatched dimensions")
        if not self.side1 and not self.side2:
            raise ValueError("context needs at least one observable")

    @property
    def dims(self) -> DimPair:
        d1 = self.side1[0].dim if self.side1 else 1
        d2 = self.side2[0].dim if self.side2 else 1
        return DimPair(d1, d2)

    def families(self, side: int) -> tuple[OperationFamily, ...]:
        return self.side1 if side == 1 else self.side2

    def family(self, side: int, name: str) -> OperationFamily:
        for f in self.families(side):
            if f.name == name:
                return f
        raise KeyError(f"no side-{side} family named {name!r}")

    def names(self, side: int) -> tuple[str, ...]:
        return tuple(f.name for f in self.families(side))

    def labels(self, side: int) -> dict[str, tuple[str, ...]]:
        """Outcome labels of each side-``side`` family, by family name."""
        return {f.name: f.labels for f in self.families(side)}

    def choice_sequences(self, side: int) -> list[tuple[str, ...]]:
        """Own-side choice sequences within the cap, starting with ``()``.

        Length-major and lexicographic, so every sequence comes after its
        prefixes.
        """
        cap = self.max_len1 if side == 1 else self.max_len2
        seqs: list[tuple[str, ...]] = [()]
        for n in range(1, cap + 1):
            seqs.extend(itertools.product(self.names(side), repeat=n))
        return seqs

    def collected_sequences(self):
        """All (side-1 choices, side-2 choices) pairs within the caps.

        At least one side is non-empty.  Side-1 steps are taken first; since
        the two sides' operators commute, this ordering convention loses no
        generality for local models.
        """
        side2_seqs = self.choice_sequences(2)
        for c1 in self.choice_sequences(1):
            for c2 in side2_seqs:
                if c1 or c2:
                    yield c1, c2

    def interleaved_sequences(self):
        """All non-empty time-ordered step sequences within the per-side caps."""

        def extend(prefix: tuple[StepKey, ...], used1: int, used2: int):
            if prefix:
                yield prefix
            if used1 < self.max_len1:
                for name in self.names(1):
                    yield from extend(prefix + ((1, name),), used1 + 1, used2)
            if used2 < self.max_len2:
                for name in self.names(2):
                    yield from extend(prefix + ((2, name),), used1, used2 + 1)

        yield from extend((), 0, 0)

    def step_family(self, key: StepKey) -> OperationFamily:
        return self.family(key[0], key[1])


@dataclass(frozen=True, eq=False)
class FiniteSampleSpace:
    """Finitely many atoms with a probability weight each."""

    atoms: tuple[str, ...]
    weights: np.ndarray
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.atoms),):
            raise ValueError("weights do not match atoms")
        if np.any(w < -1e-15):
            raise ValueError("negative atom weight")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {float(np.sum(w))!r}, not 1")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True, eq=False)
class DeterministicModel:
    """Deterministic hidden-variables model over a finite context.

    ``shape`` is ``"causal"`` (one global response tree per atom, keyed by
    time-ordered step sequences) or ``"local_causal"`` (two per-side trees per
    atom, keyed by own-side choice sequences).  Response trees store realized
    outcome strings: ``responses[atom][choices] == outcomes``, with prefix
    consistency guaranteeing causality.
    """

    space: FiniteSampleSpace
    shape: str
    context: Context
    # causal: {atom: {path (StepKey tuple): outcome tuple}}
    # local_causal: {atom: {1: {names tuple: outcomes}, 2: {...}}}
    responses: dict

    def __post_init__(self) -> None:
        if self.shape not in ("causal", "local_causal"):
            raise ValueError(f"unknown shape {self.shape!r}")

    def response(self, atom: str, side: int, choices: tuple[str, ...]):
        if self.shape != "local_causal":
            raise ValueError("per-side responses require local_causal shape")
        return self.responses[atom][side][choices]

    def _trees(self, side: int | None) -> list[dict]:
        """Per-atom response trees: one side's (``local_causal``) or the
        global ones (``side`` None, ``causal``)."""
        if side is None:
            return [self.responses.get(a, {}) for a in self.space.atoms]
        return [self.responses.get(a, {}).get(side, {}) for a in self.space.atoms]

    def _side_arrays(self, side: int | None, keys, labels: dict):
        """Outcome-string index of every atom's response to each key, and the
        first key with a missing or malformed response (None if there is
        none); see ``_response_indices``."""
        return _response_indices(self._trees(side), keys, labels)

    def _joint_table(self, idx1, idx2, shape) -> np.ndarray:
        flat = idx1 * shape[1] + idx2
        return np.bincount(
            flat, weights=self.space.weights, minlength=shape[0] * shape[1]
        ).reshape(shape)

    def _key_indices(self, side: int | None, key: tuple, labels: dict):
        """(index of every atom's response to ``key``, ``labels`` extended by
        the outcomes the responses use that the families do not list).

        A pass with the families' labels that finds no bad key used no
        unlisted outcome, so only a failed pass extends the labels and runs
        again.
        """
        trees = self._trees(side)
        keys = _prefixes(key)
        indices, bad = _response_indices(trees, keys, labels)
        if bad is not None:
            labels = _with_observed(
                labels, ((k[-1], t[k][-1]) for k in keys for t in trees if t.get(k))
            )
            indices, bad = _response_indices(trees, keys, labels)
            _require_complete(bad)
        return indices[key], labels

    def distribution_interleaved(
        self, path: tuple[StepKey, ...]
    ) -> dict[tuple[str, ...], float]:
        """Outcome table for a time-ordered step sequence.

        Keys are the outcome strings some atom realizes.
        """
        labels = _step_labels(self.context)
        if self.shape == "causal":
            flat, labels = self._key_indices(None, path, labels)
        else:  # index the collected order, re-ordered to the path's below
            flat = 0
            for side, key in zip((1, 2), _split(path)):
                idx, side_labels = self._key_indices(
                    side, key, self.context.labels(side)
                )
                labels.update({(side, n): lab for n, lab in side_labels.items()})
                flat = flat * _n_strings(side_labels[n] for n in key) + idx
        size = _n_strings(labels[s] for s in path)
        values = np.bincount(flat, self.space.weights, minlength=size)
        hit = np.bincount(flat, minlength=size) > 0
        if self.shape != "causal":
            values, hit = (_interleave(t, path, labels) for t in (values, hit))
        return _table_dict(values, hit, [labels[s] for s in path])

    def distribution_collected(
        self, choices1: tuple[str, ...], choices2: tuple[str, ...]
    ) -> dict[tuple[str, ...], float]:
        """Outcome table with all side-1 steps taken before side-2 steps."""
        return self.distribution_interleaved(_collected_path(choices1, choices2))


@dataclass(frozen=True, eq=False)
class StochasticModel:
    """Stochastic local model: per-atom, per-side outcome kernels.

    ``kernels[atom][side][(choices, past)]`` is the outcome distribution of
    the last observable in ``choices`` given earlier own-side outcomes
    ``past``.  Joint sequence probabilities compose by the chain rule per
    side and multiply across sides, then average over atoms.
    """

    space: FiniteSampleSpace
    context: Context
    kernels: dict

    shape: str = field(default="stochastic", init=False)

    def kernel(
        self, atom: str, side: int, choices: tuple[str, ...], past: tuple[str, ...]
    ) -> dict[str, float]:
        return self.kernels[atom][side][(choices, past)]

    def _side_kernels(self, side: int) -> list[dict]:
        return [self.kernels.get(a, {}).get(side, {}) for a in self.space.atoms]

    def _side_arrays(self, side: int, keys, labels: dict):
        """(atoms x outcome strings) chain-rule probabilities of each
        own-side choice sequence, and the first key with a missing or
        malformed kernel (None if there is none); see
        ``_chain_probabilities``."""
        probs, _, bad = _chain_probabilities(self._side_kernels(side), keys, labels)
        return probs, bad

    def _joint_table(self, probs1, probs2, shape=None) -> np.ndarray:
        return (probs1 * self.space.weights[:, None]).T @ probs2

    def distribution_collected(
        self, choices1: tuple[str, ...], choices2: tuple[str, ...]
    ) -> dict[tuple[str, ...], float]:
        """Outcome table with all side-1 steps taken before side-2 steps.

        Keys are the outcome strings the chain rule reaches at some atom,
        including those a kernel gives probability zero at the last step.
        As in ``DeterministicModel._key_indices``, the labels are extended by
        unlisted outcomes only when a pass with the families' labels fails.
        """
        probs, reached, step_labels = [], [], []
        for side, key in ((1, choices1), (2, choices2)):
            kernels = self._side_kernels(side)
            keys = _prefixes(key)
            labels = self.context.labels(side)
            p, r, bad = _chain_probabilities(kernels, keys, labels)
            if bad is not None:
                labels = _with_observed(labels, (
                    (choices[-1], o) for kern in kernels
                    for (choices, _), dist in kern.items() if choices in keys
                    for o in dist
                ))
                p, r, bad = _chain_probabilities(kernels, keys, labels)
                _require_complete(bad)
            probs.append(p[key])
            reached.append(r[key].astype(float))
            step_labels += [labels[n] for n in key]
        return _table_dict(
            self._joint_table(*probs).ravel(),
            (reached[0].T @ reached[1]).ravel() > 0,
            step_labels,
        )


# --- sequence tables ----------------------------------------------------------
#
# Tables of a sequence are arrays over its outcome strings in label-product
# order: the string (o_1, ..., o_n) sits at the mixed-radix index of its label
# positions, first step most significant.


def _prefixes(key: tuple) -> list[tuple]:
    return [key[:k] for k in range(1, len(key) + 1)]


def _split(path: tuple[StepKey, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (tuple(n for s, n in path if s == 1), tuple(n for s, n in path if s == 2))


def _collected_path(c1: tuple[str, ...], c2: tuple[str, ...]) -> tuple[StepKey, ...]:
    return tuple((1, n) for n in c1) + tuple((2, n) for n in c2)


def _step_labels(ctx: Context) -> dict[StepKey, tuple[str, ...]]:
    return {(s, n): lab for s in (1, 2) for n, lab in ctx.labels(s).items()}


def _n_strings(step_labels) -> int:
    return math.prod(len(lab) for lab in step_labels)


def _interleave(table: np.ndarray, path: tuple[StepKey, ...], labels) -> np.ndarray:
    """A collected table (side-1 steps first) re-ordered to the time order of
    ``path``, flattened."""
    pos = [i for i, s in enumerate(path) if s[0] == 1]
    pos += [i for i, s in enumerate(path) if s[0] == 2]
    shape = [len(labels[path[i]]) for i in pos]
    return np.reshape(table, shape).transpose(np.argsort(pos)).ravel()


def _table_dict(values, hit, step_labels) -> dict[tuple[str, ...], float]:
    strings = itertools.product(*step_labels)
    return {s: float(v) for s, v, h in zip(strings, values, hit) if h}


def _with_observed(labels: dict, observed) -> dict:
    """``labels`` with each family's list extended, in sorted order, by the
    outcomes in ``observed`` ((family key, outcome) pairs) it lacks."""
    extra: dict = {}
    for x, o in observed:
        if o not in labels[x]:
            extra.setdefault(x, set()).add(o)
    return {x: lab + tuple(sorted(extra.get(x, ()))) for x, lab in labels.items()}


def _require_complete(bad) -> None:
    if bad is not None:
        raise ValueError(f"missing or prefix-inconsistent responses at {bad}")


def _response_indices(trees: list[dict], keys, labels: dict):
    """Index of each tree's response among every key's outcome strings.

    ``keys`` are choice sequences or step paths, each after its prefixes;
    ``labels`` maps a key's last element to its outcome labels.  A tree's
    response to a key must extend its response to the key's parent by one
    known label.  Returns ({key: int array over trees}, first key at which
    some tree fails that, or None).
    """
    indices = {(): np.zeros(len(trees), dtype=np.intp)}
    responses = {(): [()] * len(trees)}
    for key in keys:
        lab = labels[key[-1]]
        position = {o: j for j, o in enumerate(lab)}
        outs = [tree.get(key) for tree in trees]
        try:
            col = [position[o[-1]] for o in outs]
        except (KeyError, IndexError, TypeError):  # unknown label, (), None
            return indices, key
        if [o[:-1] for o in outs] != responses[key[:-1]]:
            return indices, key
        responses[key] = outs
        indices[key] = indices[key[:-1]] * len(lab) + np.array(col, dtype=np.intp)
    return indices, None


def _chain_probabilities(kernels: list[dict], keys, labels: dict):
    """Chain-rule probabilities of each own-side choice sequence's outcome
    strings, one row per atom.

    ``kernels`` holds one side's kernel dict per atom; ``keys`` are choice
    sequences, each after its prefixes.  Only strings whose past has nonzero
    probability are extended.  Returns (probabilities, reached, first key
    with a missing kernel or an unknown label, or None); ``reached`` marks the
    strings a kernel was consulted for.
    """
    n_atoms = len(kernels)
    probs = {(): np.ones((n_atoms, 1))}
    reached = {(): np.ones((n_atoms, 1), dtype=bool)}
    strings: dict[tuple, list] = {(): [()]}
    for key in keys:
        lab = labels[key[-1]]
        position = {o: j for j, o in enumerate(lab)}
        parent = probs[key[:-1]]
        pasts = strings[key[:-1]]
        p_new = np.zeros((n_atoms, parent.shape[1] * len(lab)))
        r_new = np.zeros(p_new.shape, dtype=bool)
        rows, cols, values = [], [], []
        nonzero = np.nonzero(parent)
        for a, i, p in zip(*(x.tolist() for x in nonzero), parent[nonzero].tolist()):
            dist = kernels[a].get((key, pasts[i]))
            if dist is None or not dist.keys() <= position.keys():
                return probs, reached, key
            for o, q in dist.items():
                rows.append(a)
                cols.append(i * len(lab) + position[o])
                values.append(p * q)
        p_new[rows, cols] = values
        r_new[rows, cols] = True
        probs[key], reached[key] = p_new, r_new
        strings[key] = [past + (o,) for past in pasts for o in lab]
    return probs, reached, None


def _dedupe_points(points: set[float], tol: float = 1e-12) -> list[float]:
    """Sorted breakpoints with near-coincident values merged.

    Different interleavings split [0, 1] at the same conditional boundary up
    to float drift; merging within tol kills the resulting sliver atoms
    while moving at most tol of mass per boundary.
    """
    out: list[float] = []
    for p in sorted(points):
        if out and p - out[-1] <= tol:
            continue
        out.append(p)
    if out[-1] != 1.0:
        out[-1] = 1.0
    return out


def _cell_index(lo: np.ndarray, hi: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Index of the cell [lo, hi) holding each midpoint; empty cells
    (hi <= lo) never hold one."""
    live = np.flatnonzero(hi > lo)
    return live[np.searchsorted(lo[live], mids, side="right") - 1]


def trivial_causal_model(
    rho: DensityMatrix, ctx: Context, atom_budget: int = ATOM_BUDGET
) -> DeterministicModel:
    """Causal (non-local) model matching the quantum sequence distributions.

    Each admissible step sequence partitions [0, 1] into cells, one per
    outcome string in label-product order, whose lengths are the joint
    outcome probabilities (``QuantumTables``) laid end to end.  A string's
    cell then lies inside its prefix's, so every partition refines those of
    the sequence's prefixes.  Atoms are the elementary intervals of the
    common refinement, so every sequence random variable is constant on each
    atom and all distributions are reproduced by construction.

    ``atom_budget`` bounds the atoms and the work: each step sequence counts
    its last step's outcomes once per string of its prefix with probability
    above ``PROB_FLOOR``.
    """
    if ctx.dims != rho.dims:
        raise ValueError(f"context dims {ctx.dims} do not match state {rho.dims}")
    quantum = QuantumTables(rho, ctx)
    labels = _step_labels(ctx)
    paths = list(ctx.interleaved_sequences())
    # cells[path] = (lo, hi) over its outcome strings; hi - lo is the joint
    # probability of (path, outcomes).
    cells: dict[tuple[StepKey, ...], tuple] = {(): (np.zeros(1), np.ones(1))}
    work = 0
    for path in paths:
        lo, hi = cells[path[:-1]]
        work += len(labels[path[-1]]) * int(np.count_nonzero(hi - lo > PROB_FLOOR))
        if work > atom_budget:
            raise BudgetExceededError(
                f"interval construction exceeded atom budget {atom_budget}"
            )
        p = np.maximum(quantum.interleaved(path), 0.0)
        hi = np.cumsum(p)
        cells[path] = (hi - p, hi)
    points = _dedupe_points(
        set(np.concatenate([b for lo_hi in cells.values() for b in lo_hi]).tolist())
    )
    atom_bounds = [
        (a, b) for a, b in zip(points, points[1:]) if b > a
    ]
    if len(atom_bounds) > atom_budget:
        raise BudgetExceededError(
            f"{len(atom_bounds)} atoms exceed atom budget {atom_budget}"
        )
    atoms = tuple(f"a{i}" for i in range(len(atom_bounds)))
    bounds = np.array(atom_bounds)
    weights = bounds[:, 1] - bounds[:, 0]
    mids = bounds.mean(axis=1)
    columns = []
    for path in paths:
        lo, hi = cells[path]
        strings = np.fromiter(
            itertools.product(*(labels[s] for s in path)), dtype=object, count=lo.size
        )
        columns.append(strings[_cell_index(lo, hi, mids)].tolist())
    rows = zip(*columns) if paths else [()] * len(atoms)
    responses = {atom: dict(zip(paths, row)) for atom, row in zip(atoms, rows)}
    space = FiniteSampleSpace(atoms, weights, intervals=tuple(atom_bounds))
    return DeterministicModel(space, "causal", ctx, responses)


def _single_side_context(families: tuple[OperationFamily, ...], max_len: int) -> Context:
    return Context(families, (), max_len, 0)


def _own_side_trees(m: DeterministicModel) -> list[dict]:
    """Each atom's tree of a causal model on a single-side context, keyed by
    choice sequences instead of step paths."""
    return [
        {tuple(n for _, n in path): outs for path, outs in m.responses[a].items()}
        for a in m.space.atoms
    ]


def product_local_model(
    rho1, rho2, ctx: Context, atom_budget: int = ATOM_BUDGET
) -> DeterministicModel:
    """Local causal model of a product state: independent per-side interval
    models on the product sample space.

    ``rho1``/``rho2`` are the one-side density matrices (plain arrays or
    DensityMatrix with trivial second factor).
    """
    d1, d2 = ctx.dims.d1, ctx.dims.d2
    side_models = []
    for rho_s, fams, cap, d in (
        (rho1, ctx.side1, ctx.max_len1, d1),
        (rho2, ctx.side2, ctx.max_len2, d2),
    ):
        mat = rho_s.matrix if isinstance(rho_s, DensityMatrix) else rho_s
        state = make_density(mat, (d, 1))
        sub = trivial_causal_model(
            state, _single_side_context(fams, cap), atom_budget
        )
        side_models.append(sub)
    m1, m2 = side_models
    atoms = []
    weights = []
    responses = {}
    if len(m1.space) * len(m2.space) > atom_budget:
        raise BudgetExceededError("product space exceeds atom budget")
    trees2 = _own_side_trees(m2)
    for a1, w1, tree1 in zip(m1.space.atoms, m1.space.weights, _own_side_trees(m1)):
        for a2, w2, tree2 in zip(m2.space.atoms, m2.space.weights, trees2):
            atom = f"{a1}*{a2}"
            atoms.append(atom)
            weights.append(float(w1) * float(w2))
            responses[atom] = {1: tree1, 2: tree2}
    space = FiniteSampleSpace(tuple(atoms), np.array(weights))
    return DeterministicModel(space, "local_causal", ctx, responses)


def _contexts_compatible(a: Context, b: Context) -> bool:
    if (a.max_len1, a.max_len2) != (b.max_len1, b.max_len2):
        return False
    for fa, fb in zip(a.side1 + a.side2, b.side1 + b.side2):
        if fa.name != fb.name or fa.labels != fb.labels:
            return False
        for ra, rb in zip(fa.operators, fb.operators):
            if ra.shape != rb.shape or float(np.max(np.abs(ra - rb))) > 1e-12:
                return False
    return len(a.side1) == len(b.side1) and len(a.side2) == len(b.side2)


def mix_models(models: list[DeterministicModel], mix_weights) -> DeterministicModel:
    """Convex combination of models sharing shape and context."""
    if not models:
        raise ValueError("empty mixture")
    w = np.asarray(mix_weights, dtype=float)
    if w.shape != (len(models),) or np.any(w < -1e-15):
        raise ValueError("mixture weights must be a nonnegative vector")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("mixture weights must sum to 1")
    shape = models[0].shape
    ctx = models[0].context
    for m in models[1:]:
        if m.shape != shape:
            raise ValueError("mixture components have mismatched shapes")
        if not _contexts_compatible(m.context, ctx):
            raise ValueError("mixture components have mismatched contexts")
    atoms = []
    weights = []
    responses = {}
    for i, (m, wi) in enumerate(zip(models, w)):
        for atom, wa in zip(m.space.atoms, m.space.weights):
            tagged = f"m{i}:{atom}"
            atoms.append(tagged)
            weights.append(float(wi) * float(wa))
            responses[tagged] = m.responses[atom]
    space = FiniteSampleSpace(tuple(atoms), np.array(weights))
    return DeterministicModel(space, shape, ctx, responses)


def _decrement_bound(ctx: Context, side: int) -> Context:
    if side == 1:
        if ctx.max_len1 < 1:
            raise ValueError("side-1 bound already exhausted")
        return Context(ctx.side1, ctx.side2, ctx.max_len1 - 1, ctx.max_len2)
    if ctx.max_len2 < 1:
        raise ValueError("side-2 bound already exhausted")
    return Context(ctx.side1, ctx.side2, ctx.max_len1, ctx.max_len2 - 1)


def collapse_model(
    m: DeterministicModel, first: tuple[StepKey, str]
) -> DeterministicModel:
    """Condition a deterministic model on the outcome of an allowed first step.

    Atoms answering differently are dropped, weights renormalize, and the
    follow-up responses (everything the retained atoms do after that first
    measurement) become the new model's responses.  The conditioned side's
    length cap drops by one.
    """
    (side, name), outcome = first
    ctx = m.context
    ctx.family(side, name)  # raises KeyError if absent
    new_ctx = _decrement_bound(ctx, side)
    # the tree the first step answers in, and that step as its key head
    causal = m.shape == "causal"
    head = (side, name) if causal else name
    trees = m._trees(None if causal else side)
    kept = [
        (atom, float(w), tree)
        for atom, w, tree in zip(m.space.atoms, m.space.weights, trees)
        if tree[(head,)][0] == outcome
    ]
    total = sum(w for _, w, _ in kept)
    if total <= PROB_FLOOR:
        raise ZeroProbabilityBranch(
            f"outcome {outcome!r} of {name!r} has probability {total:.3e}"
        )
    responses = {}
    for atom, _, tree in kept:
        shifted = {
            key[1:]: outs[1:]
            for key, outs in tree.items()
            if len(key) > 1 and key[0] == head
        }
        responses[atom] = shifted if causal else {**m.responses[atom], side: shifted}
    atoms = tuple(a for a, _, _ in kept)
    weights = np.array([w / total for _, w, _ in kept])
    space = FiniteSampleSpace(atoms, weights)
    return DeterministicModel(space, m.shape, new_ctx, responses)


def _rank1_projector_labels(fam: OperationFamily) -> dict[str, np.ndarray]:
    """Outcome label -> rank-1 projector for an ideal nondegenerate family."""
    out = {}
    for lab, op in zip(fam.labels, fam.operators):
        if float(np.max(np.abs(op @ op - op))) > 1e-10 or \
                float(np.max(np.abs(op - op.conj().T))) > 1e-10:
            raise ValueError(f"family {fam.name!r} is not projective")
        rank = int(round(float(np.real(np.trace(op)))))
        if rank != 1:
            raise ValueError(
                f"first observable {fam.name!r} is trivial or degenerate "
                f"(projector rank {rank})"
            )
        out[lab] = op
    return out


def _interval_family_models(
    fams: tuple[OperationFamily, ...],
    follow_len: int,
    projectors: dict[tuple[str, str], np.ndarray],
    atom_budget: int,
):
    """Single-system interval models for each pure collapsed state, refined to
    one shared sample space.

    Returns (atom weights, {(family, outcome) -> {atom index -> tree}}) where
    each tree maps follow-up choice tuples to outcome tuples.
    """
    d = fams[0].dim
    sub_ctx = _single_side_context(fams, follow_len)
    per_state = {}
    breakpoints = {0.0, 1.0}
    for key, proj in projectors.items():
        state = make_density(proj / float(np.real(np.trace(proj))), (d, 1))
        sub = trivial_causal_model(state, sub_ctx, atom_budget) if follow_len > 0 \
            else None
        per_state[key] = sub
        if sub is not None:
            for lo, hi in sub.space.intervals:
                breakpoints.add(lo)
                breakpoints.add(hi)
    points = _dedupe_points(breakpoints)
    bounds = [(a, b) for a, b in zip(points, points[1:]) if b > a]
    weights = [b - a for a, b in bounds]
    mids = np.array([(a + b) / 2.0 for a, b in bounds])
    trees: dict[tuple[str, str], list[dict]] = {}
    for key, sub in per_state.items():
        if sub is None:
            trees[key] = [{} for _ in bounds]
            continue
        lo, hi = np.array(sub.space.intervals).T
        sub_trees = _own_side_trees(sub)
        trees[key] = [sub_trees[i] for i in _cell_index(lo, hi, mids).tolist()]
    return weights, trees


def couple_lchv_d2(
    lhv1: DeterministicModel,
    ctx: Context,
    atom_budget: int = ATOM_BUDGET,
) -> DeterministicModel:
    """Extend a single-time local model on C^2 (x) C^2 to all sequences.

    The first measurement on each side is answered by ``lhv1``; because local
    dimension is 2 and first steps are ideal and nondegenerate, the state
    after both first measurements is the pure product of the selected
    eigenvectors, so every later measurement on a side is governed by that
    side's collapsed pure state alone.  Follow-up responses are therefore
    delegated to single-system interval models of those pure states, drawn
    independently of the first-step atom.
    """
    if lhv1.shape != "local_causal":
        raise ValueError("first-step model must be local_causal")
    if ctx.dims != DimPair(2, 2):
        raise ValueError("coupling construction requires local dimension 2")
    if lhv1.context.max_len1 < 1 or lhv1.context.max_len2 < 1:
        raise ValueError("first-step model must cover length-1 sequences")
    for name in ctx.names(1):
        lhv1.context.family(1, name)
    for name in ctx.names(2):
        lhv1.context.family(2, name)

    proj1: dict[tuple[str, str], np.ndarray] = {}
    proj2: dict[tuple[str, str], np.ndarray] = {}
    for fam in ctx.side1:
        for lab, p in _rank1_projector_labels(fam).items():
            proj1[(fam.name, lab)] = p
    for fam in ctx.side2:
        for lab, p in _rank1_projector_labels(fam).items():
            proj2[(fam.name, lab)] = p

    w1, trees1 = _interval_family_models(
        ctx.side1, ctx.max_len1 - 1, proj1, atom_budget
    )
    w2, trees2 = _interval_family_models(
        ctx.side2, ctx.max_len2 - 1, proj2, atom_budget
    )
    n_total = len(lhv1.space) * len(w1) * len(w2)
    if n_total > atom_budget:
        raise BudgetExceededError(f"{n_total} atoms exceed budget {atom_budget}")

    def side_tree(atom: str, side: int, trees, refined_idx: int) -> dict:
        names = ctx.names(side)
        cap = ctx.max_len1 if side == 1 else ctx.max_len2
        tree: dict[tuple[str, ...], tuple[str, ...]] = {}
        for first_name in names:
            first_out = lhv1.responses[atom][side][(first_name,)][0]
            follow = trees[(first_name, first_out)][refined_idx]
            tree[(first_name,)] = (first_out,)
            for n in range(1, cap):
                for rest in itertools.product(names, repeat=n):
                    tree[(first_name,) + rest] = (first_out,) + follow[rest]
        return tree

    atoms = []
    weights = []
    responses = {}
    for atom_w, ww in zip(lhv1.space.atoms, lhv1.space.weights):
        t2s = [side_tree(atom_w, 2, trees2, i2) for i2 in range(len(w2))]
        for i1, p1 in enumerate(w1):
            t1 = side_tree(atom_w, 1, trees1, i1)
            for i2, (p2, t2) in enumerate(zip(w2, t2s)):
                atom = f"{atom_w}|{i1}|{i2}"
                atoms.append(atom)
                weights.append(float(ww) * p1 * p2)
                responses[atom] = {1: t1, 2: t2}
    space = FiniteSampleSpace(tuple(atoms), np.array(weights))
    return DeterministicModel(space, "local_causal", ctx, responses)


def deterministic_to_stochastic(m: DeterministicModel) -> StochasticModel:
    """Degenerate (0/1-valued) kernels reproducing a local causal model."""
    if m.shape != "local_causal":
        raise ValueError(
            "only local_causal models translate to per-side kernels"
        )
    kernels = {}
    for atom in m.space.atoms:
        per_side = {1: {}, 2: {}}
        for side in (1, 2):
            for choices, outs in m.responses[atom][side].items():
                for k in range(1, len(choices) + 1):
                    node = (choices[:k], outs[: k - 1])
                    per_side[side][node] = {outs[k - 1]: 1.0}
        kernels[atom] = per_side
    return StochasticModel(m.space, m.context, kernels)


def _realized_trees(seqs, kernels: dict, budget: int) -> list[tuple[dict, float]]:
    """Every realized response tree of one side with its weight.

    ``seqs`` are the side's non-empty choice sequences, each after its
    prefixes; ``kernels`` maps each reachable node (choices, past) to its
    outcome distribution {outcome: p}.  A tree assigns outcomes only along
    its own realized pasts, so mutually exclusive branches are never
    instantiated together, and its weight is the product of the kernel
    probabilities it consumed; outcomes of probability zero start no tree.
    Trees come in lexicographic order of their responses to ``seqs``, each
    response in its distribution's order.  Raises ``BudgetExceededError``
    when there are more than ``budget`` trees.
    """
    partial: list[tuple[dict, float]] = [({}, 1.0)]
    for choices in seqs:
        new = []
        for tree, weight in partial:
            past = tree[choices[:-1]] if len(choices) > 1 else ()
            for out, p in kernels[(choices, past)].items():
                if p <= 0.0:
                    continue
                t = dict(tree)
                t[choices] = past + (out,)
                new.append((t, weight * p))
        partial = new
        if len(partial) > budget:
            raise BudgetExceededError(
                f"realized response trees exceed budget {budget}"
            )
    return partial


def stochastic_to_deterministic(
    s: StochasticModel, atom_budget: int = ATOM_BUDGET
) -> DeterministicModel:
    """Deterministic local causal model equal in distribution to ``s``.

    For each atom of the stochastic space, an independent outcome variable is
    attached to every reachable (choice sequence, own past) node of each
    side, and an atom of the new space is a joint realization of those
    variables: a pair of realized response trees.  Degenerate kernels
    contribute a single tree, so a degenerate stochastic model round-trips to
    its deterministic original.
    """
    ctx = s.context
    atoms = []
    weights = []
    responses = {}
    for atom, w in zip(s.space.atoms, s.space.weights):
        if float(w) == 0.0:
            continue
        trees1, trees2 = (
            _realized_trees(
                ctx.choice_sequences(side)[1:],
                s.kernels[atom].get(side, {}),
                atom_budget,
            )
            for side in (1, 2)
        )
        if len(atoms) + len(trees1) * len(trees2) > atom_budget:
            raise BudgetExceededError(
                f"product space exceeds atom budget {atom_budget}"
            )
        for i1, (t1, p1) in enumerate(trees1):
            for i2, (t2, p2) in enumerate(trees2):
                tagged = f"{atom}|t{i1}|t{i2}"
                atoms.append(tagged)
                weights.append(float(w) * p1 * p2)
                responses[tagged] = {1: t1, 2: t2}
    space = FiniteSampleSpace(tuple(atoms), np.array(weights))
    return DeterministicModel(space, "local_causal", ctx, responses)


def extend_commuting_povm(
    lhv1: DeterministicModel,
    povm1: measurement.Povm,
    povm2: measurement.Povm,
    names: tuple[str, str] = ("M1", "M2"),
) -> StochasticModel:
    """Stochastic single-time model of two commuting POVMs.

    Each POVM is jointly diagonalized; its effects then read
    ``effect(alpha) = sum_j table[alpha, j] P_j`` over rank-1 projectors.
    The input model must answer the basis observables (the families whose
    operations are exactly those projectors), and the kernel at each atom is
    the table row selected by the model's basis response.
    """
    if lhv1.shape != "local_causal":
        raise ValueError("base model must be local_causal")
    decs = []
    for povm in (povm1, povm2):
        dec = measurement.commuting_decompose(povm)
        if isinstance(dec, measurement.NotCommuting):
            raise NotCommutingError(dec)
        decs.append(dec)

    def match_basis(side: int, dec: measurement.CommutingDecomposition):
        """Find the context family realizing the basis projectors; map
        projector index j to that family's outcome label."""
        for fam in lhv1.context.families(side):
            mapping = {}
            ok = True
            for j, p in enumerate(dec.projectors):
                hit = None
                for lab, op in zip(fam.labels, fam.operators):
                    if float(np.max(np.abs(op.conj().T @ op - p))) < 1e-8:
                        hit = lab
                        break
                if hit is None:
                    ok = False
                    break
                mapping[j] = hit
            if ok and len(set(mapping.values())) == len(mapping):
                return fam, mapping
        raise MissingBasisObservable(
            f"no side-{side} family matches the joint eigenbasis"
        )

    fam1, map1 = match_basis(1, decs[0])
    fam2, map2 = match_basis(2, decs[1])
    new_ctx = Context(
        (OperationFamily.from_povm(povm1, names[0]),),
        (OperationFamily.from_povm(povm2, names[1]),),
        1,
        1,
    )
    kernels = {}
    for atom in lhv1.space.atoms:
        per_side = {}
        for side, fam, mapping, dec, name in (
            (1, fam1, map1, decs[0], names[0]),
            (2, fam2, map2, decs[1], names[1]),
        ):
            basis_out = lhv1.responses[atom][side][(fam.name,)][0]
            j = next(k for k, lab in mapping.items() if lab == basis_out)
            row = dec.table[:, j]
            total = float(np.sum(row))
            if total <= 0:
                raise ValueError("joint-eigenbasis coefficients sum to zero")
            dist = {
                lab: float(v) / total for lab, v in zip(dec.labels, row)
            }
            per_side[side] = {((name,), ()): dist}
        kernels[atom] = per_side
    return StochasticModel(lhv1.space, new_ctx, kernels)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a model against quantum sequence distributions."""

    passed: bool
    max_deviation: float
    worst_sequence: str
    n_sequences: int
    tol: float
    structural: dict

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max deviation {self.max_deviation:.3e} over "
            f"{self.n_sequences} sequences (tol {self.tol:.0e}); "
            f"worst at {self.worst_sequence}"
        )


def _effect_stacks(ctx: Context, side: int) -> dict[tuple[str, ...], np.ndarray]:
    """Effects K^dagger K, K = R_n ... R_1, of every outcome string of every
    own-side choice sequence, stacked in label-product order.

    The choice sequences are walked as a prefix trie: each sequence's stack
    of K extends its parent's by one step.
    """
    d = ctx.dims.d1 if side == 1 else ctx.dims.d2
    kraus = {(): np.eye(d, dtype=complex)[None]}
    for choices in ctx.choice_sequences(side)[1:]:
        ops = np.asarray(ctx.family(side, choices[-1]).operators)
        kraus[choices] = np.einsum(
            "lij,pjk->plik", ops, kraus[choices[:-1]]
        ).reshape(-1, d, d)
    return {c: np.einsum("pji,pjk->pik", k.conj(), k) for c, k in kraus.items()}


class QuantumTables:
    """Outcome tables of one state over every sequence of a context.

    A collected table (side-1 steps, then side-2 steps) is one contraction
    tr(rho E1 (x) E2) over a side-1 and a side-2 stack of effects (see
    ``_effect_stacks``), as an (n1 x n2) array.  Side-1 and side-2 operations
    commute, so an interleaved path's table is the collected table of its
    per-side choices with the outcomes re-ordered to the path's time order.
    Outcome strings are in label-product order, first step most significant,
    as the Kraus-product reference ``measurement.sequence_distribution`` of
    the path's (side, family) steps lists them.
    """

    def __init__(self, rho: DensityMatrix, ctx: Context):
        if ctx.dims != rho.dims:
            raise ValueError("model context dims do not match the state")
        d1, d2 = rho.dims.d1, rho.dims.d2
        self._rho = rho.matrix.reshape(d1, d2, d1, d2)
        self._labels = _step_labels(ctx)
        self._effects = {side: _effect_stacks(ctx, side) for side in (1, 2)}

    def collected(
        self, choices1: tuple[str, ...], choices2: tuple[str, ...]
    ) -> np.ndarray:
        return np.real(np.einsum(
            "ijkl,aki,blj->ab",
            self._rho, self._effects[1][choices1], self._effects[2][choices2],
        ))

    def interleaved(self, path: tuple[StepKey, ...]) -> np.ndarray:
        return _interleave(self.collected(*_split(path)), path, self._labels)


def verify_model(
    m, rho: DensityMatrix, tol: float = DEFAULT_VERIFY_TOL
) -> VerificationReport:
    """Compare a model's sequence distributions with the quantum ones.

    Causal-shape models are checked on every time-ordered step sequence in
    the context; local and stochastic models on every collected (side-1 then
    side-2) sequence, which exhausts their content since their per-side
    responses are interleaving-invariant and the two sides' operators
    commute.  Every outcome of every sequence is compared.

    Quantum tables come from ``QuantumTables``.  On the model side one pass
    over (atom, key) gives, per key, each atom's outcome-string index
    (deterministic models; the table is a weighted ``bincount``) or an
    (atoms x outcome strings) chain-rule probability matrix (stochastic
    models; the table is P1^T diag(w) P2).  The same pass checks that every
    response exists and extends the response to its prefix; a model that
    fails this fails verification with an infinite deviation, no table
    compared, and the offending sequence as ``worst_sequence``.
    """
    ctx = m.context
    quantum = QuantumTables(rho, ctx)
    labels = _step_labels(ctx)
    if m.shape == "causal":
        paths = list(ctx.interleaved_sequences())
        indices, bad = m._side_arrays(None, paths, labels)

        def tables(path):
            q = quantum.interleaved(path)
            return q, np.bincount(indices[path], m.space.weights, minlength=q.size)
    else:
        (arrays1, bad1), (arrays2, bad2) = (
            m._side_arrays(side, ctx.choice_sequences(side)[1:], ctx.labels(side))
            for side in (1, 2)
        )
        bad = None
        if bad1 is not None:
            bad = _collected_path(bad1, ())
        elif bad2 is not None:
            bad = _collected_path((), bad2)
        paths = [_collected_path(c1, c2) for c1, c2 in ctx.collected_sequences()]

        def tables(path):
            c1, c2 = _split(path)
            q = quantum.collected(c1, c2)
            return q.ravel(), m._joint_table(arrays1[c1], arrays2[c2], q.shape).ravel()

    worst = 0.0
    worst_seq = "(none)"
    count = 0
    if bad is not None:
        worst = float("inf")
        worst_seq = "/".join(f"{s}:{n}" for s, n in bad)
        paths = []
    for path in paths:
        q, model_table = tables(path)
        count += 1
        dev = np.abs(model_table - q)
        k = int(np.argmax(dev))
        if dev[k] > worst:
            worst = float(dev[k])
            outs = np.unravel_index(k, [len(labels[s]) for s in path])
            worst_seq = "/".join(
                f"{s}:{n}={labels[(s, n)][o]}" for (s, n), o in zip(path, outs)
            )
    structural: dict = {
        "shape": m.shape,
        "weight_sum_deviation": abs(float(np.sum(m.space.weights)) - 1.0),
        "min_weight": float(np.min(m.space.weights)) if len(m.space) else 0.0,
        "responses_read_only_past": bad is None,
        "per_side_responses": m.shape in ("local_causal", "stochastic"),
    }
    if isinstance(m, StochasticModel):
        kdev = 0.0
        for atom in m.space.atoms:
            for side in (1, 2):
                for dist in m.kernels.get(atom, {}).get(side, {}).values():
                    kdev = max(kdev, abs(sum(dist.values()) - 1.0))
        structural["kernel_normalization_deviation"] = kdev
    passed = worst <= tol and structural["weight_sum_deviation"] <= 1e-9
    return VerificationReport(passed, worst, worst_seq, count, tol, structural)


# --- JSON encodings ---------------------------------------------------------

def context_to_json(ctx: Context) -> dict:
    return {
        "side1": [measurement.family_to_json(f) for f in ctx.side1],
        "side2": [measurement.family_to_json(f) for f in ctx.side2],
        "max_len1": ctx.max_len1,
        "max_len2": ctx.max_len2,
    }


def context_from_json(obj: dict) -> Context:
    """Decode a context; a missing field raises a ValueError that names it
    and where it is, e.g. ``side1 family 'mz' has no field 'labels'``."""
    def field(key: str):
        return hilbert.json_field(obj, key, "context")

    return Context(
        *(tuple(measurement.family_from_json(f, f"{side} family") for f in field(side))
          for side in ("side1", "side2")),
        int(field("max_len1")),
        int(field("max_len2")),
    )


def _node_key(names, past) -> str:
    """Key ``n1/o1/.../nk`` of the node where choice ``nk`` follows choices
    ``n1 .. n(k-1)`` answered ``o1 .. o(k-1)``.

    A kernel node (choices, past) and the last response of a tree entry
    (names, outs) with ``past = outs[:-1]`` share it.
    """
    segs = [""] * (2 * len(names) - 1)
    segs[0::2], segs[1::2] = names, past
    return "/".join(segs)


def _node_from_key(key: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(names, past) of a ``_node_key`` key."""
    segs = key.split("/")
    return tuple(segs[0::2]), tuple(segs[1::2])


def _step_segment(step: StepKey) -> str:
    return f"{step[0]}:{step[1]}"


def _segment_step(seg: str) -> StepKey:
    side, name = seg.split(":", 1)
    return int(side), name


def _tree_to_json(tree: dict, segment) -> dict:
    """A response tree as {node key: last outcome}; ``segment`` writes one
    element of a tree key (a family name, or a causal step) as a name."""
    return {
        _node_key([segment(x) for x in key], outs[:-1]): outs[-1]
        for key, outs in tree.items()
    }


def _tree_from_json(obj: dict, step) -> dict:
    """Inverse of ``_tree_to_json``, with ``step`` reading a name back."""
    tree = {}
    for key, last in obj.items():
        names, past = _node_from_key(key)
        tree[tuple(map(step, names))] = past + (last,)
    return tree


def model_to_json(m) -> dict:
    base = {
        "atoms": list(m.space.atoms),
        "weights": [float(w) for w in m.space.weights],
        "shape": m.shape,
        "context": context_to_json(m.context),
    }
    if m.shape == "causal":
        base["responses"] = {
            atom: _tree_to_json(tree, _step_segment)
            for atom, tree in m.responses.items()
        }
    elif m.shape == "local_causal":
        base["responses"] = {
            atom: {f"side{side}": _tree_to_json(trees[side], str) for side in (1, 2)}
            for atom, trees in m.responses.items()
        }
    else:
        base["kernels"] = {
            atom: {
                f"side{side}": {
                    _node_key(choices, past): dict(dist)
                    for (choices, past), dist in m.kernels[atom][side].items()
                }
                for side in (1, 2)
            }
            for atom in m.space.atoms
        }
    return base


def model_from_json(obj: dict):
    ctx = context_from_json(obj["context"])
    space = FiniteSampleSpace(
        tuple(obj["atoms"]), np.asarray(obj["weights"], dtype=float)
    )
    shape = obj["shape"]
    if shape == "causal":
        responses = {
            atom: _tree_from_json(tree, _segment_step)
            for atom, tree in obj["responses"].items()
        }
        return DeterministicModel(space, "causal", ctx, responses)
    if shape == "local_causal":
        responses = {
            atom: {side: _tree_from_json(trees[f"side{side}"], str) for side in (1, 2)}
            for atom, trees in obj["responses"].items()
        }
        return DeterministicModel(space, "local_causal", ctx, responses)
    if shape == "stochastic":
        kernels = {
            atom: {
                side: {
                    _node_from_key(key): {k: float(v) for k, v in dist.items()}
                    for key, dist in sides[f"side{side}"].items()
                }
                for side in (1, 2)
            }
            for atom, sides in obj["kernels"].items()
        }
        return StochasticModel(space, ctx, kernels)
    raise ValueError(f"unknown model shape {shape!r}")
