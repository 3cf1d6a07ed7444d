"""Finite hidden-variables models for sequential measurements.

A deterministic model is a finite weighted sample space together with, for
every atom and every admissible sequence of observable choices, the realized
outcome string.  ``DeterministicModel.index`` stores these as one array per
sequence: each atom's outcome string as its index in label-product order.
Responses never read later choices (causality is structural: the
constructor checks that each index extends its prefix's), and in the
``local_causal`` shape each side's responses read only that side's choices
(locality is structural too).  ``DeterministicModel.from_responses`` is the
one decoder of response trees (model JSON, hand-written models);
``responses`` decodes the index back into trees.  Stochastic models replace
responses with per-side outcome kernels composed by the chain rule.

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
from one contraction with the state.  On the model side each table is a
weighted count of the stored indices (deterministic models) or a matrix
product of chain-rule probability matrices from one pass over (atom, choice
sequence) (stochastic models); ``stochastic_to_deterministic`` enumerates its
realized trees on the same pass.  The public ``distribution_*`` methods are
thin wrappers over the same arrays.
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

    ``shape`` is ``"causal"`` (responses to time-ordered step sequences) or
    ``"local_causal"`` (per-side responses to own-side choice sequences).
    ``index[path]`` (causal) or ``index[side][choices]`` (local_causal) is
    an ``intp`` array over atoms: each atom's outcome string as its index in
    label-product order, first step most significant (as in
    ``QuantumTables``).  The constructor requires every key of the context
    and checks that each key's indices extend its prefix's by one outcome,
    so every model is causal (and, per side, local) by construction.
    ``responses`` and ``response`` decode the index into outcome tuples.
    """

    space: FiniteSampleSpace
    shape: str
    context: Context
    index: dict

    def __post_init__(self) -> None:
        checked = {
            side: _checked_index(_table(self.index, side), side, keys, labels, len(self.space))
            for side, keys, labels in _response_tables(self.context, self.shape)
        }
        object.__setattr__(self, "index", _shaped(self.shape, checked))

    @classmethod
    def from_responses(
        cls, space: FiniteSampleSpace, shape: str, ctx: Context, trees: dict
    ) -> DeterministicModel:
        """Model from response trees: ``trees[atom]`` maps step paths to
        outcome tuples (causal) or holds one tree per side, keyed 1 and 2,
        over own-side choice sequences (local_causal).  Raises ``ValueError``
        naming the first sequence with a missing response, an unlisted
        outcome, or a response that does not extend the one to its prefix."""
        per_atom = [trees.get(atom, {}) for atom in space.atoms]
        index = {}
        for side, keys, labels in _response_tables(ctx, shape):
            side_trees = per_atom if side is None else [t.get(side, {}) for t in per_atom]
            index[side], bad = _response_indices(side_trees, keys, labels)
            if bad is not None:
                raise ValueError(f"missing or unlisted response at {_key_name(side, bad)}")
        return cls(space, shape, ctx, _shaped(shape, index))

    @property
    def responses(self) -> dict:
        """Read-only view of ``index``, decoded on each access:
        ``{atom: {path: outcomes}}`` (causal) or
        ``{atom: {1: {choices: outcomes}, 2: {...}}}`` (local_causal)."""
        trees = {}
        for side, keys, labels in _response_tables(self.context, self.shape):
            strings = _decoded(_table(self.index, side), labels)
            rows = zip(*(strings[k] for k in keys)) if keys else [()] * len(self.space)
            trees[side] = [dict(zip(keys, row)) for row in rows]
        if self.shape == "causal":
            return dict(zip(self.space.atoms, trees[None]))
        return {a: {1: t1, 2: t2} for a, t1, t2 in zip(self.space.atoms, trees[1], trees[2])}

    def response(self, atom: str, side: int, choices: tuple[str, ...]):
        if self.shape != "local_causal":
            raise ValueError("per-side responses require local_causal shape")
        labels = [self.context.labels(side)[n] for n in choices]
        j = self.index[side][choices][self.space.atoms.index(atom)]
        digits = np.unravel_index(j, [len(lab) for lab in labels])
        return tuple(lab[o] for lab, o in zip(labels, digits))

    def _flat_index(self, path: tuple[StepKey, ...]) -> np.ndarray:
        """Every atom's outcome-string index for ``path``: in the path's time
        order (causal), or in collected order, side-1 steps first
        (local_causal)."""
        if self.shape == "causal":
            return self.index[path]
        flat = np.zeros(len(self.space), dtype=np.intp)
        for side, key in zip((1, 2), _split(path)):
            if key:
                labels = self.context.labels(side)
                flat = flat * _n_strings(labels[n] for n in key) + self.index[side][key]
        return flat

    def distribution_interleaved(
        self, path: tuple[StepKey, ...]
    ) -> dict[tuple[str, ...], float]:
        """Outcome table for a time-ordered step sequence.

        Keys are the outcome strings some atom realizes.
        """
        labels = _step_labels(self.context)
        flat = self._flat_index(path)
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

    def _side_arrays(self, side: int, keys):
        """``_chain_probabilities`` of this side's kernels over ``keys``."""
        kernels = [self.kernels.get(a, {}).get(side, {}) for a in self.space.atoms]
        return _chain_probabilities(kernels, keys, self.context.labels(side))

    def _joint_table(self, probs1, probs2) -> np.ndarray:
        return (probs1 * self.space.weights[:, None]).T @ probs2

    def distribution_collected(
        self, choices1: tuple[str, ...], choices2: tuple[str, ...]
    ) -> dict[tuple[str, ...], float]:
        """Outcome table with all side-1 steps taken before side-2 steps.

        Keys are the outcome strings the chain rule reaches at some atom,
        including those a kernel gives probability zero at the last step.  A
        kernel missing where the chain rule needs it, or giving an outcome
        its family does not list, raises ``ValueError`` naming the sequence.
        """
        probs, reached, step_labels = [], [], []
        for side, key in ((1, choices1), (2, choices2)):
            p, _, r, bad = self._side_arrays(side, _prefixes(key))
            if bad is not None:
                raise ValueError(f"missing kernel or unlisted outcome at {_key_name(side, bad)}")
            probs.append(p[key])
            reached.append(r[key].astype(float))
            step_labels += [self.context.labels(side)[n] for n in key]
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


def _key_name(side: int | None, key: tuple) -> str:
    """A response key as ``side:name/...``; causal keys (side None) are
    step paths, own-side choices get their side."""
    steps = key if side is None else [(side, n) for n in key]
    return "/".join(f"{s}:{n}" for s, n in steps)


def _response_tables(ctx: Context, shape: str) -> list:
    """(side, keys, labels) of each response table of a ``shape`` model: one
    over the context's step paths (side None) for ``causal``, one per side
    over its own choice sequences for ``local_causal``.  Keys come after
    their prefixes; ``labels`` maps a key's last element to its outcomes."""
    if shape == "causal":
        return [(None, list(ctx.interleaved_sequences()), _step_labels(ctx))]
    if shape == "local_causal":
        return [(s, ctx.choice_sequences(s)[1:], ctx.labels(s)) for s in (1, 2)]
    raise ValueError(f"unknown shape {shape!r}")


def _table(index: dict, side: int | None) -> dict:
    return index if side is None else index.get(side, {})


def _shaped(shape: str, tables: dict):
    """A model's index from its tables by side (None: causal step paths)."""
    return tables[None] if shape == "causal" else tables


def _checked_index(table: dict, side, keys, labels: dict, n_atoms: int) -> dict:
    """``table`` over ``keys`` as intp arrays over the atoms.  Raises
    ``ValueError`` naming the first key whose array is missing, not one
    integer per atom, or breaks ``index // len(labels) == prefix index`` (0
    for one-step keys), which also bounds it to the key's outcome strings."""
    out = {(): np.zeros(n_atoms, dtype=np.intp)}
    for key in keys:
        idx = np.asarray(table[key]) if key in table else None
        if idx is None or idx.shape != (n_atoms,) or idx.dtype.kind not in "iu":
            fault = "are missing or not one integer per atom"
        elif (idx // len(labels[key[-1]]) == out[key[:-1]]).all():
            out[key] = idx.astype(np.intp, copy=False)
            continue
        elif idx.min() < 0 or idx.max() >= _n_strings(labels[x] for x in key):
            fault = "are out of range"
        else:
            fault = "do not extend the prefix's responses"
        raise ValueError(f"response indices at {_key_name(side, key)} {fault}")
    del out[()]
    return out


def _response_indices(trees: list[dict], keys, labels: dict):
    """Index of each tree's response among every key's outcome strings, in
    label-product order, and the first key at which some tree has no
    response or one that is no string of listed outcomes (None if none).
    Prefix consistency is left to ``DeterministicModel``."""
    indices = {}
    for key in keys:
        strings = itertools.product(*(labels[x] for x in key))
        position = {s: j for j, s in enumerate(strings)}
        try:
            indices[key] = np.array([position[t.get(key)] for t in trees], dtype=np.intp)
        except (KeyError, TypeError):  # missing, unlisted, unhashable
            return indices, key
    return indices, None


def _decoded(index: dict, labels: dict) -> dict:
    """Every atom's outcome tuple for each key of ``index``: the inverse of
    ``_response_indices``."""
    out = {}
    for key, idx in index.items():
        strings = list(itertools.product(*(labels[x] for x in key)))
        out[key] = [strings[j] for j in idx.tolist()]
    return out


def _chain_probabilities(kernels: list[dict], keys, labels: dict):
    """Chain-rule probabilities of each own-side choice sequence's outcome
    strings, one row per atom.

    ``kernels`` holds one side's kernel dict per atom; ``keys`` are choice
    sequences, each after its prefixes.  Only strings whose past has nonzero
    probability are extended.  Returns (probabilities, steps, reached, first
    key with a missing kernel or an unknown label, or None), the first three
    dicts of (atoms x outcome strings) arrays by key: ``steps[c]`` is the
    probability c's last kernel gives each string's last outcome, so that
    ``probs[c]`` is ``probs[c[:-1]]`` repeated per last outcome times
    ``steps[c]``; ``reached`` marks the strings a kernel was consulted for.
    """
    n_atoms = len(kernels)
    probs = {(): np.ones((n_atoms, 1))}
    reached = {(): np.ones((n_atoms, 1), dtype=bool)}
    steps: dict[tuple, np.ndarray] = {}
    strings: dict[tuple, list] = {(): [()]}
    for key in keys:
        lab = labels[key[-1]]
        position = {o: j for j, o in enumerate(lab)}
        parent = probs[key[:-1]]
        pasts = strings[key[:-1]]
        rows, cols, values = [], [], []
        for a, i in zip(*(x.tolist() for x in np.nonzero(parent))):
            dist = kernels[a].get((key, pasts[i]))
            if dist is None or not dist.keys() <= position.keys():
                return probs, steps, reached, key
            for o, q in dist.items():
                rows.append(a)
                cols.append(i * len(lab) + position[o])
                values.append(q)
        steps[key] = np.zeros((n_atoms, parent.shape[1] * len(lab)))
        steps[key][rows, cols] = values
        reached[key] = np.zeros(steps[key].shape, dtype=bool)
        reached[key][rows, cols] = True
        probs[key] = np.repeat(parent, len(lab), axis=1) * steps[key]
        strings[key] = [past + (o,) for past in pasts for o in lab]
    return probs, steps, reached, None


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
    atom_bounds = [(a, b) for a, b in zip(points, points[1:]) if b > a]
    if len(atom_bounds) > atom_budget:
        raise BudgetExceededError(
            f"{len(atom_bounds)} atoms exceed atom budget {atom_budget}"
        )
    atoms = tuple(f"a{i}" for i in range(len(atom_bounds)))
    bounds = np.array(atom_bounds)
    weights = bounds[:, 1] - bounds[:, 0]
    mids = bounds.mean(axis=1)
    index = {path: _cell_index(*cells[path], mids) for path in paths}
    space = FiniteSampleSpace(atoms, weights, intervals=tuple(atom_bounds))
    return DeterministicModel(space, "causal", ctx, index)


def _single_side_context(families: tuple[OperationFamily, ...], max_len: int) -> Context:
    return Context(families, (), max_len, 0)


def _own_side_index(m: DeterministicModel) -> dict:
    """The index of a causal model on a single-side context, keyed by choice
    sequences instead of step paths."""
    return {tuple(n for _, n in path): idx for path, idx in m.index.items()}


def product_local_model(
    rho1, rho2, ctx: Context, atom_budget: int = ATOM_BUDGET
) -> DeterministicModel:
    """Local causal model of a product state: independent per-side interval
    models on the product sample space.

    ``rho1``/``rho2`` are the one-side density matrices (plain arrays or
    DensityMatrix with trivial second factor).
    """
    m1, m2 = (
        trivial_causal_model(
            make_density(r.matrix if isinstance(r, DensityMatrix) else r, (d, 1)),
            _single_side_context(fams, cap), atom_budget,
        )
        for r, fams, cap, d in ((rho1, ctx.side1, ctx.max_len1, ctx.dims.d1),
                                (rho2, ctx.side2, ctx.max_len2, ctx.dims.d2))
    )
    n1, n2 = len(m1.space), len(m2.space)
    if n1 * n2 > atom_budget:
        raise BudgetExceededError("product space exceeds atom budget")
    # atom (i1, i2) sits at i1 * n2 + i2
    atoms = tuple(f"{a1}*{a2}" for a1 in m1.space.atoms for a2 in m2.space.atoms)
    weights = np.outer(m1.space.weights, m2.space.weights).ravel()
    index = {
        1: {c: np.repeat(idx, n2) for c, idx in _own_side_index(m1).items()},
        2: {c: np.tile(idx, n1) for c, idx in _own_side_index(m2).items()},
    }
    space = FiniteSampleSpace(atoms, weights)
    return DeterministicModel(space, "local_causal", ctx, index)


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
    atoms = tuple(f"m{i}:{a}" for i, m in enumerate(models) for a in m.space.atoms)
    weights = np.concatenate([wi * m.space.weights for m, wi in zip(models, w)])
    index = {
        side: {
            key: np.concatenate([_table(m.index, side)[key] for m in models])
            for key in keys
        }
        for side, keys, _ in _response_tables(ctx, shape)
    }
    space = FiniteSampleSpace(atoms, weights)
    return DeterministicModel(space, shape, ctx, _shaped(shape, index))


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
    labels = ctx.family(side, name).labels  # raises KeyError if absent
    new_ctx = _decrement_bound(ctx, side)
    # the table the first step answers in, and that step as its key head
    causal = m.shape == "causal"
    head = (side, name) if causal else name
    table = _table(m.index, None if causal else side)
    kept = table[(head,)] == (labels.index(outcome) if outcome in labels else -1)
    total = sum(m.space.weights[kept].tolist())
    if total <= PROB_FLOOR:
        raise ZeroProbabilityBranch(
            f"outcome {outcome!r} of {name!r} has probability {total:.3e}"
        )
    # a follow-up key's index is its full key's less the first outcome's digit
    key_labels = _step_labels(ctx) if causal else ctx.labels(side)
    shifted = {
        key[1:]: idx[kept] % _n_strings(key_labels[x] for x in key[1:])
        for key, idx in table.items()
        if len(key) > 1 and key[0] == head
    }
    index = shifted if causal else {
        side: shifted, 3 - side: {k: idx[kept] for k, idx in m.index[3 - side].items()}
    }
    atoms = tuple(a for a, keep in zip(m.space.atoms, kept.tolist()) if keep)
    space = FiniteSampleSpace(atoms, m.space.weights[kept] / total)
    return DeterministicModel(space, m.shape, new_ctx, index)


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

    Returns (atom weights, {(family, outcome) -> {follow-up choices -> index
    array over the shared atoms}}).
    """
    if follow_len == 0:
        return np.ones(1), {key: {} for key in projectors}
    d = fams[0].dim
    sub_ctx = _single_side_context(fams, follow_len)
    subs = {
        key: trivial_causal_model(
            make_density(proj / float(np.real(np.trace(proj))), (d, 1)), sub_ctx, atom_budget
        )
        for key, proj in projectors.items()
    }
    points = _dedupe_points({0.0, 1.0}.union(
        *(itertools.chain.from_iterable(sub.space.intervals) for sub in subs.values())
    ))
    bounds = np.array([(a, b) for a, b in zip(points, points[1:]) if b > a])
    mids = bounds.mean(axis=1)
    follow = {}
    for key, sub in subs.items():
        cells = _cell_index(*np.array(sub.space.intervals).T, mids)
        follow[key] = {c: idx[cells] for c, idx in _own_side_index(sub).items()}
    return bounds[:, 1] - bounds[:, 0], follow


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
    for side in (1, 2):
        for name in ctx.names(side):
            lhv1.context.family(side, name)
    projectors = {
        side: {(fam.name, lab): p for fam in ctx.families(side)
               for lab, p in _rank1_projector_labels(fam).items()}
        for side in (1, 2)
    }
    (w1, follow1), (w2, follow2) = (
        _interval_family_models(ctx.families(side), cap - 1, projectors[side], atom_budget)
        for side, cap in ((1, ctx.max_len1), (2, ctx.max_len2))
    )
    n_lhv, n1, n2 = len(lhv1.space), len(w1), len(w2)
    n_total = n_lhv * n1 * n2
    if n_total > atom_budget:
        raise BudgetExceededError(f"{n_total} atoms exceed budget {atom_budget}")

    def side_index(side: int, follow: dict) -> dict:
        """Each response of one side over (lhv1 atom, refined atom): the
        first outcome from ``lhv1``, then the follow-up model of the state
        that outcome leaves, gathered at the refined atom."""
        labels = ctx.labels(side)
        out = {}
        for choices in ctx.choice_sequences(side)[1:]:
            name, rest = choices[0], choices[1:]
            position = [labels[name].index(o) for o in lhv1.context.labels(side)[name]]
            first = np.array(position)[lhv1.index[side][(name,)]]
            idx = first[:, None]
            if rest:
                follow_up = np.stack([follow[(name, o)][rest] for o in labels[name]])
                idx = idx * _n_strings(labels[n] for n in rest) + follow_up[first]
            out[choices] = idx
        return out

    # atom (a, i1, i2) sits at (a * n1 + i1) * n2 + i2
    shape = (n_lhv, n1, n2)
    index = {
        1: {c: np.broadcast_to(idx[:, :, None], shape).ravel()
            for c, idx in side_index(1, follow1).items()},
        2: {c: np.broadcast_to(idx[:, None, :], shape).ravel()
            for c, idx in side_index(2, follow2).items()},
    }
    atoms = tuple(
        f"{a}|{i1}|{i2}" for a in lhv1.space.atoms for i1 in range(n1) for i2 in range(n2)
    )
    weights = (
        lhv1.space.weights[:, None, None] * w1[None, :, None] * w2[None, None, :]
    ).ravel()
    space = FiniteSampleSpace(atoms, weights)
    return DeterministicModel(space, "local_causal", ctx, index)


def deterministic_to_stochastic(m: DeterministicModel) -> StochasticModel:
    """Degenerate (0/1-valued) kernels reproducing a local causal model.

    Each atom's node (choices, past) gets a point mass on its response's
    last outcome, ``past`` being its response to the prefix."""
    if m.shape != "local_causal":
        raise ValueError(
            "only local_causal models translate to per-side kernels"
        )
    kernels = {atom: {1: {}, 2: {}} for atom in m.space.atoms}
    per_atom = list(kernels.values())
    for side in (1, 2):
        for choices, strings in _decoded(m.index[side], m.context.labels(side)).items():
            for k, outs in zip(per_atom, strings):
                k[side][(choices, outs[:-1])] = {outs[-1]: 1.0}
    return StochasticModel(m.space, m.context, kernels)


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

    Trees are enumerated on the chain-rule walk (``_chain_probabilities``)
    of the atoms with nonzero weight, one row per partial tree: its atom,
    weight and outcome indices so far.  Each choice sequence splits a row
    into the outcomes its kernel gives positive probability, so trees come
    atom first, then by earlier responses, then by outcome in label order
    (the dict order of every kernel producer here).  An atom's side-1 and
    side-2 trees pair in row-major order as ``atom|t{i1}|t{i2}``.  Raises
    ``ValueError`` naming the first sequence with a missing kernel or an
    unlisted outcome, and ``BudgetExceededError`` when one side's trees over
    all atoms, or the pairs, exceed ``atom_budget``.
    """
    ctx = s.context
    live = s.space.weights != 0.0
    atoms = [a for a, keep in zip(s.space.atoms, live.tolist()) if keep]
    trees = []
    for side in (1, 2):
        keys = ctx.choice_sequences(side)[1:]
        kernels = [s.kernels.get(a, {}).get(side, {}) for a in atoms]
        _, steps, _, bad = _chain_probabilities(kernels, keys, ctx.labels(side))
        if bad is not None:
            raise ValueError(f"missing kernel or unlisted outcome at {_key_name(side, bad)}")
        owner, weight = np.arange(len(atoms)), np.ones(len(atoms))
        index = {(): np.zeros(len(atoms), dtype=np.intp)}
        for key in keys:
            n_out = len(ctx.labels(side)[key[-1]])
            step = steps[key].reshape(len(atoms), -1, n_out)[owner, index[key[:-1]]]
            rows, digit = np.nonzero(step > 0.0)
            if rows.size > atom_budget:
                raise BudgetExceededError(
                    f"realized response trees exceed budget {atom_budget}"
                )
            owner, weight = owner[rows], weight[rows] * step[rows, digit]
            index = {c: idx[rows] for c, idx in index.items()}
            index[key] = index[key[:-1]] * n_out + digit
        del index[()]
        trees.append((owner, weight, index))
    (owner1, weight1, index1), (owner2, weight2, index2) = trees
    # rows stay grouped by atom, so an atom's trees are consecutive rows
    counts = zip(*(np.bincount(o, minlength=len(atoms)).tolist() for o in (owner1, owner2)))
    names, pairs, first1, first2 = [], [], 0, 0
    for atom, (n1, n2) in zip(atoms, counts):
        if len(names) + n1 * n2 > atom_budget:
            raise BudgetExceededError(f"product space exceeds atom budget {atom_budget}")
        for i1, i2 in itertools.product(range(n1), range(n2)):
            names.append(f"{atom}|t{i1}|t{i2}")
            pairs.append((first1 + i1, first2 + i2))
        first1, first2 = first1 + n1, first2 + n2
    r1, r2 = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    weights = s.space.weights[live][owner1[r1]] * weight1[r1] * weight2[r2]
    index = {1: {c: idx[r1] for c, idx in index1.items()},
             2: {c: idx[r2] for c, idx in index2.items()}}
    space = FiniteSampleSpace(tuple(names), weights)
    return DeterministicModel(space, "local_causal", ctx, index)


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
        """The context family realizing the basis projectors, and for each
        projector j the position of that family's outcome realizing it."""
        for fam in lhv1.context.families(side):
            effects = [op.conj().T @ op for op in fam.operators]
            hits = [
                next((k for k, e in enumerate(effects)
                      if float(np.max(np.abs(e - p))) < 1e-8), None)
                for p in dec.projectors
            ]
            if None not in hits and len(set(hits)) == len(hits):
                return fam, hits
        raise MissingBasisObservable(
            f"no side-{side} family matches the joint eigenbasis"
        )

    matches = [match_basis(side, dec) for side, dec in zip((1, 2), decs)]
    new_ctx = Context(
        (OperationFamily.from_povm(povm1, names[0]),),
        (OperationFamily.from_povm(povm2, names[1]),),
        1,
        1,
    )
    kernels = {atom: {} for atom in lhv1.space.atoms}
    for side, (fam, hits), dec, name in zip((1, 2), matches, decs, names):
        for atom, k in zip(lhv1.space.atoms, lhv1.index[side][(fam.name,)].tolist()):
            row = dec.table[:, hits.index(k)]
            total = float(np.sum(row))
            if total <= 0:
                raise ValueError("joint-eigenbasis coefficients sum to zero")
            dist = {lab: float(v) / total for lab, v in zip(dec.labels, row)}
            kernels[atom][side] = {((name,), ()): dist}
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
    the path's (side, family) steps lists them.  ``state`` and ``context``
    are the inputs the tables were built from.
    """

    def __init__(self, rho: DensityMatrix, ctx: Context):
        if ctx.dims != rho.dims:
            raise ValueError("model context dims do not match the state")
        self.state, self.context = rho, ctx
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
    m,
    rho: DensityMatrix,
    tol: float = DEFAULT_VERIFY_TOL,
    *,
    quantum: QuantumTables | None = None,
) -> VerificationReport:
    """Compare a model's sequence distributions with the quantum ones.

    Causal-shape models are checked on every time-ordered step sequence in
    the context; local and stochastic models on every collected (side-1 then
    side-2) sequence, which exhausts their content since their per-side
    responses are interleaving-invariant and the two sides' operators
    commute.  Every outcome of every sequence is compared.

    Quantum tables come from ``quantum``, or from a new ``QuantumTables``
    when it is None; tables built for another state or context object than
    ``rho`` and ``m.context`` raise ``ValueError``.  A deterministic model's
    table is a weighted ``bincount`` of its stored outcome-string indices,
    which are well formed by construction.  For a stochastic model one pass
    over (atom, key) gives each key's (atoms x outcome strings) chain-rule
    probability matrix, and its table is P1^T diag(w) P2.  That pass checks
    that every kernel the chain rule needs exists and lists only known
    outcomes; a model that fails this fails verification with an infinite
    deviation, no table compared, and the offending sequence as
    ``worst_sequence``.
    """
    ctx = m.context
    if quantum is None:
        quantum = QuantumTables(rho, ctx)
    elif quantum.state is not rho or quantum.context is not ctx:
        raise ValueError("quantum tables were built for another state or context")
    labels = _step_labels(ctx)
    if m.shape == "causal":
        paths = list(ctx.interleaved_sequences())
        quantum_table = quantum.interleaved
    else:
        paths = [_collected_path(c1, c2) for c1, c2 in ctx.collected_sequences()]

        def quantum_table(path):
            return quantum.collected(*_split(path)).ravel()
    bad = None
    if isinstance(m, StochasticModel):
        (probs1, *_, bad1), (probs2, *_, bad2) = (
            m._side_arrays(side, ctx.choice_sequences(side)[1:]) for side in (1, 2)
        )
        bad = next(((s, key) for s, key in ((1, bad1), (2, bad2)) if key is not None), None)

        def model_table(path, size):
            c1, c2 = _split(path)
            return m._joint_table(probs1[c1], probs2[c2]).ravel()
    else:
        def model_table(path, size):
            return np.bincount(m._flat_index(path), m.space.weights, minlength=size)

    worst = 0.0
    worst_seq = "(none)"
    count = 0
    if bad is not None:
        worst = float("inf")
        worst_seq = _key_name(*bad)
        paths = []
    for path in paths:
        q = quantum_table(path)
        count += 1
        dev = np.abs(model_table(path, q.size) - q)
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
        sums = np.array([
            sum(dist.values()) for atom in m.space.atoms for side in (1, 2)
            for dist in m.kernels.get(atom, {}).get(side, {}).values()
        ])
        structural["kernel_normalization_deviation"] = float(
            np.max(np.abs(sums - 1.0), initial=0.0)
        )
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
            atom: _tree_to_json(tree, _step_segment) for atom, tree in m.responses.items()
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


def _atom_side(entry, atom: str, side: int):
    return hilbert.json_field(entry, f"side{side}", f"model atom {atom!r}")


def model_from_json(obj: dict):
    """Decode a model; a missing field raises a ValueError that names it,
    e.g. ``model has no field 'kernels'``."""
    def field(key: str):
        return hilbert.json_field(obj, key, "model")

    ctx = context_from_json(field("context"))
    space = FiniteSampleSpace(
        tuple(field("atoms")), np.asarray(field("weights"), dtype=float)
    )
    shape = field("shape")
    if shape == "causal":
        responses = {
            atom: _tree_from_json(tree, _segment_step)
            for atom, tree in field("responses").items()
        }
        return DeterministicModel.from_responses(space, shape, ctx, responses)
    if shape == "local_causal":
        responses = {
            atom: {
                side: _tree_from_json(_atom_side(trees, atom, side), str)
                for side in (1, 2)
            }
            for atom, trees in field("responses").items()
        }
        return DeterministicModel.from_responses(space, shape, ctx, responses)
    if shape == "stochastic":
        kernels = {
            atom: {
                side: {
                    _node_from_key(key): {k: float(v) for k, v in dist.items()}
                    for key, dist in _atom_side(sides, atom, side).items()
                }
                for side in (1, 2)
            }
            for atom, sides in field("kernels").items()
        }
        return StochasticModel(space, ctx, kernels)
    raise ValueError(f"unknown model shape {shape!r}")
