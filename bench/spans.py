"""Spans around calls into ``nonloc``, recorded from outside the program.

``Tracer.active`` replaces module attributes of ``nonloc`` with timing
wrappers for the duration of one item.  Lookups of module globals inside
``nonloc`` go through those attributes, so internal calls are caught too.
Each span is ``[name, start, end, parent, item, attrs]``; spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np

BUILDERS = (
    "trivial_causal_model",
    "couple_lchv_d2",
    "deterministic_to_stochastic",
    "stochastic_to_deterministic",
)


def _a_eq_mb(a_eq) -> float:
    """Storage of the A_eq handed to linprog: shape x itemsize when dense,
    the stored arrays when scipy.sparse."""
    if hasattr(a_eq, "nnz"):
        csr = a_eq.tocsr()
        size = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    else:
        a = np.asarray(a_eq)
        size = a.size * a.itemsize
    return size / 2**20


def _linprog_attrs(args, kwargs, res) -> dict:
    a_eq = kwargs["A_eq"] if "A_eq" in kwargs else args[3]
    rows, cols = a_eq.shape
    return {"rows": rows, "cols": cols, "a_eq_mb": _a_eq_mb(a_eq),
            "nit": int(getattr(res, "nit", 0))}


def _targets(nl):
    """(owner, attribute, span name, attrs(args, kwargs, result)) to wrap.

    A missing target raises: a layer that silently went unwrapped would read
    as zero time, which looks like a gain.  Model classes are wrapped only
    where they define the method themselves (StochasticModel has no
    ``distribution_interleaved``), but each must define one of the two.
    """
    m, f, h = nl.measurement, nl.feasibility, nl.hvmodels
    out = [
        (m, "sequence_distribution", "measurement.tables",
         lambda a, k, r: {"outcomes": len(r)}),
        (f, "lchv_feasibility", "feasibility.lp",
         lambda a, k, r: {"status": r.status}),
        (f, "linprog", "feasibility.highs", _linprog_attrs),
        (f, "nnls", "feasibility.nnls",
         lambda a, k, r: {"support": int(np.count_nonzero(r[0]))}),
        (f, "chsh_maximize", "feasibility.chsh", None),
        (h, "verify_model", "hvmodels.verify",
         lambda a, k, r: {"sequences": r.n_sequences}),
    ]
    out += [(h, name, "hvmodels.build", lambda a, k, r: {"atoms": len(r.space)})
            for name in BUILDERS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in out
               if not hasattr(owner, attr)]
    for cls in (h.DeterministicModel, h.StochasticModel):
        methods = [meth for meth in ("distribution_collected", "distribution_interleaved")
                   if meth in vars(cls)]
        if not methods:
            missing.append(f"{cls.__qualname__}.distribution_*")
        out += [(cls, meth, "hvmodels.model_tables", None) for meth in methods]
    if missing:
        raise RuntimeError("cannot trace, not found in nonloc: " + ", ".join(missing))
    return out


class Tracer:
    def __init__(self, nl):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item: int | None = None
        self._targets = _targets(nl)

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, self._item, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5]["raised"] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, item: int):
        """Wrap every target for the duration of one item."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in self._targets]
        self._item = item
        try:
            for (owner, attr, name, attrs), (_, _, fn) in zip(self._targets, saved):
                setattr(owner, attr, self._wrap(name, fn, attrs))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self._item = None


def _nested_in_same(spans, span) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == span[0]:
            return True
        parent = spans[parent][3]
    return False


def aggregate(spans, n_items: int, window: int) -> tuple[dict, dict]:
    """(times per item over all traced items, counts over items < window).

    Builder and model-table spans count only when outermost: couple_lchv_d2
    calls trivial_causal_model, and DeterministicModel.distribution_collected
    calls distribution_interleaved.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    busy: dict[str, float] = {}
    self_lp = 0.0
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    lp_calls = lp_decided = 0
    for i, s in enumerate(spans):
        name, start, end, _, item, attrs = s
        if name in ("hvmodels.build", "hvmodels.model_tables") and _nested_in_same(spans, s):
            continue
        busy[name] = busy.get(name, 0.0) + (end - start)
        if name == "feasibility.lp":
            self_lp += end - start - child_time[i]
        if item >= window:
            continue
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            if key != "status":
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
        if name == "feasibility.lp":
            lp_calls += 1
            lp_decided += attrs.get("status") in ("feasible", "infeasible")

    def per_call(key, name):
        return attr_sum.get(key, 0) / calls[name] if calls.get(name) else 0.0

    times = {f"{n}.s": busy.get(n, 0.0) / n_items for n in (
        "measurement.tables", "feasibility.lp", "feasibility.highs",
        "feasibility.nnls", "feasibility.chsh", "hvmodels.verify",
        "hvmodels.model_tables", "hvmodels.build")}
    times["feasibility.lp.self_s"] = self_lp / n_items
    counts = {f"{n}.calls": calls.get(n, 0) / window for n in (
        "measurement.tables", "feasibility.lp", "feasibility.chsh",
        "hvmodels.verify", "hvmodels.model_tables")}
    counts.update({
        "measurement.tables.outcomes": attr_sum.get("measurement.tables.outcomes", 0) / window,
        "feasibility.lp.rows": per_call("feasibility.highs.rows", "feasibility.highs"),
        "feasibility.lp.cols": per_call("feasibility.highs.cols", "feasibility.highs"),
        "feasibility.lp.a_eq_mb": per_call("feasibility.highs.a_eq_mb", "feasibility.highs"),
        "feasibility.lp.decided_share": lp_decided / lp_calls if lp_calls else 0.0,
        "feasibility.highs.iterations": attr_sum.get("feasibility.highs.nit", 0) / window,
        "feasibility.nnls.support": per_call("feasibility.nnls.support", "feasibility.nnls"),
        "hvmodels.verify.sequences": attr_sum.get("hvmodels.verify.sequences", 0) / window,
        "hvmodels.build.atoms": attr_sum.get("hvmodels.build.atoms", 0) / window,
    })
    return times, counts
