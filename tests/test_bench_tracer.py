"""The benchmark's tracer must find every layer it wraps.

``bench/spans.py`` wraps module attributes of ``nonloc`` by name and raises
when one is missing, so a refactor that renames or drops a traced function
fails here instead of reading as zero time in a per-layer metric.
"""

import importlib.util
import sys
from pathlib import Path

import nonloc

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_finds_every_target(monkeypatch):
    # no bytecode cache next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {name for _, _, name, _ in spans._targets(nonloc)}
    assert names == {
        "measurement.tables", "feasibility.lp", "feasibility.highs",
        "feasibility.nnls", "feasibility.chsh", "hvmodels.verify",
        "hvmodels.build", "hvmodels.model_tables",
    }
