"""Command-line front end.

Subcommands: werner, thresholds, popescu, lhv-check, build-model,
extend-povm, reproduce.  Standard output carries exactly one report
(JSON by default, csv on request); diagnostics go to standard error,
controlled by the NONLOC_LOG environment variable (error|info|debug).

Exit codes: 0 success / all-pass, 1 usage or input error, 2 numerical
indeterminacy (LP landed between decision thresholds), 3 acceptance
failure from ``reproduce``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import acceptance, feasibility, hvmodels, measurement, states
from .feasibility import LpNumericalFailure
from .hvmodels import Context

log = logging.getLogger("nonloc.cli")


class UsageError(Exception):
    """Bad flags, unreadable files, schema violations; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 1
        raise UsageError(message)


def _nine_digits(obj):
    """Recursively round floats to 9 significant digits for the report."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict, fmt: str) -> None:
    report = _nine_digits(report)
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        rows: list = []
        _flatten("", report, rows)
        sys.stdout.write("key,value\n")
        for key, val in rows:
            sval = json.dumps(val) if isinstance(val, str) else str(val)
            sys.stdout.write(f"{key},{sval}\n")


def _parse_c(token: str) -> float | Fraction:
    if "/" in token:
        return Fraction(token)
    return float(token)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"file {path!r} is not valid JSON: {exc}") from exc


def parse_state(token: str) -> states.DensityMatrix:
    """State strings: werner:D | werner_gen:D:C | singlet |
    maximally_mixed:D1:D2 | product:FILE1:FILE2 | file:PATH."""
    parts = token.split(":")
    try:
        if parts[0] == "werner" and len(parts) == 2:
            return states.werner(int(parts[1]))
        if parts[0] == "werner_gen" and len(parts) == 3:
            return states.werner_gen(int(parts[1]), _parse_c(parts[2]))
        if parts[0] == "singlet" and len(parts) == 1:
            return states.singlet()
        if parts[0] == "maximally_mixed" and len(parts) == 3:
            return states.maximally_mixed(int(parts[1]), int(parts[2]))
        if parts[0] == "product" and len(parts) == 3:
            r1 = states.state_from_json(_load_json(parts[1]))
            r2 = states.state_from_json(_load_json(parts[2]))
            return states.product_state(r1, r2)
        if parts[0] == "file" and len(parts) == 2:
            return states.state_from_json(_load_json(parts[1]))
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad state {token!r}: {exc}") from exc
    raise UsageError(f"unrecognized state string: {token!r}")


def _load_context(path: str) -> Context:
    obj = _load_json(path)
    if "context" in obj:
        obj = obj["context"]
    try:
        return hvmodels.context_from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"context file {path!r} violates the schema: {exc}") from exc


def _load_povm(path: str) -> measurement.Povm:
    obj = _load_json(path)
    try:
        return measurement.povm_from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"povm file {path!r} violates the schema: {exc}") from exc


def _report(command: str, inputs: dict, results: dict, args, t0: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerances": {
            "tol": args.tol,
            "lp_tol": feasibility.LP_TOL,
        },
        "seed": args.seed,
        "wall_time": time.time() - t0,
    }


# --- subcommands -------------------------------------------------------------


def _cmd_werner(args) -> tuple[dict, int]:
    d = args.d
    c = _parse_c(args.c) if args.c is not None else states.lhv1_threshold(d)
    rho = states.werner_gen(d, c)
    cf = float(c)
    results = {
        "dims": [d, d],
        "c": cf,
        "flip_expectation": float(states.flip_expectation(states.WernerParams(d, c))),
        "entangled": cf > float(states.entanglement_threshold(d)),
        "single_time_local_known": cf <= float(states.lhv1_threshold(d)),
        "all_rank_dm1_collapses_separable": (
            cf <= float(states.collapse_separability_threshold(d))
            if d >= 3 else None
        ),
        "state": states.state_to_json(rho),
    }
    return results, 0


def _cmd_thresholds(args) -> tuple[dict, int]:
    d = args.d
    results = {
        "normalization": float(states.normalization_bound(d)),
        "entanglement": float(states.entanglement_threshold(d)),
        "lhv1": float(states.lhv1_threshold(d)),
        "collapse_separable": float(states.collapse_separability_threshold(d)),
    }
    samples = []
    if d >= 3:
        for c in np.linspace(0.0, float(states.normalization_bound(d)), 6)[1:-1]:
            samples.append(
                {"c": float(c), "c_prime": float(states.collapsed_c_prime(d, float(c)))}
            )
    results["c_prime_samples"] = samples
    return results, 0


def _cmd_popescu(args) -> tuple[dict, int]:
    d = args.d
    rho = states.werner(d)
    if d == 2:
        value, _ = feasibility.chsh_maximize(rho)
        weight = 2.0 * float(states.lhv1_threshold(2))
    else:
        t = np.zeros((d, d), dtype=complex)
        t[0, 0] = t[1, 1] = 1.0
        value, _ = feasibility.chsh_maximize(rho, t, t)
        weight = d / (d + 2.0)
    results = {
        "d": d,
        "chsh": value,
        "violation": value > 2.0 + 1e-6,
        "collapsed_singlet_weight": weight,
        "oracle_2sqrt2_weight": 2.0 * np.sqrt(2.0) * weight,
    }
    return results, 0


def _cmd_lhv_check(args) -> tuple[dict, int]:
    rho = parse_state(args.state)
    ctx = _load_context(args.context)
    res = feasibility.lchv_feasibility(
        rho, ctx, args.k, strategy_budget=args.strategy_budget
    )
    results = {"feasibility": feasibility.result_to_json(res)}
    if res.report is not None:
        results["verification"] = res.report.summary()
    return results, 0


def _cmd_build_model(args) -> tuple[dict, int]:
    rho = parse_state(args.state)
    ctx = _load_context(args.context)
    tol = args.tol
    if args.kind == "trivial":
        model = hvmodels.trivial_causal_model(rho, ctx, atom_budget=args.atom_budget)
    elif args.kind == "mix":
        if not args.state.startswith("product:"):
            raise UsageError(
                "--kind mix builds a local model for a product state; "
                "use --state product:FILE1:FILE2"
            )
        parts = args.state.split(":")
        r1 = states.state_from_json(_load_json(parts[1]))
        r2 = states.state_from_json(_load_json(parts[2]))
        model = hvmodels.product_local_model(r1, r2, ctx)
    elif args.kind == "couple-d2":
        ctx1 = Context(ctx.side1, ctx.side2, 1, 1)
        base = feasibility.lchv_feasibility(
            rho, ctx1, 1, strategy_budget=args.strategy_budget
        )
        if base.status != "feasible":
            return {
                "feasibility": feasibility.result_to_json(base),
                "model": None,
            }, 0
        model = hvmodels.couple_lchv_d2(
            base.model, ctx, atom_budget=args.atom_budget
        )
    elif args.kind == "fine":
        k = max(ctx.max_len1, ctx.max_len2)
        base = feasibility.lchv_feasibility(
            rho, ctx, k, strategy_budget=args.strategy_budget
        )
        if base.status != "feasible":
            return {
                "feasibility": feasibility.result_to_json(base),
                "model": None,
            }, 0
        model = hvmodels.deterministic_to_stochastic(base.model)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {args.kind!r}")
    report = hvmodels.verify_model(model, rho, tol=tol)
    payload = hvmodels.model_to_json(model)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
    results = {
        "kind": args.kind,
        "model": None if args.out else payload,
        "model_file": args.out,
        "verification": report.summary(),
    }
    return results, 0


def _cmd_extend_povm(args) -> tuple[dict, int]:
    rho = parse_state(args.state)
    povm1 = _load_povm(args.povm1)
    povm2 = _load_povm(args.povm2)
    dec1 = measurement.commuting_decompose(povm1)
    dec2 = measurement.commuting_decompose(povm2)
    for name, dec in (("povm1", dec1), ("povm2", dec2)):
        if isinstance(dec, measurement.NotCommuting):
            return {
                "status": "not_commuting",
                "povm": name,
                "pair": list(dec.pair),
                "commutator_norm": dec.commutator_norm,
            }, 0
    fams = []
    for side, dec in ((1, dec1), (2, dec2)):
        labels = tuple(f"j{i}" for i in range(len(dec.projectors)))
        fams.append(
            measurement.OperationFamily(
                f"basis{side}", labels, tuple(dec.projectors), "ideal"
            )
        )
    ctx = Context((fams[0],), (fams[1],), 1, 1)
    base = feasibility.lchv_feasibility(
        rho, ctx, 1, strategy_budget=args.strategy_budget
    )
    if base.status != "feasible":
        return {
            "status": base.status,
            "feasibility": feasibility.result_to_json(base),
        }, 0
    ext = hvmodels.extend_commuting_povm(base.model, povm1, povm2)
    table = ext.distribution_collected(("M1",), ("M2",))
    dev = 0.0
    joint = {}
    for (l1, l2), p in table.items():
        op = np.kron(povm1.effect(l1), povm2.effect(l2))
        q = float(np.real(np.trace(rho.matrix @ op)))
        dev = max(dev, abs(p - q))
        joint[f"{l1}/{l2}"] = p
    results = {
        "status": "extended",
        "model": hvmodels.model_to_json(ext),
        "joint_table": joint,
        "max_table_deviation": dev,
    }
    return results, 0


def _cmd_reproduce(args) -> tuple[dict | None, int]:
    numbers = None
    if args.criteria:
        try:
            numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError as exc:
            raise UsageError(f"bad --criteria list: {exc}") from exc
        if numbers and not all(1 <= n <= 11 for n in numbers):
            raise UsageError("--criteria entries must be in 1..11")
    results = acceptance.run_all(numbers)
    all_pass = all(r.passed for r in results)
    sys.stderr.write(acceptance.format_table(results) + "\n")
    payload = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": r.seconds,
            }
            for r in results
        ],
        "all_passed": all_pass,
    }
    return payload, 0 if all_pass else 3


# --- driver ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="nonloc", description=__doc__)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="model verification tolerance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--atom-budget", type=int, default=hvmodels.ATOM_BUDGET)
    parser.add_argument("--strategy-budget", type=int,
                        default=feasibility.STRATEGY_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("werner", help="flip-family state and entanglement flags")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=str, default=None,
                   help="flip coefficient (float or p/q); default 1/d^2")

    p = sub.add_parser("thresholds", help="the four c-thresholds and c' samples")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("popescu", help="rank-2 collapse + CHSH maximization")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("lhv-check", help="local-causal LP feasibility")
    p.add_argument("--state", required=True)
    p.add_argument("--context", required=True, help="context JSON file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("build-model", help="construct and verify a model")
    p.add_argument("--state", required=True)
    p.add_argument("--context", required=True, help="context JSON file")
    p.add_argument("--kind", required=True,
                   choices=("trivial", "mix", "couple-d2", "fine"))
    p.add_argument("--out", default=None, help="write Model JSON here")

    p = sub.add_parser("extend-povm", help="commuting-POV extension of an LHV1 model")
    p.add_argument("--state", required=True)
    p.add_argument("--povm1", required=True, help="Povm JSON file, side 1")
    p.add_argument("--povm2", required=True, help="Povm JSON file, side 2")

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")

    return parser


_HANDLERS = {
    "werner": _cmd_werner,
    "thresholds": _cmd_thresholds,
    "popescu": _cmd_popescu,
    "lhv-check": _cmd_lhv_check,
    "build-model": _cmd_build_model,
    "extend-povm": _cmd_extend_povm,
}


def _configure_logging() -> None:
    level = os.environ.get("NONLOC_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.ERROR),
        format="%(name)s %(levelname)s %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    t0 = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1

    try:
        if args.command == "reproduce":
            payload, code = _cmd_reproduce(args)
            if payload is not None:
                inputs = {"criteria": args.criteria}
                _emit(_report("reproduce", inputs, payload, args, t0), args.format)
            return code
        handler = _HANDLERS[args.command]
        results, code = handler(args)
        inputs = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "format") and v is not None
        }
        _emit(_report(args.command, inputs, results, args, t0), args.format)
        return code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except LpNumericalFailure as exc:
        sys.stderr.write(f"numerical indeterminacy: {exc}\n")
        _emit(
            _report(
                args.command, {}, {"status": "indeterminate", "detail": str(exc)},
                args, t0,
            ),
            args.format,
        )
        return 2
    except (states.StateValidationError, states.ParameterOutOfRange,
            hvmodels.BudgetExceededError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
