"""Command-line interface: preset analysis, fiber sampling, symbols, checks.

Every subcommand runs through one pipeline in ``main``.  The parser, built
once per process, reads the command line; each subcommand takes only the
flags its command reads.  The command's ``cmd_*`` function returns the report
fields it owns (``parameters`` and ``results``, plus ``bounds`` for
``analyze``) with an exit code.  ``main`` adds ``schema``, ``version``,
``command``, ``seed`` and ``timing_seconds`` and writes the JSON to stdout or
to ``--out``.  Every refused input, whether argparse rejects it or a command
raises, ends as one ``error:`` line on stderr and exit 2, with nothing on
stdout; so does an ``--out`` or ``--csv`` path that cannot be written, an
exact value whose float is out of range (``OverflowError``), and a
``poisson-check`` flow that reaches a singular point.

All randomness is seeded (``--seed``, default 0) and reports are emitted as
deterministic JSON (sorted keys, no timing unless ``--timing`` is passed), so
identical invocations produce byte-identical output.  A small recursive
writer (``_json_text``) emits exactly the bytes of
``json.dumps(report, indent=2, sort_keys=True)``; with ``indent`` the stdlib
falls back to its pure-Python encoder.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import __version__
from .expr import ParseError, parse_operator, poly_to_string
from .foliation import (
    FoliationPresentation,
    MissingStructureFunctions,
    default_strong_kernel_bound,
    is_regular,
    isotropy_algebra,
    jacobi_flag,
    kernel_at,
    strong_kernel_at,
)
from .grassmann import CurveNotGeneric, Subspace
from .hncone import cone_checks, curve_family, hn_fiber, nash_fiber
from .poisson import NonFiniteState, check_scenario
from .presets import BUILTIN_NAMES, Preset, PresetError, load_preset
from .symbols import (
    OddDegreeWarning,
    UEAElement,
    classical_principal_symbol,
    ellipticity_check,
    realize,
    symbol_top,
)

SCHEMA_VERSION = 1
# RK4 steps per flow: 10^5 steps already take seconds, and time and memory grow with the count
MAX_FLOW_STEPS = 100_000
# arc degree of the curve family: each degree adds n arcs whose t-coefficient
# rows grow with it, and an hn-fiber op on r4 at degree 64 already takes seconds
MAX_ARC_DEGREE = 64
# strong-kernel degree bound D: the degree-bounded system has C(D+n, n)*N
# unknowns; in-process on a 2-CPU host, analyze r4_counterexample at one point
# took 1.2 s at D = 16, 4.3 s at D = 24 and 14.6 s with a 743 MB peak at D = 32
MAX_DEGREE_BOUND = 32
# sphere samples per fiber for an elliptic verdict of degree > 2: the cost is
# linear in the count; in-process, elliptic so3_r3 with the quartic
# g1.g1.g1.g1+g2.g2.g2.g2+g3.g3.g3.g3 at 0,0,0 took 0.08 s at 8 samples,
# 2.0 s at 800 and 21.9 s at 8,000
MAX_SPHERE_SAMPLES = 1000
# seeded integer draws for an automatic poisson-check start
MAX_START_DRAWS = 100


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _vec(v: Sequence[Fraction | int]) -> list[str]:
    return list(map(str, v))


def _subspace(s: Subspace) -> dict[str, Any]:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [_vec(row) for row in s.basis],
        "plucker": _vec(s.plucker),
    }


_escape = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false", math.inf: "Infinity", -math.inf: "-Infinity"}


def _json_text(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, for objects
    whose dict keys are all str."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of obj to ``out``; ``newline`` is the line break
    and the indent of obj's own level.  A list of strings takes one join."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None or isinstance(obj, bool):
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else _JSON_CONSTANTS.get(obj, "NaN"))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) == {str}:
            out.append("[" + inner + ("," + inner).join(map(_escape, obj)) + newline + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write_json(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _escape(key) + ": ")
            _write_json(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _point_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from exc


def _points_arg(text: str) -> list[tuple[Fraction, ...]]:
    return [_point_arg(chunk) for chunk in text.split(";") if chunk.strip()]


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


def _float_at_least(low: float):
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < low:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low:g}, got {text}")
        return value

    parse.__name__ = "float"  # argparse names the type in its message for a non-number
    return parse


def _check_points(preset: Preset, points: Sequence[Sequence[Fraction]], what: str = "point") -> None:
    n = preset.presentation.dim
    for m in points:
        if len(m) != n:
            raise argparse.ArgumentTypeError(
                f"{what} ({','.join(_vec(m))}) has {len(m)} coordinates; {preset.presentation.name} has {n}"
            )


def _write_csv(directory: str, stem: str, header: list[str], rows: Iterable[list]) -> None:
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
        with open(path / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write the CSV files: {exc}") from exc


def _resolve_operator(preset: Preset, text: str) -> UEAElement:
    if text in preset.operators:
        words = preset.operators[text]
    else:
        words = parse_operator(text, preset.generator_names, preset.presentation.vars)
    return UEAElement.from_words(words, preset.presentation.vars)


def _curve_description(args) -> dict[str, Any]:
    return {
        "direction_count": args.curves,
        "arc_degree": args.arc_degree,
        "seed": args.seed,
    }


def _structure_bound(p: FoliationPresentation) -> int | None:
    """The degree bound that solving the structure functions needed; None
    when they were given or are absent."""
    structure = p.structure()
    return structure.bound_used if structure is not None else None


# ---------------------------------------------------------------------------
# Commands: each returns (report fields it owns, exit code)
# ---------------------------------------------------------------------------

Fields = dict[str, Any]


def cmd_analyze(args) -> tuple[Fields, int]:
    preset = load_preset(args.preset)
    p = preset.presentation
    r = p.generic_rank()
    bound = args.degree_bound if args.degree_bound is not None else default_strong_kernel_bound(p)
    if args.points is None:
        points = _default_points(p.dim)
    elif not args.points:
        raise argparse.ArgumentTypeError("--points must name at least one point")
    else:
        points = args.points
    _check_points(preset, points)
    structure_bound = _structure_bound(p)
    results: dict[str, Any] = {
        "name": p.name,
        "vars": list(p.vars),
        "num_generators": p.num_generators,
        "generic_rank": r,
        "structure_functions": "given-or-solved" if p.has_structure() else "unavailable",
        "structure_bound_used": structure_bound,
        "jacobi_flag": jacobi_flag(p) if p.has_structure() else None,
        "points": [],
    }
    for m in points:
        if p.has_structure():
            iso = isotropy_algebra(p, m, bound)
            leaf_dim = p.num_generators - iso.ambient.dim  # rank-nullity on the kernel at m
            entry: dict[str, Any] = {"strong_kernel": _subspace(iso.sker)}
            entry["isotropy"] = {
                "dim": iso.dim,
                "kernel_dim": iso.ambient.dim,
                "strong_kernel_dim": iso.sker.dim,
                "bracket_table": [
                    [_vec(cell) for cell in row] for row in iso.bracket_table
                ],
            }
        else:
            ker = kernel_at(p, m)
            leaf_dim = p.num_generators - ker.dim
            entry = {"strong_kernel": _subspace(strong_kernel_at(p, m, bound, ker))}
        entry.update(point=_vec(m), leaf_dimension=leaf_dim, regular=leaf_dim == r)
        results["points"].append(entry)
    return {
        "parameters": {"preset": args.preset, "points": [_vec(m) for m in points], "degree_bound": bound},
        "bounds": {"strong_kernel": bound, "structure": structure_bound},
        "results": results,
    }, 0


def _default_points(n: int) -> list[tuple[Fraction, ...]]:
    origin = tuple(Fraction(0) for _ in range(n))
    e1 = tuple(Fraction(int(i == 0)) for i in range(n))
    ones = tuple(Fraction(1) for _ in range(n))
    out = [origin, e1]
    if ones not in out:
        out.append(ones)
    return out


def cmd_fiber(args) -> tuple[Fields, int]:
    """``nash-fiber``: the limit subspaces at a point; ``hn-fiber`` adds their
    annihilators, the cone fiber, with the sandwich and subalgebra checks."""
    preset = load_preset(args.preset)
    p = preset.presentation
    m = args.point
    _check_points(preset, [m])
    curves = curve_family(m, args.curves, args.arc_degree, args.seed)
    dual = args.command == "hn-fiber"
    if dual:
        fiber = hn_fiber(p, m, curves)
        sample = fiber.nash
    else:
        sample = nash_fiber(p, m, curves)
    exit_code = 0
    results: dict[str, Any] = {
        "point": _vec(m),
        "generic_rank": p.generic_rank(),
        "expected_limit_dim": p.num_generators - p.generic_rank(),
        "curve_family": [c.label for c in curves],
        "curves_used": [
            {
                "label": rec.label,
                "accepted": rec.accepted,
                "reason": rec.reason,
                "limit_index": rec.limit_index,
            }
            for rec in sample.curves_used
        ],
        "limits": [_subspace(v) for v in sample.limits],
    }
    spaces = sample.limits
    if dual:
        results["covector_spaces"] = [_subspace(s) for s in fiber.spaces]
        spaces = fiber.spaces
        bound = args.degree_bound if args.degree_bound is not None else default_strong_kernel_bound(p)
        checks = cone_checks(p, sample, bound)
        sw, sub = checks.sandwich, checks.subalgebra
        results["sandwich"] = {
            "ok": sw.ok,
            "degree_bound": bound,
            "violations": list(sw.violations),
        }
        if not sw.ok:
            exit_code = 1
        if sub is not None:
            results["subalgebra"] = {
                "ok": sub.ok,
                "expected_codim": sub.expected_codim,
                "violations": list(sub.violations),
            }
            if not sub.ok:
                exit_code = 1
        else:
            results["subalgebra"] = {"ok": None, "note": "structure functions unavailable"}
        results["structure_bound_used"] = _structure_bound(p)
    if args.csv:
        # a list, so that a coordinate beyond the float range fails before the file is opened
        _write_csv(
            args.csv,
            args.command.replace("-", "_"),
            ["space_index", "vector_index", "components..."],
            [[i, j] + [float(x) for x in row] for i, s in enumerate(spaces) for j, row in enumerate(s.basis)],
        )
    parameters = {
        "preset": args.preset,
        "point": results["point"],
        "curves": _curve_description(args),
        "degree_bound": args.degree_bound if dual else None,
    }
    return {"parameters": parameters, "results": results}, exit_code


def cmd_symbol(args) -> tuple[Fields, int]:
    preset = load_preset(args.preset)
    p = preset.presentation
    element = _resolve_operator(preset, args.op)
    k = args.degree if args.degree is not None else element.degree
    sigma = symbol_top(element, k, fiber_dim=p.num_generators)
    d = realize(element, p)
    classical = classical_principal_symbol(d, k)
    results = {
        "degree": k,
        "top_symbol": str(sigma),
        "top_symbol_zero": sigma.is_zero(),
        "realized_order": d.order,
        "realized_zero": d.is_zero(),
        "realized_normal_form": {
            "|".join(str(e) for e in alpha): poly_to_string(f) for alpha, f in sorted(d.terms.items())
        },
        "classical_principal_symbol": str(classical),
    }
    return {"parameters": {"preset": args.preset, "op": args.op, "degree": k}, "results": results}, 0


def cmd_elliptic(args) -> tuple[Fields, int]:
    preset = load_preset(args.preset)
    p = preset.presentation
    element = _resolve_operator(preset, args.op)
    if not args.points:
        raise argparse.ArgumentTypeError("--points must name at least one point")
    _check_points(preset, args.points)
    rep = ellipticity_check(
        element,
        p,
        args.points,
        tolerance=args.tol,
        sphere_samples=args.sphere_samples,
        seed=args.seed,
        direction_count=args.curves,
        arc_degree=args.arc_degree,
        convention=args.convention,
    )
    parameters = {
        "preset": args.preset,
        "op": args.op,
        "points": [_vec(m) for m in args.points],
        "tolerance": args.tol,
        "convention": args.convention,
        "curves": _curve_description(args),
    }
    results = {
        "degree": rep.degree,
        "elliptic": rep.elliptic,
        "points": [
            {
                "point": _vec(pv.point),
                "elliptic": pv.elliptic,
                "witness": _subspace(pv.witness) if pv.witness is not None else None,
                "fibers": [
                    {
                        "space": _subspace(fv.space),
                        "min": fv.min_value,
                        "exact_min": str(fv.exact_min) if fv.exact_min is not None else None,
                        "restricted_symbol_zero": fv.restricted_zero,
                        "positive": fv.positive,
                    }
                    for fv in pv.fibers
                ],
            }
            for pv in rep.points
        ],
    }
    return {"parameters": parameters, "results": results}, 0 if rep.elliptic else 1


def _parse_scenario(text: str, preset: Preset) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise argparse.ArgumentTypeError(f"bad scenario chunk {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        try:
            if key in ("point", "eta"):
                out[key] = _point_arg(value)
                for x in out[key]:
                    float(x)  # the flow runs in floats: OverflowError beyond their range
            elif key == "gen":
                names = preset.generator_names
                if value not in names:
                    raise argparse.ArgumentTypeError(f"unknown generator {value!r}")
                out["gen"] = names.index(value)
            elif key == "T":
                out["T"] = float(Fraction(value))
            elif key == "steps":
                out["steps"] = int(value)
                if not 1 <= out["steps"] <= MAX_FLOW_STEPS:
                    raise ValueError(f"steps must be between 1 and {MAX_FLOW_STEPS}")
            else:
                raise argparse.ArgumentTypeError(f"unknown scenario key {key!r}")
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"bad scenario chunk {chunk!r}: {exc}") from exc
    if "point" not in out:
        raise argparse.ArgumentTypeError(f"scenario {text!r} has no point=...")
    return out


def _auto_scenarios(preset: Preset, seed: int) -> list[dict[str, Any]]:
    p = preset.presentation
    rng = random.Random(seed)
    candidates = [
        tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(p.dim)),
        tuple(Fraction(1) for _ in range(p.dim)),
        tuple(Fraction(1 + i) for i in range(p.dim)),
    ]
    points = [m for m in candidates if is_regular(p, m)]
    draws = 0
    while not points:
        if draws == MAX_START_DRAWS:
            raise argparse.ArgumentTypeError(
                f"no regular flow start among {MAX_START_DRAWS} seeded integer points in [-3,3]^{p.dim}; "
                "name one with --scenario point=..."
            )
        m = tuple(Fraction(rng.randint(-3, 3)) for _ in range(p.dim))
        draws += 1
        if is_regular(p, m):
            points.append(m)
    out = []
    for i in range(min(2, p.num_generators)):
        out.append(
            {
                "point": points[i % len(points)],
                "gen": i,
                "eta": tuple(Fraction(1) for _ in range(p.dim)),
                "T": 1.0,
                "steps": 1000,
            }
        )
    return out


def cmd_poisson_check(args) -> tuple[Fields, int]:
    preset = load_preset(args.preset)
    p = preset.presentation
    if not p.has_structure():
        raise MissingStructureFunctions("no structure functions available for this preset")
    # automatic starts are drawn regular; a named start is checked here, once
    scenarios = [_parse_scenario(s, preset) for s in args.scenario or ()]
    for sc in scenarios:
        _check_points(preset, [sc["point"]])
        if "eta" in sc:
            _check_points(preset, [sc["eta"]], what="eta")
        if not is_regular(p, sc["point"]):
            raise argparse.ArgumentTypeError(
                f"flow start ({','.join(_vec(sc['point']))}) is a singular point; pick a regular one"
            )
    scenarios = scenarios or _auto_scenarios(preset, args.seed)
    csv_header = ["t"] + [f"x_{v}" for v in p.vars] + [f"xi_{k+1}" for k in range(p.num_generators)]
    scenario_results = []
    trajectories = []
    ok = True
    for idx, sc in enumerate(scenarios):
        gen = sc.get("gen", 0)
        eta = sc.get("eta", tuple(Fraction(1) for _ in range(p.dim)))
        try:
            res = check_scenario(p, sc["point"], eta, gen, sc.get("T", 1.0), sc.get("steps", 1000), tol=args.tol)
        except CurveNotGeneric as exc:
            raise argparse.ArgumentTypeError(f"scenario {idx}: {exc}; try a shorter T") from exc
        ok = ok and res.passed
        scenario_results.append(
            {
                "scenario": idx,
                "point": _vec(sc["point"]),
                "generator": gen,
                "identity_defects": list(res.identity_defects),
                "membership_drift": res.invariance.max_drift,
                "snap_radius": res.invariance.snap_radius,
                "lift_deviation": res.lift.max_deviation,
                "passed": res.passed,
            }
        )
        if args.csv:
            trajectories.append(res.flow.trajectory)
    # written once every scenario has run, so that a refused one leaves no CSV
    for idx, traj in enumerate(trajectories):
        _write_csv(args.csv, f"trajectory_{idx}", csv_header, ([t] + list(s) for t, s in zip(traj.times, traj.states)))
    parameters = {"preset": args.preset, "scenarios": args.scenario or "auto", "tolerance": args.tol}
    results = {"jacobi_flag": jacobi_flag(p), "scenarios": scenario_results, "ok": ok}
    return {"parameters": parameters, "results": results}, 0 if ok else 1


def cmd_selftest(args) -> tuple[Fields, int]:
    from . import acceptance

    outcomes = acceptance.run_all(verbose=True)
    results = [
        {"criterion": o.criterion, "title": o.title, "passed": o.passed, "detail": o.detail}
        for o in outcomes
    ]
    return {"parameters": {}, "results": results}, 0 if all(o.passed for o in outcomes) else 1


# ---------------------------------------------------------------------------
# Argument parsing and the report pipeline
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on first use.  Each flag group
    is a parent parser, attached only to the subcommands that read it."""
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("preset", help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or a preset file path")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for all sampled randomness")
    report.add_argument("--out", help="write the JSON report to this file instead of stdout")
    report.add_argument("--timing", action="store_true", help="include wall time (breaks byte-identity)")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--degree-bound", dest="degree_bound", type=_int_at_least(0, MAX_DEGREE_BOUND),
                       default=None, help="strong-kernel syzygy degree bound (default: max generator "
                       f"degree + dim; at most {MAX_DEGREE_BOUND})")
    csv_dir = argparse.ArgumentParser(add_help=False)
    csv_dir.add_argument("--csv", help="directory for CSV emission of fibers/trajectories")
    curves = argparse.ArgumentParser(add_help=False)
    curves.add_argument("--curves", type=_int_at_least(1), default=None,
                        help="number of ray directions (default: 3n deterministic directions)")
    curves.add_argument("--arc-degree", dest="arc_degree", type=_int_at_least(1, MAX_ARC_DEGREE), default=2,
                        help=f"maximum arc degree in the curve family (at most {MAX_ARC_DEGREE})")

    parser = argparse.ArgumentParser(
        prog="folcone",
        description="Exact invariants of polynomial singular foliations.",
    )
    parser.add_argument("--version", action="version", version=f"folcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", parents=[preset, report, bound],
                        help="ranks, regularity, strong kernels, isotropy at points")
    sp.add_argument("--points", type=_points_arg, default=None,
                    help="semicolon-separated points, e.g. '0,0,0;1,0,0'")
    sp.set_defaults(fn=cmd_analyze)

    for name, parents, help_text in (
        ("nash-fiber", [], "limit subspaces of the kernel family at a point"),
        ("hn-fiber", [bound], "cone fiber (annihilators) plus sandwich/subalgebra checks"),
    ):
        sp = sub.add_parser(name, parents=[preset, report, csv_dir, curves, *parents], help=help_text)
        sp.add_argument("--point", type=_point_arg, required=True)
        sp.set_defaults(fn=cmd_fiber)

    sp = sub.add_parser("symbol", parents=[preset, report],
                        help="top symbol and realized normal form of an operator")
    sp.add_argument("--op", required=True, help="operator expression or a preset operator name")
    sp.add_argument("--degree", type=_int_at_least(0), default=None)
    sp.set_defaults(fn=cmd_symbol)

    sp = sub.add_parser("elliptic", parents=[preset, report, curves],
                        help="longitudinal ellipticity verdict over sampled points")
    sp.add_argument("--op", required=True)
    sp.add_argument("--points", type=_points_arg, required=True)
    sp.add_argument("--tol", type=_float_at_least(0), default=1e-9)
    sp.add_argument("--sphere-samples", dest="sphere_samples", type=_int_at_least(1, MAX_SPHERE_SAMPLES), default=8,
                    help=f"sphere samples per fiber for degree > 2 (at most {MAX_SPHERE_SAMPLES})")
    sp.add_argument("--convention", choices=("positive", "nonvanishing"), default="positive",
                    help="strict positivity (default) or nonvanishing |symbol|")
    sp.add_argument("--force-odd", dest="convention", action="store_const", const="nonvanishing",
                    help="same as --convention nonvanishing")
    sp.set_defaults(fn=cmd_elliptic)

    sp = sub.add_parser("poisson-check", parents=[preset, report, csv_dir],
                        help="Hamiltonian identities, cone invariance, lift check")
    sp.add_argument("--scenario", action="append", default=None,
                    help="'point=1,0,0;gen=g3;eta=0,1,0;T=1;steps=1000' (repeatable)")
    sp.add_argument("--tol", type=_float_at_least(0), default=1e-6)
    sp.set_defaults(fn=cmd_poisson_check)

    sp = sub.add_parser("selftest", parents=[report], help="run the acceptance suite")
    sp.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.time()
    try:
        fields, code = args.fn(args)
    except (
        ParseError, PresetError, MissingStructureFunctions, OddDegreeWarning, argparse.ArgumentTypeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print(f"error: the flow left the finite range ({exc}); try a shorter T or more steps", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value is beyond the float range ({exc})", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "timing_seconds": time.time() - start if args.timing else None,
        **fields,
    }
    payload = _json_text(report) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
