"""Command-line front end.

Subcommands: budget, leaf, converge, fixedpoint. Exit codes: 0 success,
2 validation error, 3 numerical failure, which names its pipeline stage (a
partial report is still written when one exists), or out of memory. --seed
seeds the budget's draws, the only randomness, so identical invocations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fixedpoint as fp_mod
from .budget import DEFAULT_SAMPLES, EpsilonSchedule, check_condition_double_star, check_condition_star, estimate_budget
from .errors import NotConvergedError, NumericalError, ValidationError
from .leaf import budget_to_epsilon, integrate_leaf, iterate_to_contraction, staged
from .maps import BUILTIN_MAPS, MapModel, Point2, make_map
from .reports import emit_json, emit_leaf_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stableleaf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("budget", "estimate the hyperbolicity budget and check conditions"),
        ("leaf", "integrate the order-kmax leaf with a feasible epsilon"),
        ("converge", "iterate leaves in k and verify the Cauchy bounds"),
        ("fixedpoint", "run the full fixed-point theorem scenario"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--map", required=True, choices=sorted(BUILTIN_MAPS))
        # one flag per parameter of the built-in maps, in table order; _build_map asks for a map's own
        for key in dict.fromkeys(k for names, _ in BUILTIN_MAPS.values() for k in names):
            p.add_argument(_flag(key), type=float, default=None)
        p.add_argument("--z", default="0,0", help="base point as x,y")
        p.add_argument("--eps0", type=float, default=0.1)
        p.add_argument("--decay", type=float, default=1.0)
        p.add_argument("--kmax", type=int, default=12)
        p.add_argument("--samples", dest="n", metavar="SAMPLES", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--h", type=float, default=None,
                       help="RK4 step of the leaf command's leaf, default eps/16 (8 cells of the grid spacing "
                            "eps/128), and of the order-kmax partner leaf of converge and fixedpoint, default "
                            "eps/8, whose reported limit leaf runs at h/2 (their Cauchy leaves run at eps/2); "
                            "N = round(eps/h) steps a side, and dense output at every grid node")
        p.add_argument("--out-dir", default=".")
        p.add_argument("--config", default=None, help="key=value file; keys map 1:1 to flags")
    return ap


def _load_config(path: str) -> list[str]:
    args: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config file is not UTF-8 text ({exc.reason})")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config file ({exc.strerror or exc})")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got '{line}'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "config":
            raise ValidationError(f"{path}:{lineno}: a config file cannot name another config file")
        args.extend([f"--{key}", val])
    return args


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--z expects 'x,y', got '{text}'")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"--z expects numbers, got '{text}'")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"--z expects finite numbers, got '{text}'")
    return Point2(x, y)


def _validate(ns) -> None:
    if ns.command == "fixedpoint" and ns.decay != 1.0:
        raise ValidationError(f"fixedpoint runs at the constant schedule eps_j = eps0: "
                              f"--decay must be 1, got {ns.decay}")
    if ns.kmax < 2:
        raise ValidationError(f"kmax must be >= 2, got {ns.kmax}")
    if ns.n < 0:
        raise ValidationError(f"samples must be >= 0, got {ns.n}")
    if not (ns.tol > 0.0 and math.isfinite(ns.tol)):
        raise ValidationError(f"tol must be positive and finite, got {ns.tol}")
    if ns.h is not None and not (ns.h > 0.0):
        raise ValidationError(f"h must be positive, got {ns.h}")


def _build_map(ns):
    names, _ = BUILTIN_MAPS[ns.map]
    for key in names:
        if getattr(ns, key) is None:
            raise ValidationError(f"map '{ns.map}' requires {_flag(key)}")
    return make_map(ns.map, **{key: getattr(ns, key) for key in names})


def _inputs(ns):
    return _build_map(ns), _parse_point(ns.z), EpsilonSchedule(ns.eps0, ns.decay)


def _cmd_budget(ns, out_dir: str, m: MapModel, z: Point2, sched: EpsilonSchedule) -> int:
    b = staged("budget", estimate_budget, m, z, sched, ns.kmax, n=ns.n, seed=ns.seed)
    star = check_condition_star(b)
    dstar = check_condition_double_star(b, b.sched)
    emit_json(
        {
            "map": m.name,
            "params": m.params,
            "z": z,
            "kmax": b.kmax,
            "seed": b.seed,
            "samples_requested": b.n,
            "accepted_counts": {str(k): v for k, v in b.accepted_counts.items()},
            "p": b.p, "q": b.q, "pt": b.pt,
            "gamma": b.gamma, "gamma_star": b.gamma_star, "delta": b.delta,
            "fmax": b.fmax, "xi": b.xi, "gamma_tilde": b.gamma_tilde,
            "k0": b.k0,
            "star_terms": b.star_terms, "star_partial_sums": b.star_partial_sums,
            "star_verdict": star.verdict, "star_tail_ratio": star.tail_ratio,
            "gamma_required": dstar.gamma_required,
            "gamma_required_argmax": [dstar.argmax_j, dstar.argmax_k],
            "double_star_verdict": dstar.verdict,
            "truncated_at": b.kmax,
        },
        os.path.join(out_dir, "budget.json"),
    )
    return EXIT_OK


def _cmd_leaf(ns, out_dir: str, m: MapModel, z: Point2, sched: EpsilonSchedule) -> int:
    _, _, L, eps = budget_to_epsilon(m, z, sched, ns.kmax, ns.n, ns.seed)
    curve = staged("integrate-leaf", integrate_leaf, m, z, ns.kmax, eps, h=ns.h)
    emit_leaf_csv(curve, os.path.join(out_dir, "leaf.csv"))
    emit_json(
        {
            "map": m.name, "params": m.params, "z": z, "k": curve.k,
            "eps": curve.eps, "h": curve.h, "L_measured": L,
            "truncated_neg": curve.truncated_neg, "truncated_pos": curve.truncated_pos,
            "grid_points": curve.grid_points, "seed": ns.seed,
        },
        os.path.join(out_dir, "leaf.json"),
    )
    return EXIT_OK


def _convergence_payload(m, ns, report, c_fit) -> dict:
    limit = report.limit
    return {
        "map": m.name, "params": m.params, "seed": ns.seed,
        "k0": report.k0, "kmax": report.kmax, "ks": report.ks,
        "d_k": report.d_k, "gronwall_bound": report.gronwall_bound,
        "tube_ok": report.tube_ok,
        "restricted": report.restricted,
        "eps_chosen": report.eps_chosen, "L_used": report.L_used,
        "h": limit.h, "steps_per_cell": limit.steps_per_cell,
        "integration_error": report.integration_error, "cauchy_step_error": report.cauchy_step_error,
        "length_neg": limit.length_neg, "length_pos": limit.length_pos,
        "truncated_neg": limit.truncated_neg, "truncated_pos": limit.truncated_pos,
        "tol": report.tol, "converged": report.converged,
        "C_fit": c_fit,
    }


def _cmd_converge(ns, out_dir: str, m: MapModel, z: Point2, sched: EpsilonSchedule) -> int:
    b, _, L, eps = budget_to_epsilon(m, z, sched, ns.kmax, ns.n, ns.seed)
    try:
        report, contraction = iterate_to_contraction(m, b, eps, L, ns.tol, h=ns.h)
    except NotConvergedError as exc:
        emit_json(_convergence_payload(m, ns, exc.report, None), os.path.join(out_dir, "convergence.json"))
        emit_leaf_csv(exc.report.limit, os.path.join(out_dir, "leaf.csv"), k_override=-1)
        raise
    emit_json(_convergence_payload(m, ns, report, contraction.C_fit), os.path.join(out_dir, "convergence.json"))
    emit_leaf_csv(report.limit, os.path.join(out_dir, "leaf.csv"), k_override=-1)
    return EXIT_OK


def _cmd_fixedpoint(ns, out_dir: str, m: MapModel, z: Point2, sched: EpsilonSchedule) -> int:
    fp = staged("eigen-split", fp_mod.eigen_split, m, z)
    report = fp_mod.verify_fixed_point_theorem(
        m, fp, eta=sched.eps0, kmax=ns.kmax, seed=ns.seed, n=ns.n, tol=ns.tol, h=ns.h
    )
    emit_json(
        {
            "map": m.name, "params": m.params, "seed": ns.seed,
            "fixed_point": report.fp.p,
            "lambda_s": report.fp.lambda_s, "lambda_u": report.fp.lambda_u,
            "Es": list(report.fp.Es), "Eu": list(report.fp.Eu),
            "eta": report.eta, "delta": report.fp.delta, "kmax": report.kmax,
            "star_verdict": report.star_verdict,
            "gamma_required": report.gamma_required,
            "eps": report.eps, "L_used": report.convergence.L_used,
            "h": report.convergence.limit.h, "steps_per_cell": report.convergence.limit.steps_per_cell,
            "integration_error": report.convergence.integration_error,
            "cauchy_step_error": report.convergence.cauchy_step_error,
            "conclusion_1_tangency": {
                "tangency_error_rad": report.tangency_error,
            },
            "conclusion_2_length": {
                "length_pos": report.length_pos, "length_neg": report.length_neg,
                "eps": report.eps, "full_length": report.full_length,
            },
            "conclusion_3_contraction": {
                "fitted_rate": report.fitted_rate,
                "expected_rate": math.log(abs(report.fp.lambda_s)),
                "rate_deviation": report.rate_deviation,
                "C_fit": report.contraction.C_fit,
            },
            "conclusion_4_uniqueness": {
                "on_leaf_exits": report.uniqueness.on_leaf_exits,
                "strip_width": report.uniqueness.width,
                "strip_ratio": report.uniqueness.ratio,
                "outside_band": report.uniqueness.outside_band,
            },
            "minidistortion_ok": report.minidistortion_ok,
            "k0_ok": report.k0_ok,
            "converged": report.converged,
        },
        os.path.join(out_dir, "fixedpoint.json"),
    )
    emit_leaf_csv(report.convergence.limit, os.path.join(out_dir, "leaf.csv"), k_override=-1)
    return EXIT_OK


_COMMANDS = {
    "budget": _cmd_budget,
    "leaf": _cmd_leaf,
    "converge": _cmd_converge,
    "fixedpoint": _cmd_fixedpoint,
}


def run_command(argv: list[str]) -> int:
    try:
        # --config=PATH as --config PATH, so the expansion below reads that form too
        argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 >= len(argv):
                raise ValidationError("--config needs a path")
            argv = argv[:1] + _load_config(argv[i + 1]) + argv[1:i] + argv[i + 2:]
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
        if ns.config is not None:  # a second --config, or an abbreviation, that the expansion did not read
            raise ValidationError(f"--config {ns.config} not read: give exactly one config file, as --config PATH")
        _validate(ns)
        inputs = _inputs(ns)  # a bad map, --z or schedule fails before the output directory is made
        out_dir = ns.out_dir
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[ns.command](ns, out_dir, *inputs)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        label = f" [stage: {exc.stage}]" if exc.stage else ""
        print(f"numerical failure{label}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory; a smaller --kmax or --samples needs less", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
