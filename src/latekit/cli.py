"""Command-line interface: analyze, simulate, design, lambda."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data_model import DesignSpec, center_covariates
from .design import draw_assignment, mahalanobis
from .exceptions import AcceptanceRegionError, DegenerateCovariatesError, LatekitError
from .io import ALL_METHODS, analyze_file, plot_data_rows, read_covariates, write_plot_data
from .mixture import MixtureParams, quantile_table, threshold_from_pa
from .simulation import StudyConfig, run_study

_CONFIG_KEYS = {f.name for f in dataclasses.fields(StudyConfig)}
_JSON_STR = json.encoder.encode_basestring_ascii
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, emit, indent: str = "\n") -> None:
    """Emit ``json.dumps(obj, indent=2)`` piece by piece, ``indent`` being
    the line break and indentation at ``obj``'s depth. The stdlib's
    indented encoder is pure Python and makes several calls per value; this
    one handles the exact types artefacts hold and hands anything else
    (subclasses such as np.float64, non-str keys, unsupported types) to
    ``json.dumps``, so output and errors are the stdlib's."""
    kind = type(obj)
    if kind is str:
        emit(_JSON_STR(obj))
    elif kind is float:
        text = float.__repr__(obj)
        emit(_JSON_FLOATS.get(text, text))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is None or kind is bool:
        emit("null" if obj is None else "true" if obj else "false")
    elif obj and (kind is list or kind is tuple):
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            emit(sep)
            _json_text(value, emit, inner)
            sep = "," + inner
        emit(indent + "]")
    elif obj and kind is dict and all(type(key) is str for key in obj):
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            emit(sep + _JSON_STR(key) + ": ")
            _json_text(value, emit, inner)
            sep = "," + inner
        emit(indent + "}")
    else:  # empty containers too
        emit(json.dumps(obj, indent=2).replace("\n", indent))


def _write_json(path: Path, obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to ``path``."""
    parts: list[str] = []
    _json_text(obj, parts.append)
    parts.append("\n")
    path.write_text("".join(parts))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latekit",
        description="Finite-population inference for the sample local average "
                    "treatment effect in randomized experiments with noncompliance.")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="per-stratum analysis of a records CSV")
    an.add_argument("--input", required=True)
    an.add_argument("--methods", default=",".join(ALL_METHODS),
                    help="comma-separated subset of: " + ",".join(ALL_METHODS))
    an.add_argument("--adjust", default="none", choices=["none", "ehw", "hc2", "hc3"])
    an.add_argument("--design", default="cre", choices=["cre", "rem"])
    an.add_argument("--pa", type=float, default=None,
                    help="acceptance probability the ReM threshold derives from")
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--gamma", type=float, default=0.075)
    an.add_argument("--pplus", type=float, default=0.01)
    an.add_argument("--out", required=True)
    an.add_argument("--plot-data", default=None)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--threads", type=int, default=None)

    de = sub.add_parser("design", help="draw one assignment vector for a covariate file")
    de.add_argument("--input", required=True)
    de.add_argument("--mode", default="rem", choices=["cre", "rem"])
    de.add_argument("--pa", type=float, default=None)
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--n1", type=int, default=None,
                    help="treated-arm size (default: half the units)")
    de.add_argument("--out", required=True)

    lam = sub.add_parser("lambda", help="dump a mixture quantile table as CSV")
    lam.add_argument("--k", type=int, required=True)
    group = lam.add_mutually_exclusive_group(required=True)
    group.add_argument("--pa", type=float, default=None)
    group.add_argument("--a", type=float, default=None)
    lam.add_argument("--alpha", type=float, default=0.05)
    lam.add_argument("--out", required=True)
    return parser


def _cmd_analyze(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = analyze_file(args.input, methods=methods, adjustment=args.adjust,
                          design=args.design, p_a=args.pa, alpha=args.alpha,
                          gamma=args.gamma, p_plus=args.pplus)
    _write_json(Path(args.out), report)
    if args.plot_data:
        write_plot_data(plot_data_rows(report), args.plot_data)
    return 0


def _cmd_simulate(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object; got {type(raw).__name__}")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"invalid config keys: {', '.join(unknown)}")
    for key in ("tau_w", "gamma"):
        if isinstance(raw.get(key), list):
            raw[key] = tuple(raw[key])
    for key in ("reps", "seed", "threads"):  # command-line overrides
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    cfg = StudyConfig(**raw)
    start = time.time()
    table = run_study(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(table.to_csv())
    _write_json(out / "table.json", table.to_json_dict())
    manifest = {
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in dataclasses.asdict(cfg).items()},
        "seed": cfg.seed,
        "versions": {"latekit": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "wall_time_seconds": round(time.time() - start, 3),
        "stage_seconds": {k: round(v, 6) for k, v in table.stage_seconds.items()},
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _cmd_design(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    x_raw = read_covariates(args.input)
    x, _ = center_covariates(x_raw)
    n, k = x.shape
    n1 = args.n1 if args.n1 is not None else n // 2
    if args.mode == "rem":
        if args.pa is None:
            raise ValueError("--pa is required with --mode rem")
        if not 0.0 < args.pa < 1.0:
            raise ValueError("--pa must be strictly between 0 and 1")
        spec = DesignSpec.rem(n1, p_a=args.pa, k=k)
    elif args.pa is not None:
        raise ValueError("--pa applies only with --mode rem")
    else:
        spec = DesignSpec.cre(n1)
    rng = np.random.default_rng(args.seed)
    draw = draw_assignment(spec, x, rng)
    try:
        realized = format(mahalanobis(x, draw.z), ".10g")
    except DegenerateCovariatesError:  # a CRE draw reads no covariate metric
        realized = "na"
    lines = [
        f"# mode={args.mode}",
        f"# threshold={'inf' if math.isinf(spec.a) else format(spec.a, '.10g')}",
        f"# mahalanobis={realized}",
        f"# attempts={draw.accepted_after}",
        "index,z",
    ]
    lines += [f"{i},{int(zi)}" for i, zi in enumerate(draw.z)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_lambda(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.a is not None and not args.a > 0:
        raise ValueError(f"--a must be > 0, got {args.a}")
    if args.a is not None and math.isinf(args.a):
        raise ValueError(f"--a must be finite, got {args.a}")
    if args.pa is not None and not 0.0 < args.pa < 1.0:
        raise ValueError(f"--pa must be strictly between 0 and 1, got {args.pa}")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must be strictly between 0 and 1, got {args.alpha}")
    if args.pa is not None:
        a = threshold_from_pa(args.pa, args.k)
    else:
        a = args.a
    table = quantile_table(MixtureParams(k=args.k, a=a, alpha=args.alpha / 2.0))
    lines = ["rho,lambda"]
    lines += [f"{rho:.4f},{val:.6f}"
              for rho, val in zip(table.rho_grid, table.lambda_values)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "simulate": _cmd_simulate,
                "design": _cmd_design, "lambda": _cmd_lambda}
    out_of_memory = f"error: latekit {args.command} ran out of memory\n"
    try:
        return handlers[args.command](args)
    except MemoryError:  # the message was built before: allocating can fail now
        sys.stderr.write(out_of_memory)
        return 2
    except AcceptanceRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LatekitError, ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
