"""Command-line entry point.

Subcommands: run a spec file, validate it, generate a phantom, or export a
sampling mask.  Errors exit nonzero with one machine-readable JSON line on
stderr; so does a run in which some sweep cell failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataError, InputError, SolverError
from .experiments import resolve_spec, run_experiment
from .mri import make_phantom, save_kt
from .sampling import cartesian_mask, radial_mask, sample_p1, sample_p2, save_mask_csv


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_run(args) -> int:
    spec = resolve_spec(_load_spec(args.spec))
    out_dir = Path(args.output if args.output is not None else spec["output_dir"])
    rows = run_experiment(spec, output_dir=out_dir)
    print(f"completed {len(rows)} runs")
    log = out_dir / "errors.log"
    if not log.exists():
        return 0
    failed = len(log.read_text().splitlines())
    print(json.dumps({"error": "CellsFailed", "message": f"{failed} sweep cells failed, see {log}",
                      "failed_cells": failed, "errors_log": str(log)}), file=sys.stderr)
    return 1


def _cmd_validate(args) -> int:
    resolved = resolve_spec(_load_spec(args.spec))
    json.dump(resolved, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3 or not all(p.isdecimal() and int(p) >= 1 for p in parts):
        raise InputError(f"dims must be three positive integers like 32x32x16, got {text!r}")
    return tuple(int(p) for p in parts)


def _cmd_phantom(args) -> int:
    i1, i2, i3 = _parse_dims(args.dims)
    save_kt(make_phantom(i1, i2, i3), args.out)
    print(f"wrote phantom {i1}x{i2}x{i3} to {args.out}")
    return 0


def _cmd_mask(args) -> int:
    kind = args.kind
    if kind == "p1":
        pattern = sample_p1(args.rows, args.cols, args.ratio, args.seed)
    elif kind == "p2":
        pattern = sample_p2(args.rows, args.cols, args.ratio, args.seed)
    elif kind == "cartesian":
        pattern = cartesian_mask(args.i1, args.i2, args.frames, args.accel,
                                 args.band, args.seed)
    elif kind == "radial":
        pattern = radial_mask(args.i1, args.i2, args.frames, args.accel, args.seed)
    else:
        raise InputError(f"unknown mask kind {kind!r}")
    save_mask_csv(pattern, args.out)
    print(f"wrote {kind} mask ({pattern.observed_count} observed entries) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mkimpute",
                                     description="kernel-regression matrix imputation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("spec")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a spec and print it resolved")
    p_val.add_argument("spec")
    p_val.set_defaults(func=_cmd_validate)

    p_ph = sub.add_parser("phantom", help="generate a synthetic cine phantom")
    p_ph.add_argument("dims", help="I1xI2xI3, e.g. 32x32x16")
    p_ph.add_argument("out")
    p_ph.set_defaults(func=_cmd_phantom)

    p_mask = sub.add_parser("mask", help="generate a sampling mask as CSV")
    p_mask.add_argument("kind", choices=["p1", "p2", "cartesian", "radial"])
    p_mask.add_argument("out")
    p_mask.add_argument("--rows", type=int, default=50)
    p_mask.add_argument("--cols", type=int, default=80)
    p_mask.add_argument("--ratio", type=float, default=0.3)
    p_mask.add_argument("--i1", type=int, default=32)
    p_mask.add_argument("--i2", type=int, default=32)
    p_mask.add_argument("--frames", type=int, default=16)
    p_mask.add_argument("--accel", type=float, default=8.0)
    p_mask.add_argument("--band", type=int, default=2)
    p_mask.add_argument("--seed", type=int, default=0)
    p_mask.set_defaults(func=_cmd_mask)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DataError, SolverError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
