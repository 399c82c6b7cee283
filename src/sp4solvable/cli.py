"""Command-line front end.

Subcommands: verify-catalog, identify, invariants, conjugate,
classify-element, export-catalog.  Batch-only; inputs are JSON files using
the library's wire formats (matrices as 4x4 grids of rational strings,
subalgebras as {"ambient": "sp4", "basis": [...]}), outputs go to stdout as
text or JSON.  Exit codes: 0 success, 1 verification failure, 2 parse error
(malformed input, bad conjugator recipe), 3 out of domain (not solvable,
irrational spectrum, unrecognized family, factoring bound exceeded).

verify-catalog checks each parameterized row at the default parameter
samples, or at the comma-separated rationals given with --params, and prints
the samples it used in its report header.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import catalog_to_json, load_catalog
from .errors import (FactorizationLimit, IrrationalSpectrum, NotSolvable,
                     OutOfCatalog, Sp4Error, UnrecognizedFamily,
                     UnsupportedDimension)
from .identify import degraaf_to_sw, identify_degraaf
from .invariants import signature
from .jordan import classify_element
from .linalg import Mat4
from .rational import format_rational, parse_rational
from .sp4 import DEFAULT_PARAM_SAMPLES, conjugate_subalgebra, parse_conjugator
from .structure import Subalgebra, structure_constants
from .verify import match_catalog, verify_catalog


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc


class _ParseFailure(Exception):
    pass


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return n


def _load_matrix(path: str) -> Mat4:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    try:
        return Mat4.from_json(data)
    except (ValueError, ZeroDivisionError, TypeError, IndexError) as exc:
        raise _ParseFailure(f"{path}: expected a 4x4 grid of rational strings: {exc}")


def _load_subalgebra(path: str) -> Subalgebra:
    data = _load_json(path)
    try:
        return Subalgebra.from_json(data)
    except (Sp4Error, ValueError, ZeroDivisionError, TypeError, KeyError) as exc:
        raise _ParseFailure(f"{path}: not a closed sp(4) subalgebra: {exc}")


def _parse_option(text: str, option: str):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseFailure(f"{option}: {text!r} is not a rational: {exc}")


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for k, v in payload.items():
            if isinstance(v, str) and "\n" in v:
                print(v)
            else:
                print(f"{k}: {v}")


def cmd_verify_catalog(args) -> int:
    params = DEFAULT_PARAM_SAMPLES
    if args.params:
        params = tuple(_parse_option(p, "--params") for p in args.params.split(","))
    rep = verify_catalog(params=params, probe_seed=args.seed,
                         probe_count=args.probe_count)
    if args.output == "json":
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    else:
        print(rep.to_text())
    return 0 if rep.overall_pass else 1


def cmd_identify(args) -> int:
    sub = _load_subalgebra(args.input)
    matches = match_catalog(sub)  # raises NotSolvable before any identification
    payload: dict = {"dim": sub.dim}
    if sub.dim <= 4:
        dg = identify_degraaf(structure_constants(sub))
        payload["degraaf"] = str(dg)
        try:
            payload["sw"] = str(degraaf_to_sw(dg))
        except OutOfCatalog as exc:
            payload["sw"] = f"out of catalog ({exc})"
    payload["catalog_rows"] = [
        {"row": rid, "param": None if a is None else format_rational(a)}
        for rid, a in matches]
    if sub.dim > 4 and matches:
        entries = {e.row_id: e for e in load_catalog()}
        rid, a = matches[0]
        payload["sw"] = str(entries[rid].sw_at(a))
    _emit(payload, args.output)
    return 0


def cmd_invariants(args) -> int:
    sub = _load_subalgebra(args.input)
    _emit(signature(sub).to_json(), args.output)
    return 0


def cmd_conjugate(args) -> int:
    sub = _load_subalgebra(args.input)
    env = {}
    if args.param:
        env["a"] = _parse_option(args.param, "--param")
    g = parse_conjugator(args.conjugator, env)
    image = Subalgebra(conjugate_subalgebra(g, sub.space))
    _emit(image.to_json(), args.output)
    return 0


def cmd_classify_element(args) -> int:
    _emit(classify_element(_load_matrix(args.input)).to_json(), args.output)
    return 0


def cmd_export_catalog(args) -> int:
    print(json.dumps(catalog_to_json(), indent=2, sort_keys=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The six-subcommand parser, built on first use and kept."""
    p = argparse.ArgumentParser(
        prog="sp4solvable",
        description="Exact certification of the solvable subalgebra "
                    "classification of sp(4).")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify-catalog", help="certify all table rows")
    v.add_argument("--params", help="comma-separated rational sample overrides")
    v.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    v.add_argument("--probe-count", type=_count, default=0,
                   help="number of random subalgebra probes to run")
    v.add_argument("--output", choices=("text", "json"), default="text")
    v.set_defaults(func=cmd_verify_catalog)

    i = sub.add_parser("identify", help="identify a subalgebra from JSON")
    i.add_argument("--input", required=True)
    i.add_argument("--output", choices=("text", "json"), default="text")
    i.set_defaults(func=cmd_identify)

    inv = sub.add_parser("invariants", help="dump the invariant signature")
    inv.add_argument("--input", required=True)
    inv.add_argument("--output", choices=("text", "json"), default="text")
    inv.set_defaults(func=cmd_invariants)

    c = sub.add_parser("conjugate", help="apply a conjugator recipe")
    c.add_argument("--input", required=True)
    c.add_argument("--conjugator", required=True,
                   help='e.g. "W", "A W A", "shear:alpha:1/2", "diag:2,1,1/2,1"')
    c.add_argument("--param", help="value for the recipe parameter a")
    c.add_argument("--output", choices=("text", "json"), default="text")
    c.set_defaults(func=cmd_conjugate)

    ce = sub.add_parser("classify-element", help="conjugacy class of one element")
    ce.add_argument("--input", required=True)
    ce.add_argument("--output", choices=("text", "json"), default="text")
    ce.set_defaults(func=cmd_classify_element)

    ex = sub.add_parser("export-catalog", help="emit the catalog as JSON")
    ex.set_defaults(func=cmd_export_catalog)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a lone "-1/3" as an option: join it as "--params=-1/3"
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--params", "--param") and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except IrrationalSpectrum as exc:
        print(f"{type(exc).__name__}: {exc}; compare characteristic "
              f"polynomials instead of eigenvalue data", file=sys.stderr)
        return 3
    except (FactorizationLimit, NotSolvable, UnrecognizedFamily,
            UnsupportedDimension) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Sp4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
