"""Command-line front end.

Commands: verify-catalog, identify, invariants, conjugate, classify-element,
export-catalog.  `COMMANDS` lists the options of each, given as `--option
value` or `--option=value` (a value may start with "-"); `--help` prints it.
Batch-only; inputs are JSON files using the library's wire formats (matrices
as 4x4 grids of rational strings, subalgebras as {"ambient": "sp4", "basis":
[...]}), outputs go to stdout as text or JSON.  Exit codes: 0 success, 1
verification failure (also a catalog row whose data faults while `identify`
compares it), 2 parse error (a usage error or malformed input, reported as
`parse error: ...`, a bad conjugator recipe, a matrix outside sp(4)), 3 out of
domain (not solvable, irrational spectrum, unrecognized family, factoring,
expression or probe count bound exceeded, a computed value longer than the
interpreter prints, `OutputLimit`, though each input entry fit: `main`
leaves that limit as it is); a library error ends in the code its class
carries (`Sp4Error.exit_code`).  `identify` exits 0 only with one catalog
row: a subalgebra that only a row at an irrational parameter could match
exits 3, and one that no row or several rows match exits 1, naming them.

verify-catalog prints the parameter samples it used in its report header.
"""

from __future__ import annotations

import json
import sys

from .catalog import CATALOG_FILE, DEFAULT_PARAM_SAMPLES, load_catalog
from .errors import IrrationalSpectrum, OutOfCatalog, Sp4Error
from .identify import degraaf_to_sw, identify_degraaf
from .invariants import signature
from .jordan import classify_element
from .linalg import Mat4
from .rational import format_rational, parse_rational
from .sp4 import conjugate_subalgebra, parse_conjugator
from .structure import Subalgebra, structure_constants
from .verify import PROBE_COUNT_BOUND, _match_problem, match_catalog, verify_catalog


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc


class _ParseFailure(Exception):
    pass


def _integer(opts: dict, option: str, least: int | None = None) -> int:
    try:
        n = int(opts[option])
    except ValueError as exc:
        raise _ParseFailure(f"{option}: {opts[option]!r} is not an integer") from exc
    if least is not None and n < least:
        raise _ParseFailure(f"{option}: {opts[option]!r} is below {least}")
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
            print(f"{k}: {v}")


def cmd_verify_catalog(opts: dict) -> int:
    seed, count = _integer(opts, "--seed"), _integer(opts, "--probe-count", least=0)
    params = DEFAULT_PARAM_SAMPLES
    if opts["--params"] is not None:
        # a repeated value (2,2 or 2,4/2) is one sample, kept where first seen
        params = tuple(dict.fromkeys(_parse_option(p, "--params")
                                     for p in opts["--params"].split(",")))
    rep = verify_catalog(params=params, probe_seed=seed, probe_count=count)
    if opts["--output"] == "json":
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    else:
        print(rep.to_text())
    return 0 if rep.overall_pass else 1


def cmd_identify(opts: dict) -> int:
    sub = _load_subalgebra(opts["--input"])
    try:
        matches, outside = match_catalog(sub), None  # raises NotSolvable before any identification
    except IrrationalSpectrum as exc:
        # raised after the labels, so that their own limits are reported first
        matches, outside = [], exc
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
    if outside is not None:
        raise outside
    _emit(payload, opts["--output"])
    if len(matches) != 1:  # a completeness failure, or a separation failure
        print(_match_problem(sub, matches) if matches else
              "no catalog row matches: the classification misses this subalgebra",
              file=sys.stderr)
        return 1
    return 0


def cmd_invariants(opts: dict) -> int:
    sub = _load_subalgebra(opts["--input"])
    _emit(signature(sub).to_json(), opts["--output"])
    return 0


def cmd_conjugate(opts: dict) -> int:
    sub = _load_subalgebra(opts["--input"])
    env = {}
    if opts["--param"] is not None:
        env["a"] = _parse_option(opts["--param"], "--param")
    g = parse_conjugator(opts["--conjugator"], env)
    image = Subalgebra(conjugate_subalgebra(g, sub.space))
    _emit(image.to_json(), opts["--output"])
    return 0


def cmd_classify_element(opts: dict) -> int:
    _emit(classify_element(_load_matrix(opts["--input"])).to_json(), opts["--output"])
    return 0


def cmd_export_catalog(opts: dict) -> int:
    load_catalog()  # a drifted row count exits 2 before anything is printed
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


# each command's handler, help line and options, each with its default (... if required)
COMMANDS = {
    "verify-catalog": (cmd_verify_catalog, "certify all table rows at the comma-separated "
                       f"--params, probing --probe-count (at most {PROBE_COUNT_BOUND}) draws",
                       {"--params": None, "--seed": "0", "--probe-count": "0", "--output": "text"}),
    "identify": (cmd_identify, "identify a subalgebra from JSON",
                 {"--input": ..., "--output": "text"}),
    "invariants": (cmd_invariants, "dump the invariant signature",
                   {"--input": ..., "--output": "text"}),
    "conjugate": (cmd_conjugate, 'apply a conjugator recipe, e.g. "W", "A W A", '
                  '"shear:alpha:1/2", "diag:2,1,1/2,1"; --param is its a',
                  {"--input": ..., "--conjugator": ..., "--param": None, "--output": "text"}),
    "classify-element": (cmd_classify_element, "conjugacy class of one element",
                         {"--input": ..., "--output": "text"}),
    "export-catalog": (cmd_export_catalog, "emit the catalog as JSON", {}),
}


def _help(opts: dict) -> int:
    print("usage: sp4solvable COMMAND [--OPTION VALUE]...  (defaults shown)\n")
    for command, (_, text, options) in COMMANDS.items():
        shown = [f"{o} {'(required)' if d is ... else d or '(unset)'}" for o, d in options.items()]
        print(" ".join([command, *shown]), text, sep="\n    ")
    return 0


def _parse(argv: list) -> tuple:
    """The handler that argv names and its options, read against `COMMANDS`."""
    if "-h" in argv or "--help" in argv:
        return _help, {}
    command, tokens = argv[0] if argv else "", iter(argv[1:])
    if command not in COMMANDS:
        raise _ParseFailure(f"unknown command {command!r}; one of {', '.join(COMMANDS)}")
    func, _, options = COMMANDS[command]
    opts = dict(options)
    for token in tokens:
        option, eq, value = token.partition("=")
        if option not in options:
            raise _ParseFailure(f"{command}: unknown option {token!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise _ParseFailure(f"{command}: {option} needs a value")
        opts[option] = value
    if missing := [option for option, value in opts.items() if value is ...]:
        raise _ParseFailure(f"{command}: {missing[0]} is required")
    if opts.get("--output", "text") not in ("text", "json"):
        raise _ParseFailure(f"--output: {opts['--output']!r} is not text or json")
    return func, opts


def main(argv=None) -> int:
    try:
        func, opts = _parse(sys.argv[1:] if argv is None else list(argv))
        return func(opts)
    except BrokenPipeError:
        return 0
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Sp4Error as exc:
        # the error's own exit code; a bad input (2) is reported as an error,
        # a limit (3) or a faulty catalog row (1) by its type
        print(f"{'error' if exc.exit_code == 2 else type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
