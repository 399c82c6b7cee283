"""A code-mutation sweep of the sp4solvable sources, one mutation per run.

    python3 tools/mutate.py MODULE [MODULE ...] [--lines A-B]

Run from the root of a source checkout; MODULE is a file name under
`src/sp4solvable` (`linalg.py`).  Each mutation site is one AST node:
- a comparison flipped at its boundary or its sense (`<` and `<=`, `>` and
  `>=`, `==` and `!=`, `is` and `is not`, `in` and `not in`);
- `and` and `or` swapped;
- a `not` dropped;
- a boolean constant flipped.
The checkout's `src`, `tests`, `tools`, `demos` and `pyproject.toml` are
copied once to a temporary directory, where the module's tests must pass
unmutated (else every mutant would read as killed; exit 2).  For each site
(or each on lines A-B) the module there is replaced by its mutant
(`ast.unparse`), and pytest runs the module's tests (`MODULE_TESTS`) plus
`test_outputs` and `test_golden` in that copy, one subprocess at a time,
stopping at the first failure.  A mutant is killed when pytest fails or
runs past `TIMEOUT_S`; the survivors are printed per module as
`file:line`.  Nothing in the checkout is written.  Exit status: 0, or 1 if
some mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sp4solvable"
ALWAYS = ("tests/test_outputs.py", "tests/test_golden.py")
# A mutant can loop forever (a flipped loop test); an unmutated run takes 5-15 s.
TIMEOUT_S = 120
MODULE_TESTS = {
    "catalog.py": ("test_catalog",),
    "cli.py": ("test_cli", "test_fuzz_parsers"),
    "exprs.py": ("test_exprs",),
    "identify.py": ("test_identify", "test_records"),
    "invariants.py": ("test_invariants", "test_qt_elimination"),
    "jordan.py": ("test_jordan",),
    "linalg.py": ("test_linalg", "test_int_poly", "test_integer_echelon"),
    "rational.py": ("test_linalg", "test_records"),
    "sp4.py": ("test_sp4",),
    "structure.py": ("test_structure", "test_bracket_table"),
    "verify.py": ("test_verify",),
}
_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in"}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    """(node, operand index, description) of every mutation site, in source order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out += [(node, i, f"`{_SYMBOL[type(op)]}` -> `{_SYMBOL[_COMPARE[type(op)]]}`")
                    for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BoolOp):
            out.append((node, 0, "`and` -> `or`" if isinstance(node.op, ast.And)
                        else "`or` -> `and`"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, 0, "`not` dropped"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            out.append((node, 0, f"`{node.value}` -> `{not node.value}`"))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant(text: str, k: int) -> str:
    """The source of text with its k-th site mutated."""
    tree = ast.parse(text)
    node, i, _ = sites(tree)[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = _COMPARE[type(node.ops[i])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.UnaryOp):
        tree = _DropNot(node).visit(tree)
    else:
        node.value = not node.value
    return ast.unparse(tree)


def killed(copy: Path, module: str, source: str, tests: list[str]) -> bool:
    """Whether the tests fail (or time out) with the copy's module replaced by source."""
    target = copy / "src" / "sp4solvable" / module
    original = target.read_text()
    target.write_text(source)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, capture_output=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                 "PYTHONPATH": str(copy / "src")})
        return run.returncode != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        target.write_text(original)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("modules", nargs="+", choices=sorted(MODULE_TESTS), metavar="MODULE")
    p.add_argument("--lines", help="only the sites on lines A-B")
    args = p.parse_args(argv)
    survived = 0
    with tempfile.TemporaryDirectory(prefix="sp4mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools", "demos"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for module in args.modules:
            text = (SRC / module).read_text()
            chosen = list(enumerate(sites(ast.parse(text))))
            if args.lines:
                a, b = map(int, args.lines.split("-"))
                chosen = [c for c in chosen if a <= c[1][0].lineno <= b]
            tests = [f"tests/{t}.py" for t in MODULE_TESTS[module]] + list(ALWAYS)
            if killed(copy, module, text, tests):
                print(f"{module}: its tests fail unmutated; no mutant run", file=sys.stderr)
                return 2
            survivors = []
            for k, (node, _, what) in chosen:
                if not killed(copy, module, mutant(text, k), tests):
                    survivors.append(f"src/sp4solvable/{module}:{node.lineno}: {what}")
                    print(f"survived {survivors[-1]}", file=sys.stderr, flush=True)
            print(f"{module}: {len(chosen)} mutants, {len(survivors)} survived")
            print("".join(f"  {s}\n" for s in survivors), end="")
            survived += len(survivors)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
