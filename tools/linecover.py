"""Line coverage of the sp4solvable sources without the `coverage` package.

    python3 tools/linecover.py [PYTEST_ARGS ...]

Run from the root of a source checkout.  It runs pytest in this process
with the given arguments (default: the tier-1 suite, quiet) under a
`sys.settrace` collector that records each line run in
`src/sp4solvable/*.py`, and prints, per module, the executable lines that
never ran.  The executable lines of a
file are the line starts of every code object compiled from it, less the
bodies of module-level `if TYPE_CHECKING:` and `if __name__ == "__main__":`
blocks, which no import runs; a
function's `def` line counts as run when the function is called.  Lines run
only in a child process (CLI tests that start an interpreter, the demos) are
not seen, and the suite runs about three times slower under the collector.
It is opt-in and outside the suite's `testpaths`.  Exit status: pytest's.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sp4solvable"


def executable_lines(path: Path) -> set[int]:
    """The line starts of the module's code and of every code object in it,
    less the bodies of its import-time-dead blocks (`_dead_lines`)."""
    text = path.read_text()
    lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - _dead_lines(ast.parse(text))


def _dead_lines(tree: ast.Module) -> set[int]:
    """The lines of the bodies of module-level `if TYPE_CHECKING:` and
    `if __name__ == "__main__":` blocks (their `if` line itself runs)."""
    dead = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "__name__ == '__main__'"):
            dead.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return dead


class LineCollector:
    """The (file, line) pairs run in files under `prefix`, per file."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.seen: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        lines = self.seen.setdefault(name, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    sys.path.insert(0, str(ROOT / "tests"))
    import pytest

    with LineCollector(str(SRC) + "/") as collector:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(executable_lines(path) - collector.seen.get(str(path), set()))
        print(f"{path.stem:12s} {len(missed):4d} never run: {', '.join(map(str, missed)) or '-'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
