"""Output gate: the bytes of the commands and sweeps that a change which keeps
every verdict must leave as they are, each compared with the value recorded
in `outputs.json`.

The outputs are computed in this process: the CLI through `cli.main`, the
demo by `runpy`, and the two sweeps through the functions that
`tools/sigdigest.py` and `tools/descent.py` print.  A change that alters one
on purpose records the new value and says why, as for `test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from sp4solvable.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((ROOT / "tests" / "outputs.json").read_text())
sys.path.insert(0, str(ROOT / "tools"))

import descent  # noqa: E402
import sigdigest  # noqa: E402


def _stdout_sha256(run) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run()
    assert code == 0, f"exit status {code}"
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _cli(*argv):
    return lambda: _stdout_sha256(lambda: main(list(argv)))


def _demo(name):
    def run():
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
        return 0
    return lambda: _stdout_sha256(run)


@lru_cache(maxsize=None)
def _sigdigest() -> tuple:
    return tuple(sigdigest.digest_lines(1))


OUTPUTS = {
    "verify-catalog stdout sha256": _cli("verify-catalog"),
    "verify-catalog --output json --probe-count 400 --seed 11 stdout sha256": _cli(
        "verify-catalog", "--output", "json", "--probe-count", "400", "--seed", "11"),
    "export-catalog stdout sha256": _cli("export-catalog"),
    "demos/03 stdout sha256": _demo("03_invariants_and_separations.py"),
    "sigdigest signatures": lambda: _sigdigest()[0],
    "sigdigest element labels": lambda: _sigdigest()[1],
    "sigdigest catalog matches": lambda: _sigdigest()[2],
    "descent": lambda: " ".join(descent.report()),
}


def test_every_recorded_output_is_gated():
    assert RECORDED.keys() == OUTPUTS.keys()


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_is_unchanged(name):
    assert OUTPUTS[name]() == RECORDED[name], f"the output {name!r} changed"
