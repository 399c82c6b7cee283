import importlib
import importlib.util
import pkgutil
from pathlib import Path

import sp4solvable


def test_every_all_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(sp4solvable.__path__):
        module = importlib.import_module(f"sp4solvable.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            checked += 1
    assert checked > 0


def test_every_traced_layer_resolves():
    # the benchmark's tracer wraps these library functions by name; a
    # refactor that deletes or renames one must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for name, modname, attr in spans.LAYERS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{name}: {modname}.{attr} is not callable"


def test_the_library_reads_no_environment_variable():
    # the parameter samples are set by argument only; no knob hides in the env
    src = Path(sp4solvable.__file__).resolve().parent
    readers = [f"{path.name}: {needle}" for path in sorted(src.glob("*.py"))
               for needle in ("os.environ", "getenv") if needle in path.read_text()]
    assert readers == []
