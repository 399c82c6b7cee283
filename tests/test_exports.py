import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _modules_loaded_by(code: str, also: tuple = ()) -> set:
    # a fresh interpreter: this process has long since loaded every module;
    # the package's modules are listed, and those named in `also`
    src = Path(sp4solvable.__file__).resolve().parents[1]
    probe = code + ("\nimport sys\nprint(' '.join(m for m in sys.modules"
                    f" if m.startswith('sp4solvable') or m in {also!r}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    return {m.removeprefix("sp4solvable.") for m in out.split()}


def test_the_catalog_loads_without_the_certifier():
    # only the tables, read as data: no expression, label, matrix,
    # bracket-table or presentation code until a row is evaluated
    loaded = _modules_loaded_by("import sp4solvable\nsp4solvable.load_catalog()")
    assert loaded == {"sp4solvable", "catalog", "rational", "errors"}
    code = ("import sp4solvable\n"
            "entry = next(e for e in sp4solvable.load_catalog() if e.row_id == 'd2_Ta1_Xa')\n"
            "from sp4solvable.sp4 import T, X_ALPHA\n"
            "assert entry.basis_at(2) == [T(2, 1), X_ALPHA]\n"
            "assert str(entry.degraaf_at(2)) == 'K2'")
    assert _modules_loaded_by(code) == loaded | {"exprs", "identify", "linalg", "sp4",
                                                 "structure"}
    loaded = _modules_loaded_by("import sp4solvable\nsp4solvable.classify_element")
    assert "jordan" in loaded and "verify" not in loaded


def test_the_certifier_never_reads_the_stored_row_signatures():
    # verify_entry and verify_separations compute every signature they
    # certify; only match_catalog reads row_signatures.json, on its first call
    code = ("import sp4solvable\n"
            "from sp4solvable import verify\n"
            "rows = sp4solvable.load_catalog()\n"
            "assert all(verify.verify_entry(e).overall_pass for e in rows)\n"
            "assert verify.verify_separations(rows).overall_pass\n"
            "assert verify._row_signatures.cache_info().misses == 0\n"
            "verify.match_catalog(sp4solvable.generated_subalgebra([sp4solvable.T(1, 0)]))\n"
            "assert verify._row_signatures.cache_info().misses == 1")
    assert "verify" in _modules_loaded_by(code)


def test_every_json_file_of_the_package_is_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = Path(sp4solvable.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        listed = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sp4solvable"]
    shipped = sorted(p.name for p in Path(sp4solvable.__file__).parent.glob("*.json"))
    assert shipped == ["catalog.json", "row_signatures.json"]
    assert set(shipped) <= set(listed)


def test_a_submodule_is_loaded_on_its_first_lookup():
    # a fresh interpreter has no `exprs` attribute yet: the package's lookup
    # imports it, with what it imports and nothing more
    loaded = _modules_loaded_by("import sp4solvable\nassert sp4solvable.exprs.eval_expr")
    assert loaded == {"sp4solvable", "exprs", "rational", "errors"}
    # here the module is long loaded; the lookup still returns it
    assert sp4solvable.__getattr__("exprs") is sp4solvable.exprs


def test_the_catalog_loads_without_dataclasses():
    # the rows are slotted records: `dataclasses` would bring `inspect`,
    # `ast`, `dis` and `tokenize` into every cold start
    loaded = _modules_loaded_by("import sp4solvable\nsp4solvable.load_catalog()",
                                also=("dataclasses", "inspect"))
    assert loaded == {"sp4solvable", "catalog", "rational", "errors"}


def test_no_module_imports_dataclasses():
    # every value is a `rational.Record`: one way to declare a value, and no
    # `inspect`, `ast`, `dis` or `tokenize` in the processes that import them
    src = Path(sp4solvable.__file__).resolve().parent
    importing = [path.name for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 or isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names)]
    assert importing == []


def test_the_command_line_loads_without_dataclasses():
    also = ("dataclasses", "inspect", "argparse")
    loaded = _modules_loaded_by("import sp4solvable.cli", also=also)
    assert "cli" in loaded and not loaded & set(also)


def test_only_the_package_loader_imports_at_call_time():
    # a module imported inside a function is loaded on that function's first
    # call; the package's PEP 562 lookup is the only place allowed to do so
    src = Path(sp4solvable.__file__).resolve().parent
    importing = set()
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, (ast.Import, ast.ImportFrom)) or (
                        isinstance(node, ast.Call) and "import_module" in ast.dump(node.func))
                    for node in ast.walk(func)):
                importing.add(f"{path.stem}.{func.name}")
    assert importing == {"__init__.__getattr__"}


def test_the_command_line_loads_every_module_up_front():
    # a module first loaded inside a command would be compiled in its first call
    modules = {info.name for info in pkgutil.iter_modules(sp4solvable.__path__)}
    assert _modules_loaded_by("import sp4solvable.cli") == modules | {"sp4solvable"}


def test_the_default_samples_are_defined_once():
    src = Path(sp4solvable.__file__).resolve().parent
    defining = [path.name for path in sorted(src.glob("*.py"))
                if "\nDEFAULT_PARAM_SAMPLES = " in path.read_text()]
    assert defining == ["catalog.py"]
    assert sp4solvable.DEFAULT_PARAM_SAMPLES is sp4solvable.catalog.DEFAULT_PARAM_SAMPLES


def test_every_export_is_its_defining_binding():
    for module, names in sp4solvable._EXPORTS.items():
        defining = importlib.import_module(f"sp4solvable.{module}")
        assert getattr(sp4solvable, module) is defining
        for name in names:
            assert getattr(sp4solvable, name) is getattr(defining, name), name
    assert len(set(sp4solvable.__all__)) == len(sp4solvable.__all__)


def test_an_export_is_looked_up_on_every_access(monkeypatch):
    # nothing is cached in the package: the benchmark tracer patches the
    # defining module and must be seen through `sp4solvable.<name>`
    import sp4solvable.jordan as jordan
    original = jordan.classify_element

    def fake(m):
        return m

    with monkeypatch.context() as patch:
        patch.setattr(sp4solvable.jordan, "classify_element", fake)
        assert sp4solvable.classify_element is fake
    assert sp4solvable.classify_element is original
    assert "classify_element" not in vars(sp4solvable)


def test_unknown_names_dir_and_star_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        sp4solvable.no_such_name
    assert not hasattr(sp4solvable, "cli_main")
    assert set(sp4solvable.__all__) <= set(dir(sp4solvable))
    assert set(sp4solvable._EXPORTS) <= set(dir(sp4solvable))
    namespace: dict = {}
    exec("from sp4solvable import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sp4solvable.__all__)
