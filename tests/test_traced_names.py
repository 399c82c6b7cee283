"""The benchmark's tracer (`perfbench/spans.py`) wraps library functions by
name.  Each name it lists must resolve on the library, so that renaming or
splitting a traced function fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers() -> tuple:
    """The (metric, module, attribute) triples of `LAYERS` in spans.py, read
    from its source; the file is neither imported nor edited."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYERS")


def test_every_traced_layer_resolves_on_the_library():
    layers = traced_layers()
    assert len(layers) > 20
    unresolved = []
    for metric, module, attr in layers:
        obj = importlib.import_module(module)
        for part in attr.split("."):  # Class.method is looked up on its class
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(f"{metric}: {module}.{attr}")
    assert unresolved == []
