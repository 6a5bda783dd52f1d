"""The benchmark's layer tracer imports polyheight.<layer> for each name
in its LAYERS; every such module must exist."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced_layers() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment in bench/tracer.py")


def test_traced_layers_are_modules():
    layers = _traced_layers()
    assert "gauss_lattice" in layers
    for name in layers:
        importlib.import_module(f"polyheight.{name}")
