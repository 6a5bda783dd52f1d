"""Source-level checks: the benchmark's layer tracer imports
polyheight.<layer> for each name in its LAYERS, so every such module must
exist, and it wraps and restores the names it binds; the height, bound and
search modules use no prime-by-prime API; and search decides splitting
exactly, without floats or root isolation."""
import ast
import importlib
import importlib.util
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


def test_tracer_wraps_and_restores_the_names_it_binds():
    # the tracer reads these names with no fallback, so renaming one
    # breaks the benchmark's traced run
    from polyheight import cli, intervals, rootfind
    from polyheight.polynomials import PolyOverK, SplitPoly
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    def bound():
        return {"intervals.working_precision": intervals.working_precision,
                "rootfind.working_precision": rootfind.working_precision,
                "SplitPoly.expand": vars(SplitPoly)["expand"],
                "PolyOverK.gcd": vars(PolyOverK)["gcd"],
                **{f"cli._CHECKS[{k}]": v for k, v in cli._CHECKS.items()}}

    before = bound()
    assert before["rootfind.working_precision"] is before["intervals.working_precision"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = bound()
    finally:
        tracer.uninstall()
    assert not [name for name, fn in wrapped.items() if fn is before[name]]
    after = bound()
    assert after.keys() == before.keys()
    assert all(after[name] is fn for name, fn in before.items())


PRIME_FREE = ("heights", "bounds", "search", "gauss_lattice")
PRIME_API = {"factorize", "valuation", "primes_above", "element_support", "split_prime"}


def test_heights_bounds_and_searches_use_no_primes():
    # their non-archimedean quantities come from valuations.ideal_norm;
    # the prime-by-prime API stays out of them
    src = Path(__file__).resolve().parent.parent / "src" / "polyheight"
    for name in PRIME_FREE:
        tree = ast.parse((src / f"{name}.py").read_text())
        used = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not used & PRIME_API, (name, used & PRIME_API)


def test_search_imports_neither_numpy_nor_rootfind():
    src = Path(__file__).resolve().parent.parent / "src" / "polyheight" / "search.py"
    tree = ast.parse(src.read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name.rpartition(".")[2] for name in imported} & {"numpy", "rootfind"}
