"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

- A wrong output planted in one item of each workload is counted as
  exactly one failure.
- Tracing changes no byte of the schema-1 JSON, records spans, and
  ``uninstall`` restores every wrapped function and alias.
- Inputs are a function of the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads
from tracer import Tracer


def first_items(cli, workload: str, seed: int, count: int):
    stream = workloads.stream(workload, seed, run.oracle_cli(cli))
    return [next(stream) for _ in range(count)]


class Planted:
    """Stands in for ``polyheight.cli``: passes every call through, but
    rewrites the JSON report of one victim argv."""

    def __init__(self, cli, victim: list[str], edit):
        self.cli, self.victim, self.edit = cli, victim, edit

    def main(self, argv):
        if argv != self.victim:
            return self.cli.main(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        report = json.loads(out.getvalue())
        self.edit(report["results"])
        print(json.dumps(report, indent=2))
        return rc


def _scale_pair(pair):
    return [repr(float(x) * 1.000001) for x in pair]


# (item index, edit of the victim's results) per workload
PLANTS = {
    "verify": (2, lambda r: r["checks"][1].update(verdict="fails")),
    "mahler": (1, lambda r: r.update(mahler=_scale_pair(r["mahler"]))),
    "height": (5, lambda r: r.update(nonarch="7/3")),
    "search": (4, lambda r: r.update(b=str(int(r["b"]) + 1))),
}


def test_planted_failure_is_counted(cli):
    for workload, (index, edit) in PLANTS.items():
        items = first_items(cli, workload, 7, 6)
        times, _, failures = run.run_items(cli, items)
        assert not failures, (workload, failures)
        planted = Planted(cli, items[index].argv, edit)
        times, _, failures = run.run_items(planted, items)
        assert len(times) == 6, workload
        assert [argv for argv, _ in failures] == [items[index].argv], (workload, failures)


def test_trace_keeps_output_and_restores(cli):
    import polyheight.cli
    import polyheight.intervals
    import polyheight.polynomials
    import polyheight.rootfind
    originals = {
        "expand": polyheight.polynomials.SplitPoly.expand,
        "gcd": polyheight.polynomials.PolyOverK.__dict__["gcd"],
        "checks": dict(polyheight.cli._CHECKS),
        "wp": polyheight.rootfind.working_precision,
        "main": polyheight.cli.main,
    }
    for workload in workloads.WORKLOADS:
        argvs = [workloads.WARMUP[workload]] + [i.argv for i in first_items(cli, workload, 5, 5)]
        plain = [run.call(cli, argv) for argv in argvs]
        tracer = Tracer()
        tracer.install()
        try:
            assert polyheight.cli.main is not originals["main"]
            assert polyheight.cli._CHECKS["bound2"] is not originals["checks"]["bound2"]
            assert polyheight.rootfind.working_precision is not originals["wp"]
            tracer.active = True
            traced = [run.call(cli, argv) for argv in argvs]
        finally:
            tracer.uninstall()
        for argv, a, b in zip(argvs, plain, traced):
            assert a[2] is None and a == b, (workload, argv)
        assert tracer.calls["cli"] == len(argvs), workload
    assert polyheight.polynomials.SplitPoly.expand is originals["expand"]
    assert polyheight.polynomials.PolyOverK.__dict__["gcd"] is originals["gcd"]
    assert polyheight.cli._CHECKS == originals["checks"]
    assert polyheight.rootfind.working_precision is originals["wp"]
    assert polyheight.intervals.working_precision is originals["wp"]
    assert polyheight.cli.main is originals["main"]
    assert "polyheight.__main__" not in sys.modules


def test_inputs_follow_the_seed(cli):
    for workload in workloads.WORKLOADS:
        a = [i.argv for i in first_items(cli, workload, 3, 10)]
        b = [i.argv for i in first_items(cli, workload, 3, 10)]
        c = [i.argv for i in first_items(cli, workload, 4, 10)]
        assert a == b and a != c, workload


def main() -> int:
    cli = run.load_cli()
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test(cli)
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
