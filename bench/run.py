"""End-to-end benchmark of the ``polyheight`` CLI.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20     # every workload

One closed-loop client: a single process and thread sends one item at a
time to ``polyheight.cli.main(argv)`` (stdout captured) and sends the
next only when the previous one has returned.  Inputs are generated from
the seed and checked against independent oracles (``workloads.py``)
outside the timed region.  The timed phase runs whole stratum periods
until the items' own wall time adds up to ``--seconds`` and at least
MIN_ITEMS are done.  Times are scaled to a reference host speed (see
REF_KERNEL_S).  The program is imported from ``src/`` of the checkout
that holds this directory; without it the benchmark exits with an error
and prints no result.

``--trace 0`` reports the end-to-end metrics: throughput (median over
periods), median and p90 item time, set-up time (median of fresh
interpreters that import the package and finish one warm-up item) and
peak resident memory.  ``--trace 1`` runs the items of half a run twice,
untraced and then traced (``tracer.py``), and reports per-layer self time
and counts per item, the ratios, and the tracing overhead.

The last line of stdout is the result object; the line before it holds
the run metadata, and the lines above it a readable summary.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 5

# The speed of a shared host drifts by up to +-30 % within seconds (one
# item took 80 ms and 160 ms a minute apart, with CPU time equal to wall
# time), which no run length averages out.  A fixed reference kernel runs
# before every item, and item times are scaled by REF_KERNEL_S over the
# kernel's time around the item (see scaled): they are reported at the
# host speed at which the kernel takes REF_KERNEL_S.  Raw times are kept
# in bench_meta.
REF_KERNEL_S = 0.003

# The timed phase runs on past --seconds until this many items are done,
# so that at least 12 item times lie beyond the reported p90.
MIN_ITEMS = 125

# Child process for set-up time: a fresh interpreter imports the package
# and the CLI and runs the workload's warm-up item.
PROBE = """\
import contextlib, io, sys
import polyheight, polyheight.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = polyheight.cli.main(sys.argv[1:])
sys.exit(rc)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    if not (SRC / "polyheight" / "cli.py").is_file():
        fail(f"no polyheight sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyheight.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "polyheight":
        fail(f"imported polyheight from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, error) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        return None, out.getvalue(), f"SystemExit({exc.code})"
    except Exception as exc:  # an item that raises is a failed item
        return None, out.getvalue(), repr(exc)
    return rc, out.getvalue(), None


def parse_report(argv: list[str], text: str) -> dict:
    report = json.loads(text)
    if report.get("schema") != 1 or report.get("command") != argv[0]:
        raise ValueError("not a schema-1 report of this command")
    return report


def judge(item, rc, text, error) -> str | None:
    """None when the item succeeded, else why it failed."""
    if error is not None:
        return error
    if rc != 0:
        return f"exit code {rc}"
    try:
        return item.check(parse_report(item.argv, text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the interpreter work polyheight does
    (Fraction and big-integer arithmetic, 256-bit mpmath); it shares no
    code with polyheight, so no change to the program can alter it."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    big = 3 ** 400
    for i in range(80):
        big = big * (7 ** 90 + i) % 10 ** 300
    with mpmath.workprec(256):
        x = mpmath.mpf(1)
        for i in range(1, 50):
            x = mpmath.sqrt(x + i) * i / (i + 1)
    return perf_counter() - t0


def run_items(cli, items) -> tuple[list[float], list[float], list]:
    """Run the items one at a time, each after one run of the reference
    kernel; returns (item wall times, kernel times, failures)."""
    times, refs, failures = [], [], []
    for item in items:
        refs.append(reference_kernel())
        t0 = perf_counter()
        rc, text, error = call(cli, item.argv)
        times.append(perf_counter() - t0)
        reason = judge(item, rc, text, error)
        if reason is not None:
            failures.append((item.argv, reason))
    return times, refs, failures


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Item times at the reference speed.  Item i is scaled by the mean of
    the kernel times i-10 .. i+10 (kernel i runs just before item i), a
    window that follows host drift over a second or more."""
    return [t * REF_KERNEL_S / statistics.fmean(refs[max(0, i - 10):i + 11])
            for i, t in enumerate(times)]


def periods(cli, stream, seconds: float, period: int, min_items: int = 0):
    """Run whole stratum periods of the stream, yielding (items, item
    times, kernel times, failures) for each, until the item times scaled
    to the reference speed add up to ``seconds`` and at least
    ``min_items`` are done; so the item count does not follow the host's
    speed.  A raw time of twice ``seconds`` ends the phase in any case.
    Each period's inputs and oracles are made before it starts."""
    total, raw, count = 0.0, 0.0, 0
    while (total < seconds or count < min_items) and raw < 2 * seconds:
        chunk = [next(stream) for _ in range(period)]
        times, refs, failures = run_items(cli, chunk)
        total += sum(scaled(times, refs))
        raw += sum(times)
        count += len(chunk)
        yield chunk, times, refs, failures


def setup_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports the package and
    finishes the workload's warm-up item."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, *workloads.WARMUP[workload]],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return dt


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, counts: dict) -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def end_to_end(cli, args) -> tuple[dict, dict, list]:
    """Untraced timed phase.  Set-up probes run between periods, so that
    their median, like that of the periods, spans the whole run.  They
    are not scaled: the probe runs in another process, whose speed the
    kernel in this one does not track.  The first probe only fills the
    bytecode cache and is not counted."""
    probes = []

    def probe():
        if len(probes) <= SETUP_PROBES:
            probes.append(setup_probe(args.workload))

    probe()
    run_warmup(cli, args.workload)
    stream = workloads.stream(args.workload, args.seed, oracle_cli(cli))
    count, misses, raw, refs, failures = 0, 0, [], [], []
    # items are dropped once checked, so that the peak memory is the program's
    for chunk, t, r, f in periods(cli, stream, args.seconds, workloads.PERIOD[args.workload],
                                  MIN_ITEMS):
        count += len(chunk)
        misses += sum(item.strict_miss for item in chunk)
        raw += t
        refs += r
        failures += f
        probe()
    while len(probes) <= SETUP_PROBES:
        probe()
    times = scaled(raw, refs)
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms.p50": (1000 * statistics.median(times), "ms"),
        "item_ms.p90": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "setup_s": (statistics.median(probes[1:]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {"items": count, "failed_items": len(failures),
              "fail_ratio": len(failures) / count,
              "enclosure_strict_misses": misses,
              "reference_kernel_ms": 1000 * statistics.median(refs),
              "raw_items_per_s": len(raw) / sum(raw),
              "raw_item_ms.p50": 1000 * statistics.median(raw),
              "raw_item_ms.p90": 1000 * statistics.quantiles(raw, n=10)[8]}
    return metrics, counts, failures


def traced(cli, args) -> tuple[dict, dict, list]:
    """The items of an untraced phase of half the run length, run again
    with the tracer installed.  Their inputs and oracles were made in the
    first pass, so the tracer records only the timed calls."""
    from tracer import Tracer
    run_warmup(cli, args.workload)
    tracer = Tracer()
    stream = workloads.stream(args.workload, args.seed, oracle_cli(cli))
    done, plain, plain_refs, failures = [], [], [], []
    for chunk, t, r, f in periods(cli, stream, args.seconds / 2, workloads.PERIOD[args.workload]):
        done += chunk
        plain += t
        plain_refs += r
        failures += f
    tracer.install()
    try:
        tracer.active = True
        times, refs, more = run_items(cli, done)
    finally:
        tracer.uninstall()
    traced_s = sum(scaled(times, refs))
    metrics = tracer.metrics(len(done), traced_s / sum(times))
    metrics["trace.overhead_ratio"] = (traced_s / sum(scaled(plain, plain_refs)) - 1, "ratio")
    counts = {"items": len(done), "traced_items": len(done),
              "failed_items": len(failures) + len(more),
              "fail_ratio": (len(failures) + len(more)) / (2 * len(done))}
    return metrics, counts, failures + more


def run_warmup(cli, workload: str) -> None:
    argv = workloads.WARMUP[workload]
    rc, _, error = call(cli, argv)
    if error is not None or rc != 0:
        fail(f"warm-up item {argv} failed: rc={rc} {error}")


def oracle_cli(cli):
    """CLI runner for oracles that need a second, untimed program call."""
    def run(argv):
        rc, text, error = call(cli, argv)
        if error is not None:
            raise RuntimeError(f"oracle call {argv} failed: {error}")
        return rc, parse_report(argv, text)
    return run


def run_all(args) -> int:
    """Every workload in a process of its own, one after another: their
    readable lines, then one result with metric names prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            fail(f"workload {workload} exited {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{name}": value
                                    for name, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    cli = load_cli()
    metrics, counts, failures = (traced if args.trace else end_to_end)(cli, args)
    for argv_, reason in failures[:10]:
        print(f"FAILED {reason}: {' '.join(argv_)[:300]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<7} {name:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<7} {'fail_ratio':<34} {counts['fail_ratio']:>14.6g} ratio")
    print(json.dumps({"bench_meta": metadata(args, counts)}, sort_keys=True))
    attempted = counts["items"] + counts.get("traced_items", 0)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
