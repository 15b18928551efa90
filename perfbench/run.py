"""Benchmark of the repro toolkit: one workload, one seed, one JSON line.

Run from the root of a checkout (the toolkit is pure Python and is
imported from ``src/``; nothing is built)::

    python3 perfbench/run.py --workload alecto-long --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics:

- ``op_cost``: median wall time of one operation of the workload (see
  ``perfbench/workloads.py``) in units of the reference kernel
  (``perfbench/reference.py``) timed around it: the mean of the samples
  right before and after it and one more on each side; the raw times go
  to standard error;
- ``peak_rss_mb``: the process's peak resident memory up to the end of
  the window;
- ``setup_s``: the median of nine fresh interpreters that each import
  the toolkit and perform the workload's set-up, each timed against the
  reference kernel like an operation.

With ``--trace 1`` the same operations run under
:class:`tracing.LayerTracer` and the line carries the per-layer metrics
instead: self time per simulated access of each layer, and counts.
Every input derives from ``--seed``; every operation's output is
checked after the window (``correct``).  Scratch files live under
``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

from reference import reference_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 9

#: Seconds after which a set-up probe is killed.
PROBE_TIMEOUT = 120

#: Kernel calls per reference sample.
REFERENCE_CALLS = 3

#: The reference kernel's nominal duration: ``setup_s`` reports seconds
#: on a machine where one kernel call takes this long.
REFERENCE_SECONDS = 0.1

#: Reference samples on each side of an operation that make its
#: yardstick: one sample jitters more than the machine drifts in a few
#: operations, and an operation of seconds spans several of its states.
REFERENCE_REACH = 2

#: Per-layer self times reported per simulated access.
TIMED_LAYERS = ("trace", "core", "hierarchy", "selector", "train")


def _isolate_environment(workdir: str) -> None:
    """Keep the run local: no proxies for the loopback daemon, no
    ambient store or fault injection from the caller's shell, and
    temporary files inside the checkout."""
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                 "all_proxy", "ALL_PROXY", "REPRO_STORE", "REPRO_FAULTS"):
        os.environ.pop(name, None)
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    os.environ["TMPDIR"] = tempfile.tempdir = workdir


def _parse(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", metavar="DIR", default=None,
        help="only perform the workload's set-up in DIR, then exit",
    )
    return parser.parse_args(argv)


def _setup_seconds(args: argparse.Namespace, workdir: str) -> float:
    """Median set-up time of fresh interpreters, in reference seconds.

    The reference kernel is sampled before the first probe and after
    each; the median of the probes' :func:`_costs` is scaled by
    :data:`REFERENCE_SECONDS`.
    """
    walls = []
    refs = [_reference_sample()[0]]
    for probe in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup-{probe}")
        os.makedirs(probe_dir)
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe", probe_dir,
        ]
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls
        # every 50 ms, which would quantize the sample.
        killer = threading.Timer(PROBE_TIMEOUT, child.kill)
        killer.start()
        try:
            returncode = child.wait()
        finally:
            killer.cancel()
        walls.append(time.perf_counter() - start)
        if returncode != 0:
            raise RuntimeError(f"set-up probe exited with {returncode}")
        shutil.rmtree(probe_dir)
        refs.append(_reference_sample()[0])
    return statistics.median(_costs(walls, refs)) * REFERENCE_SECONDS


def _reference_sample() -> Tuple[float, float]:
    """The median of :data:`REFERENCE_CALLS` timed reference-kernel calls
    (one call is too short to escape the machine's jitter), and the time
    they took together."""
    times = []
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times), sum(times)


def _costs(times: List[float], refs: List[float]) -> List[float]:
    """Each time in units of the reference samples around it; time ``i``
    was taken between samples ``i`` and ``i + 1``."""
    return [
        took / statistics.mean(
            refs[max(0, index + 1 - REFERENCE_REACH):index + 1 + REFERENCE_REACH]
        )
        for index, took in enumerate(times)
    ]


def _measure(workload, seconds: float) -> Dict[str, object]:
    """Repeat operations until ``seconds`` have elapsed (at least one),
    sampling the reference kernel before the first and after each."""
    op_seconds: List[float] = []
    ref_seconds = [_reference_sample()[0]]
    accesses = failed = 0
    spent = 0.0
    start = time.perf_counter()
    while not op_seconds or time.perf_counter() - start < seconds:
        index = len(op_seconds)
        began = time.perf_counter()
        try:
            accesses += workload.op(index)
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            failed += 1
            print(f"operation {index} failed: {exc!r}", file=sys.stderr)
        op_seconds.append(time.perf_counter() - began)
        reference, took = _reference_sample()
        ref_seconds.append(reference)
        spent += took
    return {
        "window": time.perf_counter() - start - spent,
        # Taken before verify(), which regenerates traces in memory.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_seconds": op_seconds,
        "ref_seconds": ref_seconds,
        "accesses": accesses,
        "failed": failed,
    }


def _end_to_end(run: Dict[str, object], setup_s: float) -> Dict[str, Dict]:
    costs = _costs(run["op_seconds"], run["ref_seconds"])
    return {
        "op_cost": {"value": statistics.median(costs), "unit": "ref"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _per_layer(run: Dict[str, object], tracer) -> Dict[str, Dict]:
    accesses = max(1, run["accesses"])

    def per_access(value: float, unit: str) -> Dict:
        return {"value": value / accesses, "unit": unit}

    metrics = {
        f"{layer}_ns": per_access(tracer.self_ns[layer], "ns")
        for layer in TIMED_LAYERS
    }
    metrics["loop_ns"] = per_access(tracer.self_ns["sim"], "ns")
    inside = sum(tracer.self_ns[layer] for layer in (*TIMED_LAYERS, "sim"))
    metrics["service_ns"] = per_access(run["window"] * 1e9 - inside, "ns")
    metrics["table_ops_per_access"] = per_access(tracer.table_ops, "count")
    metrics["selector_calls_per_access"] = per_access(
        tracer.calls["selector"], "count"
    )
    metrics["train_calls_per_access"] = per_access(tracer.calls["train"], "count")
    metrics["simulations"] = {"value": tracer.calls["sim"], "unit": "count"}
    metrics["store_ops"] = {"value": tracer.calls["store"], "unit": "count"}
    return metrics


def _run(args: argparse.Namespace, workdir: str):
    from workloads import WORKLOADS

    setup_s = 0.0 if args.trace else _setup_seconds(args, workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    workload.setup()
    tracer = None
    try:
        if args.trace:
            from tracing import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        try:
            run = _measure(workload, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors = workload.verify()
    finally:
        workload.close()
    return setup_s, tracer, run, errors


def main(argv: List[str]) -> int:
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no toolkit source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    args = _parse(argv)
    if args.setup_probe:
        from workloads import WORKLOADS

        _isolate_environment(args.setup_probe)
        # Set-up ends when the first operation could start; the daemon
        # threads a set-up starts end with the interpreter.
        WORKLOADS[args.workload](args.setup_probe, args.seed).setup()
        return 0

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    _isolate_environment(workdir)
    try:
        setup_s, tracer, run, errors = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for error in errors:
        print(f"INCORRECT: {error}", file=sys.stderr)
    print(
        f"{args.workload}: {len(run['op_seconds'])} ops, median "
        f"{statistics.median(run['op_seconds']) * 1e3:.1f} ms; reference "
        f"kernel median {statistics.median(run['ref_seconds']) * 1e3:.1f} ms; "
        f"{run['accesses'] / run['window'] / 1e3:.2f}k accesses/s",
        file=sys.stderr,
    )
    metrics = _per_layer(run, tracer) if tracer else _end_to_end(run, setup_s)
    print(json.dumps({
        "correct": not errors and not run["failed"],
        "attempted": len(run["op_seconds"]),
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
