"""Benchmark worker: one client in one process, operations back to back.

Started by run.py with the thread variables already in its environment, so
they are set before numpy is imported here.  Prints one JSON line with the
raw per-operation timings, the machine-speed factor of each operation,
traced per-layer metrics and the problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from speed import NumpyProbe, Sampler
from tracing import Tracer

PROBE_INTERVAL_S = 0.1


def run_op(cli, workload, config, out_root, index, reference, tracer=None) -> dict:
    """One operation: every subcommand of the workload, then its checks.

    ``seconds`` holds each subcommand's wall time without the speed probes;
    ``speed`` is the operation's machine-speed factor (see speed.py).
    """
    shutil.rmtree(out_root, ignore_errors=True)
    seconds, problems = {}, []
    probe = NumpyProbe()            # built before the tracer wraps numpy.fft
    with tracer.installed() if tracer else contextlib.nullcontext(), \
            Sampler(PROBE_INTERVAL_S, probe) as sampler:
        for command in workload.commands:
            argv = workloads.argv(command, config, out_root / command, index)
            probed, t0 = sampler.overhead, perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                problems.append(f"{command}: {traceback.format_exc()}")
            seconds[command] = perf_counter() - t0 - (sampler.overhead - probed)
            if code != 0:
                problems.append(f"{command}: exit code {code}")
    observed, found = workloads.observe(workload, out_root)
    problems += found + workloads.compare(observed, reference)
    op = {"seconds": seconds, "speed": sampler.factor(), "problems": problems}
    if tracer:
        metrics = tracer.metrics()
        problems += workloads.check_counts(workload, metrics)
        op["metrics"] = {k: v * op["speed"] if k.endswith("_s") else v
                         for k, v in metrics.items()}
    return op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--index", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    # run.py times these imports as set-up; operations are timed without them
    for name in workloads.modules(workload):
        importlib.import_module(name)
    import numpy
    import scipy
    from nsfk import cli

    reference = workloads.load_references()[workload.name][str(args.index)]
    ops, traced, durations = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        # closed loop: the next operation starts when the previous one ends;
        # a traced run pairs each traced operation with an untraced one
        t0 = perf_counter()
        ops.append(run_op(cli, workload, args.config, args.out, args.index,
                          reference))
        if args.trace:
            traced.append(run_op(cli, workload, args.config, args.out,
                                 args.index, reference, Tracer()))
        durations.append(perf_counter() - t0)
        if perf_counter() + statistics.median(durations) > deadline:
            break

    print(json.dumps({
        "ops": ops, "traced": traced,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
