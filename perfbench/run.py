"""nsfk benchmark: one workload, one run, one JSON result line.

    env NSFK_THREADS=1 OMP_NUM_THREADS=1 ... python3 perfbench/run.py \\
        --workload certify --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from
traced operations, each paired with an untraced one.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
every statistic with its sample count and the environment, and the same
record is written to perfbench-out/results/.  Standard library only: numpy
is imported by the worker process, after the thread variables are set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
SETUP_CODE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
from speed import Probe, Sampler
with Sampler(0.05, Probe()) as sampler:
    probed, t0 = sampler.overhead, time.perf_counter()
    for name in sys.argv[3:]:
        importlib.import_module(name)
    importlib.import_module("nsfk.cli").RunConfig.load(sys.argv[2])
    wall = time.perf_counter() - t0 - (sampler.overhead - probed)
print(wall, sampler.factor())
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pinned_env(command: list) -> dict:
    """NAME=VALUE settings given to ``env`` at the head of the command."""
    pins = {}
    if command and command[0] == "env":
        for item in command[1:]:
            if "=" not in item:
                break
            name, value = item.split("=", 1)
            pins[name] = value
    return pins


def check_pins(pins: dict, environ) -> None:
    if "NSFK_THREADS" not in pins:
        raise BenchError("BENCHMARK.json's command pins no NSFK_THREADS")
    wrong = {k: environ.get(k) for k, v in pins.items() if environ.get(k) != v}
    if wrong:
        raise BenchError(f"thread settings {wrong} differ from BENCHMARK.json's "
                         f"{pins}; run the command as BENCHMARK.json gives it")


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(root: Path, pins: dict, versions: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [root / "configs" / "reference.ini"]:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in pins},
            **versions, "cpu_model": cpu,
            "l2_cache": _read("/sys/devices/system/cpu/cpu0/cache/index2/size").strip(),
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def measure_setup(python: str, env: dict, config: Path, mods: list,
                  deadline: float) -> list:
    """(wall seconds, speed factor) of a fresh interpreter importing the
    workload's modules and loading its config, SETUP_REPEATS times.

    The first, untimed, run writes the bytecode caches a user's first call
    would leave behind.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([python, "-c", SETUP_CODE, str(HERE), str(config), *mods],
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        wall, factor = map(float, proc.stdout.split())
        times.append((wall, factor))
    return times[1:]


def run(args, root: Path, started: float) -> tuple[dict, dict]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    for required in ("src/nsfk/cli.py", "configs/reference.ini"):
        if not (root / required).is_file():
            raise BenchError(f"{required} not found: run from the root of a checkout")
    pins = pinned_env(bench["command"])
    check_pins(pins, os.environ)

    workload = workloads.WORKLOADS[args.workload]
    index = workloads.input_set(args.seed)
    work = root / "perfbench-out"
    config = workloads.write_config(workload, index, root / "configs" / "reference.ini",
                                    work / "inputs" / f"{workload.name}-{index}.ini")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    deadline = started + DEADLINE_S

    setup = []
    if not args.trace:
        setup = measure_setup(sys.executable, env, config,
                              workloads.modules(workload), deadline)

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", workload.name, "--config", str(config), "--index", str(index),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(work / "ops" / workload.name)],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = raw["ops"] + raw["traced"]
    failed = [op["problems"] for op in ops if op["problems"]]
    for problems in failed[:3]:
        sys.stderr.write("failed operation:\n  " + "\n  ".join(problems) + "\n")

    def normalized(op, command=None):
        wall = op["seconds"][command] if command else sum(op["seconds"].values())
        return wall * op["speed"]

    stats = {"failed_frac": {"median": len(failed) / len(ops), "n": len(ops)}}
    if args.trace:
        stats.update({name: summary([op["metrics"][name] for op in raw["traced"]])
                      for name in raw["traced"][0]["metrics"]})
        stats["trace.overhead_s"] = summary(
            [normalized(t) - normalized(u) for u, t in zip(raw["ops"], raw["traced"])])
        wanted = bench["per_layer"]
    else:
        verdicts = [normalized(op) for op in raw["ops"]]
        stats["setup_s"] = summary([wall * factor for wall, factor in setup])
        stats["wall_setup_s"] = summary([wall for wall, _ in setup])
        stats["time_to_verdict_s"] = summary(verdicts)
        stats["wall_time_to_verdict_s"] = summary(
            [sum(op["seconds"].values()) for op in raw["ops"]])
        stats["speed_factor"] = summary([op["speed"] for op in raw["ops"]])
        stats["peak_rss_mib"] = {"median": raw["peak_rss_mib"], "n": 1}
        if workload.t_final:
            stats["model_time_per_s"] = summary([workload.t_final / t for t in verdicts])
        if len(workload.commands) > 1:
            for command in workload.commands:
                stats[command.replace("-", "_") + "_s"] = summary(
                    [normalized(op, command) for op in raw["ops"]])
        wanted = bench["end_to_end"]

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                    for m in wanted},
    }
    detail = {"workload": workload.name, "seed": args.seed, "input_set": index,
              "trace": args.trace, "seconds": args.seconds, "stats": stats,
              "environment": environment(root, pins, raw["versions"])}
    out = work / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"detail": detail, "result": result, "setup": setup,
                               "worker": raw}, indent=1) + "\n")
    return detail, result


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = run(args, Path.cwd(), started)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
