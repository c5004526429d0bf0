"""Self-tests of the benchmark: seed-independent work, a reference check
that cannot pass vacuously, wrappers that leave the program as they found
it, and the thread-setting guard."""

from __future__ import annotations

import copy
import dataclasses
import json
import signal
from pathlib import Path
from time import perf_counter

import pytest

import run
import speed
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
BASE = ROOT / "configs" / "reference.ini"
REFS = workloads.load_references()


def _shortened(name: str) -> workloads.Workload:
    """A nonlinear workload cut to 20 steps, its fit window opened to t = 0."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w, nonlinear={**w.nonlinear, "t_final": "0.4", "fit_t_min": "0.0"})


def _traced_counts(workload, index, tmp: Path) -> dict:
    from nsfk import cli

    config = workloads.write_config(workload, index, BASE, tmp / f"{index}.ini")
    tracer = tracing.Tracer()
    with tracer.installed():
        for command in workload.commands:
            cli.main(workloads.argv(command, config, tmp / str(index) / command, index))
    metrics = tracer.metrics()
    assert workloads.check_counts(workload, metrics) == []
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".xi_points", ".per_nonlinear"))}


@pytest.mark.parametrize("workload", [_shortened("nonlinear-ref"),
                                      _shortened("nonlinear-diag"),
                                      workloads.WORKLOADS["certify"]],
                         ids=lambda w: w.name)
def test_two_seeds_give_identical_traced_call_counts(workload, tmp_path):
    a = _traced_counts(workload, workloads.input_set(3), tmp_path)
    b = _traced_counts(workload, workloads.input_set(12), tmp_path)
    assert a == b
    assert a["nonlinear_solver.IntegratingFactorRK4.step.calls"] == (
        workload.n_steps if workload.nonlinear else 0)


def test_seed_selects_a_shipped_input_set(tmp_path):
    w = workloads.WORKLOADS["nonlinear-diag"]
    a = workloads.write_config(w, workloads.input_set(5), BASE, tmp_path / "a.ini")
    b = workloads.write_config(w, workloads.input_set(5 + workloads.N_INPUT_SETS),
                               BASE, tmp_path / "b.ini")
    c = workloads.write_config(w, workloads.input_set(6), BASE, tmp_path / "c.ini")
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    for name in workloads.WORKLOADS:
        assert sorted(REFS[name], key=int) == [str(i) for i in
                                               range(workloads.N_INPUT_SETS)]


def _scaled(values: dict, factor: float) -> dict:
    out = copy.deepcopy(values)
    out["constants"] = {k: v * factor for k, v in out["constants"].items()}
    for col in workloads.LEDGER_COLUMNS if "ledger" in out else ():
        out["ledger"][col] = [v * factor for v in out["ledger"][col]]
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_reference_fails_the_check(name):
    ref = REFS[name]["0"]
    # a reordered computation, ~1e-9 relative, still matches
    assert workloads.compare(_scaled(ref, 1 + 1e-9), ref) == []
    for key in ref["constants"]:
        bad = copy.deepcopy(ref)
        bad["constants"][key] *= 1 + 1e-6
        assert workloads.compare(ref, bad), key
    if "ledger" in ref:
        for col in ("norm_u", "mass", "energy"):
            bad = copy.deepcopy(ref)
            bad["ledger"][col][-1] *= 1 + 1e-6
            assert workloads.compare(ref, bad), col
        bad = copy.deepcopy(ref)
        bad["ledger"]["n_rows"] += 1
        assert workloads.compare(ref, bad)


def test_program_output_matches_its_reference(tmp_path):
    from nsfk import cli

    w = workloads.WORKLOADS["certify"]
    config = workloads.write_config(w, 0, BASE, tmp_path / "c.ini")
    op = worker.run_op(cli, w, config, tmp_path / "out", 0, REFS["certify"]["0"])
    assert op["problems"] == [] and op["speed"] > 0
    op = worker.run_op(cli, w, config, tmp_path / "out", 0,
                       _scaled(REFS["certify"]["0"], 1 + 1e-6))
    assert len(op["problems"]) == len(w.constants)


def test_tracer_restores_every_wrapped_attribute():
    before = [(ns, attr, tracing._get(ns, attr)) for _, ns, attr, _ in tracing._targets()]
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            assert all(tracing._get(ns, attr) is not raw for ns, attr, raw in before)
            raise KeyError
    assert all(tracing._get(ns, attr) is raw for ns, attr, raw in before)


def test_speed_sampler_probes_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01, speed.Probe()) as sampler:
        deadline = perf_counter() + 0.1
        while perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.probes) > 2 and sampler.factor() > 0
    assert 0 < sampler.overhead < 0.1


def test_thread_settings_must_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = run.pinned_env(bench["command"])
    assert pins["NSFK_THREADS"] == "1"
    run.check_pins(pins, dict(pins))
    with pytest.raises(run.BenchError):
        run.check_pins(pins, {**pins, "OMP_NUM_THREADS": "2"})
    with pytest.raises(run.BenchError):
        run.check_pins(pins, {})
