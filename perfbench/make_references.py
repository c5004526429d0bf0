"""Regenerate perfbench/references.json from the program's current outputs.

    env NSFK_THREADS=1 OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        MKL_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_references.py

Run from the repository root.  Every workload runs once per shipped input
set and must pass; its ledger columns and report constants become the
reference.  Regenerate only when a change is meant to alter the outputs
beyond workloads.REL_TOL, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from nsfk import cli

    root = Path.cwd()
    refs = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS.values():
            refs[workload.name] = {}
            for index in range(workloads.N_INPUT_SETS):
                config = workloads.write_config(
                    workload, index, root / "configs" / "reference.ini",
                    tmp / f"{workload.name}-{index}.ini")
                for command in workload.commands:
                    code = cli.main(workloads.argv(command, config,
                                                   tmp / "out" / command, index))
                    if code != 0:
                        raise SystemExit(f"{workload.name} set {index}: "
                                         f"{command} exited {code}")
                observed, problems = workloads.observe(workload, tmp / "out")
                if problems:
                    raise SystemExit(f"{workload.name} set {index}: {problems}")
                refs[workload.name][str(index)] = observed
                print(workload.name, index, observed["constants"], flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
