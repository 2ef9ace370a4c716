"""Self-test of the benchmark; not part of the package's test suite.

    python3 bench/selftest.py

Checks, in about half a minute:
- one operation of each workload runs and passes its oracle;
- two seeds give the same operation list but different seeded inputs
  (initial fields; scenario-mix's configs, with their random mask and probe
  seeds), and one seed always gives the same inputs;
- a short run of bench/run.py emits exactly the metric names and units of
  BENCHMARK.json, untraced and traced.
Exits non-zero with the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import thickstab  # noqa: E402
import thickstab.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def digest(value):
    h = hashlib.sha256()
    for item in value if isinstance(value, (list, tuple)) else [value]:
        if hasattr(item, "cell_fraction"):
            item = item.cell_fraction
        if hasattr(item, "values"):
            item = item.values
        h.update(np.ascontiguousarray(item).tobytes() if isinstance(item, np.ndarray)
                 else str(item).encode())
    return h.hexdigest()


def one_op_per_workload(work):
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, work / name)
        rec = worker.run_op(wl.ops[0], wl.ops[0].deadline, thickstab.NumericalError)
        ok = rec["status"] == "ok"
        check(ok, f"{name}: {rec['op']} passes its oracle" + ("" if ok else f": {rec['reason']}"))


def seeds_change_inputs_not_ops(work):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, work / f"{name}-a")
        b = workloads.build(name, 2, work / f"{name}-b")
        check([op.name for op in a.ops] == [op.name for op in b.ops],
              f"{name}: operation list independent of the seed")
        check(a.inputs.keys() == b.inputs.keys() and a.inputs, f"{name}: seeded inputs listed")
        for key in a.inputs:
            check(digest(a.inputs[key]) != digest(b.inputs[key]),
                  f"{name}: seed changes {key}")
        again = workloads.build(name, 1, work / f"{name}-c")
        check(all(digest(a.inputs[k]) == digest(again.inputs[k]) for k in a.inputs),
              f"{name}: same seed, same inputs")


def emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "scenario-mix",
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0 ({proc.stderr.strip()})")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(line) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace}: result keys")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in line["metrics"].items()}
        check(got == want, f"--trace {trace}: metric names and units match BENCHMARK.json {key}")
        check(line["correct"] and line["attempted"] >= 1, f"--trace {trace}: outputs correct")


def main():
    work = ROOT / ".bench-work" / f"selftest-{os.getpid()}"
    try:
        one_op_per_workload(work)
        seeds_change_inputs_not_ops(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emitted_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
