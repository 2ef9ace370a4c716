"""thickstab benchmark: one command, every metric by name and unit, outputs checked.

    python3 bench/run.py --workload closed-loop|band-sweep|scenario-mix
                         --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; thickstab is imported from the
checkout's ``src``. The run starts fresh workload processes (bench/worker.py),
one after another: one warm-up and three more that only set up, timed from
process start until their inputs are built, then two that set up and measure
for half of ``--seconds`` each (one for the whole time with ``--trace 1``).
Splitting the measurement over two processes halves the weight of one
process's luck with the shared machine. BLAS is pinned to one thread, so
every workload is a single closed-loop client on one core.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics from a traced half-run (spans written under
``.bench-out/``). The last line of standard output is the JSON result.
The exit code is 0 when the harness ran, whatever the library's failures;
they are counted in the result and listed above it. ``attempted`` counts the
operations of the workload's fixed list, each run on every pass, and
``failed`` those of them that failed on at least one pass. So both counts are
the same on every run of the same code, however many passes fit in the time.

Every time is reported at a nominal machine speed: it is multiplied by
REF_NOMINAL_S over the median time of a fixed reference kernel measured in
the same pass (worker.reference_unit), or, for steps_per_s, measured next to
each operation. On a shared machine whose speed drifts, this keeps
run-to-run spreads within the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from worker import REF_NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3  # timed set-up processes besides the measuring ones
MEASURE_RUNS = 2  # measuring processes of an untraced run
BUDGET_S = 170.0  # the whole run, set-up processes included
BLAS_THREADS = "1"


class HarnessError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("THICKSTAB_THREADS", None)
    return env


def _read_line(proc, timeout):
    """Read one line of the child's unbuffered stdout, or fail at `timeout`."""
    buf = b""
    end = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        left = end - time.monotonic()
        if left <= 0:
            raise HarnessError("workload process did not finish its set-up in time")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1)
            if not chunk:
                raise HarnessError(f"workload process exited during set-up ({proc.wait()})")
            buf += chunk
    return buf.decode()


def spawn(args, mode, workdir, deadline, seconds=0.0):
    """Start a workload process; return (set-up seconds, READY payload, REF times, result)."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--mode", mode,
           "--seconds", str(seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, bufsize=0)
    try:
        line = _read_line(proc, deadline - time.monotonic())
        setup_s = time.perf_counter() - t0
        refs = _read_line(proc, deadline - time.monotonic())
        if not (line.startswith("READY ") and refs.startswith("REF ")):
            raise HarnessError(f"unexpected lines from workload process: {line!r} {refs!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload process ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"workload process exited with {proc.returncode}")
    result = json.loads(rest.decode().strip().splitlines()[-1]) if mode == "measure" else None
    return setup_s, json.loads(line[len("READY "):]), json.loads(refs[len("REF "):]), result


def speed(refs):
    """Factor that turns seconds measured next to these reference times into
    seconds at the nominal reference speed."""
    return REF_NOMINAL_S / statistics.median(refs)


def step_rate(p):
    """Strang steps per nominal second in one pass, or None without steps.

    Each operation's stepper time is scaled by the reference times measured
    just before and after it, not by the pass median: stepper time sits in a
    few operations, and the machine's speed drifts within a pass.
    """
    refs = p["ref_s"] + [p["ref_end_s"]]
    steps = sum(op["steps"] for op in p["ops"])
    run_s = sum(op["run_s"] * speed(refs[max(0, i - 1):i + 2])
                for i, op in enumerate(p["ops"]))
    return steps / run_s if steps and run_s > 0 else None


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_wall(p):
    return sum(op["s"] for op in p["ops"]) * speed(p["ref_s"])


def failed_ops(passes):
    """Names of the listed operations, and those that failed on any pass."""
    names = [op["op"] for op in passes[0]["ops"]]
    return names, {op["op"] for p in passes for op in p["ops"] if op["status"] != "ok"}


def end_to_end(setup, result):
    passes = result["passes"]
    lat = [[op["s"] * speed(p["ref_s"]) for op in p["ops"]] for p in passes]
    rates = [r for r in map(step_rate, passes) if r is not None]
    ops = [op for p in passes for op in p["ops"]]
    listed, failed = failed_ops(passes)
    return {
        "setup_s": statistics.median(s * speed(refs) for s, _, refs in setup),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "op_p50_s": statistics.median(quantile(x, 50) for x in lat),
        "op_p90_s": statistics.median(quantile(x, 90) for x in lat),
        "ok_fraction": 1.0 - len(failed) / len(listed),
        "steps_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }, {"passes": len(passes), "operations": len(ops), "setup_processes": len(setup),
        "step_rates": len(rates)}


def per_layer(setup, result):
    traced = result["traced_passes"]
    metrics = {}
    for name in result["layers"][0]:
        scale = name.endswith(("_s", "_us"))
        metrics[name] = statistics.fmean(
            layer[name] * (speed(p["ref_s"]) if scale else 1.0)
            for layer, p in zip(result["layers"], traced))
    for key in ("import_s", "inputs_s"):
        metrics[f"setup.{key}"] = statistics.median(r[key] * speed(refs) for _, r, refs in setup)
    stepper = result["stepper_setup"]
    metrics["stabilize.stepper_setup_s"] = stepper["s"] * speed(stepper["ref_s"])
    metrics["trace.overhead_s"] = (statistics.median(map(pass_wall, traced))
                                   - statistics.median(map(pass_wall, result["passes"])))
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(result["passes"]),
                     "spans": result["spans"], "spans_file": result["spans_file"]}


def report(args, spec, setup, result):
    passes = result["passes"] + result.get("traced_passes", [])
    ops = [op for p in passes for op in p["ops"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"speed factor (nominal / measured reference kernel): median "
          f"{statistics.median(speed(p['ref_s']) for p in passes):.4f}")
    if args.trace:
        metrics, counts = per_layer(setup, result)
        wanted = spec["per_layer"]
        print("per-layer values are per pass, averaged over the traced passes")
    else:
        metrics, counts = end_to_end(setup, result)
        wanted = spec["end_to_end"]
        print("latency quantiles are taken within each pass, then the median over passes")
    print("samples " + json.dumps(counts, sort_keys=True))
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise HarnessError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in names:
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    failures = Counter((op["op"], op["status"]) for op in ops if op["status"] != "ok")
    example = {(op["op"], op["status"]): op["reason"] for op in ops}
    for key, n in sorted(failures.items()):
        print(f"failed {n}/{len(passes)} passes: {key[0]} [{key[1]}] {example[key]}")
    listed, failed = failed_ops(passes)
    return {
        "correct": not any(op["status"] in ("error", "oracle") for op in ops),
        "attempted": len(listed),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed-loop", "band-sweep", "scenario-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thickstab" / "__init__.py").is_file():
        print(f"error: no thickstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S
    work_root = ROOT / ".bench-work"
    workdir = work_root / str(os.getpid())
    try:
        setup = []
        for i in range(SETUP_RUNS + 1):  # the first one warms caches and is dropped
            s, ready, refs, _ = spawn(args, "setup", workdir / f"setup{i}", deadline)
            if i:
                setup.append((s, ready, refs))
        parts = 1 if args.trace else MEASURE_RUNS
        results = []
        for i in range(parts):
            s, ready, refs, result = spawn(args, "measure", workdir / f"measure{i}", deadline,
                                           args.seconds / parts)
            setup.append((s, ready, refs))
            results.append(result)
        result = dict(results[0], passes=[p for r in results for p in r["passes"]],
                      peak_rss_mb=max(r["peak_rss_mb"] for r in results))
        line = report(args, spec, setup, result)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
