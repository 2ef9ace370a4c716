"""One fresh workload process, started by run.py.

    python3 bench/worker.py --root DIR --workload NAME --seed N --workdir DIR
                            --mode setup|measure [--seconds S] [--trace 0|1]

The process imports thickstab from DIR/src, builds the workload's inputs and
prints ``READY {...}``; the parent times that line from process start. A
``REF [...]`` line follows with reference-kernel times (see reference_unit).
With ``--mode measure`` it then walks the operation list pass after pass for
about ``--seconds`` and prints one JSON line with every operation's latency
and outcome. With ``--trace 1`` the first half of the time runs
untraced and the second half traced, so the tracing overhead is measured in
the same process, and the spans are written to DIR/.bench-out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

clock = time.perf_counter


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class RunTimer:
    """Steps and seconds inside run_stabilization, under every name it has.

    steps_per_s needs the time inside the stepper also where the CLI calls it,
    so this one timer stays installed in untraced runs.
    """

    def __init__(self, ts):
        self.steps = 0
        self.seconds = 0.0
        original = ts.stabilize.run_stabilization

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                res = original(*args, **kwargs)
            finally:
                self.seconds += clock() - t0
            self.steps += res.trajectory.times.size - 1
            return res

        for mod in (ts.stabilize, ts.cli, ts):
            if getattr(mod, "run_stabilization", None) is original:
                setattr(mod, "run_stabilization", timed)


def run_op(op, deadline, numerical_error):
    """Time op.run (with the deadline armed), then check its output untimed."""
    stats = {}
    t0 = clock()
    try:
        try:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            result = op.run()
        finally:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
        latency = clock() - t0
    except DeadlineExceeded:
        return {"op": op.name, "s": clock() - t0, "status": "deadline",
                "reason": f"deadline ({deadline:.3f} s wall)", "stats": stats}
    except Exception as exc:
        status = "numerical" if isinstance(exc, numerical_error) else "error"
        return {"op": op.name, "s": clock() - t0, "status": status,
                "reason": f"{type(exc).__name__}: {exc}", "stats": stats}
    try:
        reason = op.check(result, stats)
    except Exception as exc:
        reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
    if reason is None:
        status = "ok"
    else:
        status = "numerical" if reason.startswith("exit 3") else "oracle"
    return {"op": op.name, "s": latency, "status": status, "reason": reason, "stats": stats}


def walk(workload, timer, tracer, numerical_error, recent_refs):
    """One pass; a reference unit runs before every operation and after the last.

    The deadline is fixed at nominal reference speed, so in wall seconds it
    stretches when the machine runs slow (median of the last nine units).
    Each operation also records the Strang steps it made and its seconds
    inside run_stabilization.
    """
    ops, refs = [], []
    for op in workload.ops:
        refs.append(reference_unit())
        recent_refs[:] = recent_refs[-8:] + refs[-1:]
        deadline = op.deadline and (
            op.deadline * sorted(recent_refs)[len(recent_refs) // 2] / REF_NOMINAL_S)
        steps, run_s = timer.steps, timer.seconds
        ops.append(run_op(op, deadline, numerical_error))
        ops[-1].update(steps=timer.steps - steps, run_s=timer.seconds - run_s)
        if tracer is not None:
            tracer.reset_stack()
            tracer.counters[tracer.pass_index, "bytes_written"] += ops[-1]["stats"].get(
                "bytes_written", 0)
    return {"ops": ops, "ref_s": refs, "ref_end_s": reference_unit()}


def phase(workload, seconds, timer, numerical_error, tracer=None):
    """Whole passes for about `seconds`; at least one.

    A pass starts only if, at the mean pass time so far, it would end less
    than half a pass after `seconds`.
    """
    passes, recent_refs = [], []
    t0 = clock()
    while not passes or (clock() - t0) * (1.0 + 0.5 / len(passes)) < seconds:
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(walk(workload, timer, tracer, numerical_error, recent_refs))
    return passes


# Typical reference_unit() time between operations on the machine the bounds
# were set on (2 vCPU, OpenBLAS 0.3.31, numpy 2.4); it fixes the scale of the
# reported times and of the deadline.
REF_NOMINAL_S = 0.0056


def reference_unit():
    """Seconds for a fixed mix of the work thickstab does: small FFTs driven from
    Python, a BLAS product, interpreter arithmetic and float formatting.

    The shared machine's speed drifts by tens of percent within a minute;
    run.py divides every time by this kernel's time measured alongside it.
    No thickstab code runs here, and the FFT entry points it uses are not the
    ones the tracer wraps, so no change to the package can move it.
    """
    import numpy as np

    y = np.exp(2j * np.pi * np.arange(1024) / 7.0)
    m = np.cos(0.01 * np.arange(128 * 128.0)).reshape(128, 128)
    t0 = clock()
    for _ in range(40):
        y = np.fft.ifft(np.fft.fft(y) * 0.5)
    for _ in range(4):
        m @ m
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    ",".join(repr(float(v)) for v in y[:256].real)
    return clock() - t0


def machine_record():
    import numpy
    import scipy

    rec = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_quota": None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
    }
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            rec["cpu_quota"] = Path(path).read_text().strip()
            break
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    rec["blas_threads"] = _openblas_threads()
    return rec


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    t0 = clock()
    import thickstab
    import thickstab.cli  # the package does not import its command module
    import_s = clock() - t0
    if Path(thickstab.__file__).resolve().parent != root / "src" / "thickstab":
        print(f"thickstab imported from {thickstab.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    t1 = clock()
    workload = workloads.build(args.workload, args.seed, Path(args.workdir))
    inputs_s = clock() - t1
    print("READY " + json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    print("REF " + json.dumps([reference_unit() for _ in range(5)]), flush=True)
    if args.mode == "setup":
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    timer = RunTimer(thickstab)
    numerical_error = thickstab.NumericalError
    out = {"machine": machine_record()}
    if not args.trace:
        out["passes"] = phase(workload, args.seconds, timer, numerical_error)
    else:
        untraced = phase(workload, 0.5 * args.seconds, timer, numerical_error)
        tr = tracing.Tracer(thickstab)
        tr.install()
        try:
            traced = phase(workload, 0.5 * args.seconds, timer, numerical_error, tr)
            tr.pass_index = -2
            setup_s, setup_ref = 0.0, []
            for f0, F, mask, cfg, dt, adjoint in tr.feedback_configs.values():
                setup_ref.append(reference_unit())
                t = clock()
                thickstab.stabilize.step_closed_loop(f0, F, mask, cfg, dt, adjoint)
                setup_s += clock() - t
        finally:
            tr.uninstall()
        out_dir = root / ".bench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tr.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                             "machine": out["machine"]})
        out.update(passes=untraced, traced_passes=traced,
                   layers=[tracing.layer_metrics(tr, p) for p in range(len(traced))],
                   stepper_setup={"s": setup_s, "ref_s": setup_ref or [reference_unit()]},
                   spans_file=str(spans_path.relative_to(root)), spans=len(tr.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
