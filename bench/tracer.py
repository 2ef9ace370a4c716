"""Spans around calls into thickstab's public functions, installed from outside.

The tracer replaces module attributes at run time; no file of the package
changes. Every public function of the seven modules becomes a span wrapper,
and every module that imported the function by name (``thickstab.cli`` and
``thickstab.observe`` import from their siblings) gets the same wrapper, so a
call is traced whichever name it goes through. A span records its name,
start, end, parent span, outcome and the pass it belongs to.

Two call sites are too frequent for a span each and are counted instead:
``numpy.fft.fftn``/``ifftn`` (calls, points, computed bytes, time) and
``MultiplierSymbol.eval`` (calls, time). Spans and counters stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("grid", "symbols", "thick", "stabilize", "observe", "qa", "cli")

# span fields
NAME, START, END, PARENT, STATUS, PASS = range(6)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.counters = defaultdict(float)  # (pass, name) -> value
        self.pass_index = -1
        self.feedback_configs = {}  # (cfg, grid) -> (f0, F, mask, cfg, dt, adjoint)
        self._patched = []

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [getattr(self.package, m) for m in MODULES]
        wrappers = {}
        for mod in mods:
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("thickstab.")
                        or id(obj) in wrappers):
                    continue
                short = obj.__module__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = self._span_wrapper(obj, f"{short}.{obj.__name__}")
        for mod in mods + [self.package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        for name in ("fftn", "ifftn"):
            self._patch(np.fft, name, self._fft_wrapper(getattr(np.fft, name)))
        sym_cls = self.package.symbols.MultiplierSymbol
        self._patch(sym_cls, "eval", self._eval_wrapper(sym_cls.eval))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, new):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def reset_stack(self):
        """Close the books after an operation; a deadline can abort a span
        before its wrapper pops it."""
        self.stack.clear()
        self.open.clear()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   "ok", tracer.pass_index]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.open[name] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[STATUS] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                tracer.stack.pop()
                tracer.open[name] -= 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _fft_wrapper(self, fn):
        tracer = self
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            dt = clock() - t0
            p = tracer.pass_index
            counters[p, "fft_calls"] += 1
            counters[p, "fft_points"] += out.size
            # computed, not measured: complex128 input read plus output written
            counters[p, "fft_bytes"] += 16 * (np.size(a) + out.size)
            counters[p, "fft_s"] += dt
            if tracer.open["stabilize.run_stabilization"]:
                counters[p, "fft_calls_in_run"] += 1
            return out

        return wrapper

    def _eval_wrapper(self, fn):
        tracer = self
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(sym, r):
            t0 = clock()
            out = fn(sym, r)
            p = tracer.pass_index
            counters[p, "eval_calls"] += 1
            counters[p, "eval_s"] += clock() - t0
            return out

        return wrapper

    # -- output ----------------------------------------------------------

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "status", "pass"],
                       "spans": self.spans,
                       "counters": [[p, k, v] for (p, k), v in sorted(self.counters.items())]},
                      fh)
            fh.write("\n")


def _on_run(tracer, args, kwargs, result):
    p = tracer.pass_index
    tracer.counters[p, "steps"] += result.trajectory.times.size - 1
    cfg = result.config
    key = (cfg, result.trajectory.grid)
    if cfg is not None and key not in tracer.feedback_configs:
        names = ("f0", "F", "mask", "cfg")
        bound = dict(zip(names, args), **{k: v for k, v in kwargs.items() if k in names})
        tracer.feedback_configs[key] = (bound["f0"], bound["F"], bound["mask"],
                                        cfg, result.dt, result.adjoint_order)


def _on_synthesize(tracer, args, kwargs, result):
    tracer.counters[tracer.pass_index, "cg_iterations"] += result.cg_iterations


_HOOKS = {
    "stabilize.run_stabilization": _on_run,
    "observe.synthesize_control": _on_synthesize,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced passes


def _group_time(spans, names, p):
    """Time inside any of `names` in pass p, counting nested calls of the group once."""
    total = 0.0
    for rec in spans:
        if rec[NAME] in names and rec[PASS] == p:
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                total += rec[END] - rec[START]
    return total


def layer_metrics(tracer, p):
    """Every per-layer metric of traced pass p."""
    spans = tracer.spans

    def t(*names):
        return _group_time(spans, set(names), p)

    def count(name):
        return tracer.counters[p, name]

    est = [r for r in spans if r[NAME] == "stabilize.estimate_spectral_constant"
           and r[PASS] == p]
    est_failed = [r for r in est if r[STATUS] != "ok"]

    cli_self = 0.0
    children = defaultdict(float)
    for rec in spans:
        if rec[PASS] == p and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "cli.main":
            children[rec[PARENT]] += rec[END] - rec[START]
    for i, rec in enumerate(spans):
        if rec[NAME] == "cli.main" and rec[PASS] == p:
            cli_self += rec[END] - rec[START] - children[i]

    steps = count("steps")
    run_s = t("stabilize.run_stabilization")
    return {
        "grid.fft_calls": count("fft_calls"),
        "grid.fft_points": count("fft_points"),
        "grid.fft_bytes_computed": count("fft_bytes"),
        "grid.fft_s": count("fft_s"),
        "grid.fft_calls_per_step": count("fft_calls_in_run") / steps if steps else 0.0,
        "grid.sample_probe_s": t("grid.sample_probe"),
        "symbols.eval_calls": count("eval_calls"),
        "symbols.eval_s": count("eval_s"),
        "symbols.inf_s": t("symbols.inf_F", "symbols.alpha_R"),
        "thick.mask_s": t("thick.make_full", "thick.make_periodic_thick",
                          "thick.make_random_thick", "thick.make_ball_complement",
                          "thick.read_mask"),
        "thick.certificate_s": t("thick.thickness_certificate"),
        "stabilize.estimate_calls": len(est),
        "stabilize.estimate_s": t("stabilize.estimate_spectral_constant"),
        "stabilize.estimate_ok_ratio": (len(est) - len(est_failed)) / len(est) if est else 0.0,
        "stabilize.estimate_wasted_s": sum(r[END] - r[START] for r in est_failed),
        "stabilize.run_s": run_s,
        "stabilize.steps": steps,
        "stabilize.step_us": 1e6 * run_s / steps if steps else 0.0,
        "stabilize.design_s": t("stabilize.design_feedback", "stabilize.calibrate_constant"),
        "stabilize.duhamel_s": t("stabilize.duhamel_residual"),
        "observe.observability_s": t("observe.estimate_observability_constant"),
        "observe.necessity_s": t("observe.necessity_probe_scan"),
        "observe.negative_limit_s": t("observe.negative_limit_experiment"),
        "observe.synthesize_s": t("observe.synthesize_control"),
        "observe.synthesize_cg_iterations": count("cg_iterations"),
        "observe.cubes_s": t("observe.classify_cubes"),
        "observe.kovrijkine_s": t("observe.kovrijkine_empirical"),
        "qa.build_sequence_s": t("qa.build_sequence"),
        "cli.scenario_s": t("cli.main"),
        "cli.self_s": cli_self,
        "cli.bytes_written": count("bytes_written"),
    }
