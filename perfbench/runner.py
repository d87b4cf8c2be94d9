"""Set up a workload, run its operation for the measured time, print the
result. See perfbench/README.md for what each number means."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

import layers
from spans import Tracer
from workloads import WORKLOADS, OpResult

END_TO_END_UNITS = {"throughput": "items/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _blas():
    """(BLAS library name, its thread count or None)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def _git_sha(root):
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root, workload, seed, seconds, trace):
    blas, threads = _blas()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": threads,
        "git_sha": _git_sha(root),
    }


class Totals:
    """Sums over operations (items, failures, stage seconds and units, output
    facts) and each operation's rate, as measured and scaled to an
    undisturbed CPU (see reference.py)."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.seconds = 0.0
        self.stages: dict[str, list] = {}
        self.facts: dict[str, float] = {}
        self.raw_rates: list[float] = []
        self.slowdowns: list[float] = []

    @property
    def rates(self) -> list[float]:
        return [r * s for r, s in zip(self.raw_rates, self.slowdowns)]

    def throughput(self, kinds, scaled=True) -> float:
        """Items per second over one operation of each kind, each kind's rate
        taken as the median over its operations."""
        rates = self.rates if scaled else self.raw_rates
        medians = [statistics.median(rates[k::kinds]) for k in range(kinds)]
        return 0.0 if min(medians) == 0 else kinds / sum(1 / r for r in medians)

    def reset_timing(self):
        """Forget the timings so far (a warm-up operation's), keeping its
        item and failure counts."""
        self.seconds = 0.0
        self.stages = {}
        self.raw_rates = []
        self.slowdowns = []

    def add(self, res, slowdown):
        self.items += res.items
        self.failed += res.failed
        seconds = sum(s for s, _ in res.stages.values())
        self.raw_rates.append((res.items - res.failed) / seconds)
        self.slowdowns.append(slowdown)
        for name, (stage_s, units) in res.stages.items():
            acc = self.stages.setdefault(name, [0.0, 0])
            acc[0] += stage_s
            acc[1] += units
        self.seconds += seconds
        for name, value in res.facts.items():
            self.facts[name] = self.facts.get(name, 0) + value


def run_op(wl, index, totals, tracer=None):
    """One operation, traced if a tracer is given, between two measurements
    of the host's slowdown; its checks run after it. An exception fails
    every item the operation was to process."""
    before = wl.reference.slowdown()
    if tracer is not None:
        tracer.install(layers.SITES)
    t0 = time.perf_counter()
    try:
        res = wl.op(index)
    except Exception:
        traceback.print_exc()
        res = OpResult()
        res.items = res.failed = wl.planned_items(index)
        res.stage("failed", time.perf_counter() - t0, 0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = wl.reference.slowdown()
    try:
        res.failed += res.verify()
    except Exception:
        traceback.print_exc()
        res.failed = res.items
    totals.add(res, (before + after) / 2)


def _print_table(title, rows):
    """rows: name -> (value, unit)."""
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def _setup(wl, workdir, times):
    """Set the workload up in a fresh directory; append the time it took and
    the host's slowdown around it."""
    d = os.path.join(workdir, f"setup{len(times)}")
    os.makedirs(d)
    before = wl.setup_reference.slowdown()
    t0 = time.perf_counter()
    wl.setup(d)
    seconds = time.perf_counter() - t0
    times.append((seconds, (before + wl.setup_reference.slowdown()) / 2))


def run(root, workload, seed, seconds, trace, setup_repeats) -> int:
    scratch = os.path.join(root, ".perfbench")
    workdir = os.path.join(scratch, f"work-{workload}-{os.getpid()}")
    wl = WORKLOADS[workload](root, seed)
    setup_times = []

    def set_up_again():
        """Set up a fresh copy of the workload and drop it: repeated during
        the measured loop, so the set-up times sample the host's speed over
        the whole run."""
        _setup(WORKLOADS[workload](root, seed), workdir, setup_times)

    try:
        _setup(wl, workdir, setup_times)
        wl.start()
        print(json.dumps({"provenance": provenance(root, workload, seed, seconds, trace)}))
        if trace:
            metrics, totals = _traced(wl, seconds, os.path.join(scratch, f"trace-{workload}.tsv"))
            _print_table(f"{workload}: per-layer metrics (traced run)",
                         {k: (v, layers.UNITS[k]) for k, v in metrics.items()})
            _print_table(f"{workload}: workload properties",
                         {k: (metrics[k], layers.UNITS[k]) for k in layers.PROPERTIES})
        else:
            totals = Totals()
            # The first operation pays one-time costs later ones do not (the
            # allocator growing the heap, first calls); it is checked, not timed.
            run_op(wl, 0, totals)
            totals.reset_timing()
            index = 0
            while totals.seconds < seconds or index < wl.kinds:
                if len(setup_times) < setup_repeats and \
                        totals.seconds >= seconds * len(setup_times) / setup_repeats:
                    set_up_again()
                run_op(wl, index, totals)
                index += 1
            while len(setup_times) < setup_repeats:
                set_up_again()
            metrics = {
                "throughput": totals.throughput(wl.kinds),
                "setup_s": statistics.median(t / slow for t, slow in setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            _print_table(f"{workload}: end-to-end metrics",
                         {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})
            stages = wl.named_metrics(totals)
            stages["throughput.measured"] = (totals.throughput(wl.kinds, scaled=False),
                                             "items/s")
            stages["setup_s.measured"] = (statistics.median(t for t, _ in setup_times), "s")
            stages["host.slowdown"] = (statistics.median(totals.slowdowns), "x")
            stages["operations"] = (len(totals.raw_rates), "count")
            _print_table(f"{workload}: stage metrics", stages)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.UNITS if trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.items,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _traced(wl, seconds, trace_path):
    """Alternate an untraced and a traced run of the same operation until
    `seconds` of stage time are spent; per-layer metrics come from the traced
    ones, stage rates and the overhead baseline from the untraced ones."""
    tracer = Tracer(wl.item_span)
    plain, traced = Totals(), Totals()
    run_op(wl, 0, plain)
    plain.reset_timing()
    index = 0
    while plain.seconds + traced.seconds < seconds or index < wl.kinds:
        run_op(wl, index, plain)
        run_op(wl, index, traced, tracer)
        tracer.end_op()
        index += 1
    tracer.write(trace_path)
    ratios = [p / t - 1 for p, t in zip(plain.rates, traced.rates) if t]
    overhead = statistics.median(ratios) if ratios else 0.0
    metrics = layers.per_layer(tracer, traced.items, traced.facts, plain.stages, overhead)
    both = Totals()
    both.items, both.failed = plain.items + traced.items, plain.failed + traced.failed
    return metrics, both
