"""Child processes of the benchmark, each a fresh interpreter.

    python3 bench/child.py probe   --workload W --seed N [--short]
    python3 bench/child.py measure --workload W --seed N --seconds S --trace 0|1 [--short]

``probe`` times set-up alone: from ``import odelof`` until the config is
resolved and the datasets are simulated. ``measure`` does the same set-up,
checks the inputs, runs the timed rounds and checks their outputs. Both
print one JSON line. odelof is imported from the checkout's ``src/`` and
nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def _import_setup(wl, seed):
    """Import the program and build the inputs; returns (ops, inputs, seconds).

    Only the program's import (with numpy and scipy) and ``ops.setup`` are
    timed: ``import ops`` also loads the benchmark's checks, which are not
    the program's set-up cost."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import odelof

    elapsed = time.perf_counter() - start
    if not os.path.abspath(odelof.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"odelof was imported from {odelof.__file__}, not {SRC}")
    import ops  # odelof is loaded; this adds the benchmark's own modules

    start = time.perf_counter()
    inputs = ops.setup(wl, seed)
    elapsed += time.perf_counter() - start
    return ops, inputs, elapsed


def _measure(ops, wl, inputs, seed, seconds, trace, scratch) -> dict:
    import layers

    errors = ops.check_inputs(wl, inputs)
    ops.warm_up(wl, inputs, seed)
    out = {"missing": [], "layers": None, "trace_file": None}
    if trace:
        # Each round runs once plain and once traced on the same seeds,
        # in alternating order, so machine drift falls on both alike.
        plain, traced = ops.Tally(), ops.Tally()
        tracer = layers.Tracer()
        with tracer:
            ops.setup(wl, seed)
        for r in range(wl.trace_rounds):
            for on in (False, True) if r % 2 == 0 else (True, False):
                with tracer if on else contextlib.nullcontext():
                    sub = os.path.join(scratch, "traced" if on else "plain")
                    ops.run_round(wl, inputs, seed, r, 1, sub, traced if on else plain)
        if ops.fingerprint(wl, plain) != ops.fingerprint(wl, traced):
            errors.append("traced and untraced rounds gave different outputs")
        tally = traced
        found, exceed = ops.check_outputs(wl, inputs, tally)
        overhead = 100.0 * (traced.elapsed / plain.elapsed - 1.0)
        out["layers"] = tracer.metrics(exceed, overhead)
        out["self_s"] = tracer.self_times()
        out["missing"] = tracer.missing
        os.makedirs(TRACE_DIR, exist_ok=True)
        out["trace_file"] = os.path.join(TRACE_DIR, f"{wl.name}-seed{seed}.trace.json")
        tracer.write(out["trace_file"])
    else:
        tally = ops.Tally()
        r = 0
        while tally.elapsed < seconds:
            ops.run_round(wl, inputs, seed, r, wl.jobs, scratch, tally)
            r += 1
        found, _ = ops.check_outputs(wl, inputs, tally)
    errors += found
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reps=tally.reps,
        elapsed=tally.elapsed,
        rss_self_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        errors=errors,
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("probe", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.short:
        wl = dataclasses.replace(wl, **wl.short)

    ops, inputs, setup_s = _import_setup(wl, args.seed)
    result = {"setup_s": setup_s, "digest": ops.digest(inputs)}
    if args.role == "measure":
        tmp_root = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(tmp_root, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=tmp_root)
        try:
            result.update(_measure(ops, wl, inputs, args.seed, args.seconds, args.trace, scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(tmp_root)  # only if no other run is using it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
