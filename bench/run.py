"""Benchmark of odelof's nested resampling tests.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--short]

Run it from the root of a checkout; it imports odelof from ``src/`` there.
The timed region lasts ``--seconds``, by default ``run_seconds`` of
BENCHMARK.json (the benchmark is run with that value), or 1 s with
``--short``.
With ``--trace 0`` it prints the end-to-end metrics (``setup_s``,
``reps_per_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics
of a fixed amount of traced work. ``--short`` shrinks every budget, for the
self-test. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the workloads and how to read the numbers.

This process only orchestrates: it runs set-up probes and the measured
run as fresh interpreters with BLAS pinned to one thread, and samples the
memory of the measured run's worker processes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Set-up is timed in this many fresh interpreters besides the measured
# run's own; the median of all of them is setup_s.
PROBES = 4
DEADLINE_S = 170.0
SHORT_SECONDS = 1.0
SAMPLE_S = 0.05


class WorkerPeak(threading.Thread):
    """Largest sum of the memory high-water marks (VmHWM) of the
    descendants of ``pid`` alive at one time, sampled from /proc."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(SAMPLE_S):
            total = sum(_hwm_kb(p) for p in _descendants(self.pid))
            self.peak_kb = max(self.peak_kb, total)

    def stop(self):
        self._stop_event.set()
        self.join()


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill_tree(proc: subprocess.Popen) -> None:
    """Kill a child and its workers, and wait until all have ended."""
    pids = _descendants(proc.pid)
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    proc.kill()
    proc.communicate()
    deadline = time.monotonic() + 5.0
    while any(os.path.exists(f"/proc/{pid}") for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


def _child(role: str, args, env, timeout: float, trace: int = 0):
    """Run one child interpreter; returns (its JSON result, worker peak KiB)."""
    cmd = [sys.executable, CHILD, role, "--workload", args.workload, "--seed", str(args.seed)]
    if role == "measure":
        cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
    if args.short:
        cmd.append("--short")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sampler = WorkerPeak(proc.pid)
    sampler.start()
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_tree(proc)
        raise SystemExit(f"bench: {role} child exceeded {timeout:.0f} s")
    finally:
        sampler.stop()
    if proc.returncode != 0:
        raise SystemExit(f"bench: {role} child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), sampler.peak_kb


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="tiny budgets, for the self-test")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = wl.default_seed
    if not os.path.isfile(os.path.join(ROOT, "src", "odelof", "__init__.py")):
        print(f"bench: no odelof source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds is None and args.short:
        args.seconds = SHORT_SECONDS
    elif args.seconds is None:
        with open(SPEC) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    t_start = time.monotonic()
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)

    def probe():
        return _child("probe", args, env, DEADLINE_S - (time.monotonic() - t_start))[0]

    # Probes before and after the measured run, so that setup_s spans
    # the same stretch of machine time as reps_per_s.
    n_probes = 0 if args.trace else 1 if args.short else PROBES
    probes = [probe() for _ in range(n_probes // 2)]
    left = DEADLINE_S - (time.monotonic() - t_start)
    res, worker_kb = _child("measure", args, env, left, args.trace)
    probes += [probe() for _ in range(n_probes - n_probes // 2)]

    errors = list(res["errors"])
    if any(pr["digest"] != res["digest"] for pr in probes):
        errors.append("the same seed gave different inputs in different interpreters")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    samples = [pr["setup_s"] for pr in probes] + [res["setup_s"]]

    print(
        f"workload {args.workload} seed {args.seed}: {res['attempted']} operations "
        f"({res['failed']} failed), {res['reps']} replicates in {res['elapsed']:.2f} s"
    )
    if args.trace:
        import layers

        for name in res["missing"]:
            print(f"missing: {name} (its metrics read 0)")
        print(f"spans written to {os.path.relpath(res['trace_file'], ROOT)}")
        for name, seconds in res["self_s"].items():
            print(f"self time {name} = {seconds:.4f} s")
        metrics = {k: {"value": res["layers"][k], "unit": unit} for k, unit in layers.METRICS}
    else:
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "reps_per_s": {"value": res["reps"] / res["elapsed"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["rss_self_mb"] + worker_kb / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
