"""The benchmark's workloads: what each one runs and why.

Standard library only, so the orchestrator can read the table without
importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the operation the benchmark repeats on it.

    ``kind`` is the test (``case2``/``case3``) a round runs once on each
    of ``per_round`` datasets, taken in turn from a pool of ``datasets``,
    or ``study`` for one ``run_power_study`` call per round.
    ``config`` is merged into the experiment config before
    ``master_seed`` and the resampling budget are set. A round is the unit
    every run repeats whole, so the share of failed operations does not
    depend on the run length. The traced run does ``trace_rounds`` fixed
    rounds, so its counts repeat exactly.
    """

    name: str
    kind: str
    config: dict
    b1: int
    b2: int
    datasets: int
    default_seed: int
    trace_rounds: int
    per_round: int = 0  # 0: the whole pool every round
    replicates: int = 0
    jobs: int = 1
    short: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # The permutation loop (fit_values, block_permute, f_stat_case2)
        # does most of each replicate; no lag design is rebuilt.
        Workload(
            name="case2-vanderpol",
            kind="case2",
            config={"system": "vanderpol", "tests": ["case2"]},
            b1=4,
            b2=199,
            datasets=4,
            default_seed=7,
            trace_rounds=6,
            # B2 = 39 keeps the smallest p-value below alpha, so the
            # rejection check still applies
            short={"b1": 1, "b2": 39, "datasets": 1},
        ),
        # Each permutation rebuilds the lag-augmented smoother design.
        Workload(
            name="case3-vanderpol",
            kind="case3",
            config={"system": "vanderpol", "tests": ["case3"]},
            b1=2,
            b2=199,
            datasets=2,
            default_seed=7,
            trace_rounds=4,
            short={"b1": 1, "b2": 9, "datasets": 1},
        ),
        # The Gauss-Newton pipeline refit dominates; few permutations.
        # Refit cost varies by a quarter between datasets, so the rounds
        # walk through a large pool of them.
        Workload(
            name="refit-rmlog",
            kind="case2",
            config={"system": "rosenzweig_macarthur_log", "tests": ["case2"]},
            b1=2,
            b2=19,
            datasets=24,
            per_round=4,
            default_seed=1,
            trace_rounds=3,
            short={"b1": 1, "b2": 9, "datasets": 1, "per_round": 1},
        ),
        # The desk gate's two SDE cells: Euler-Maruyama simulation and the
        # process-pool harness with report writing sit on the blocking path.
        Workload(
            name="study-sde",
            kind="study",
            config={
                "cells": [
                    {"system": "rossler", "generator": "sde", "tests": ["case3"]},
                    {"system": "vanderpol", "generator": "sde", "tests": ["case2"]},
                ]
            },
            b1=2,
            b2=19,
            datasets=0,
            default_seed=20260814,
            trace_rounds=2,
            replicates=2,
            jobs=2,
            short={"b1": 1, "b2": 9, "replicates": 1},
        ),
    )
}
