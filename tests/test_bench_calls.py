"""The library calls of the benchmark's ``perfbench/bench.py`` still work.

``bench.py`` builds rank batches and NDCG losses directly for its pool-size
sweep and for replaying the largest traced NDCG call. A change to
``RankBatch``, ``make_rank_batch`` or ``ndcg_loss`` would otherwise surface
only in a traced benchmark run. ``bench.py`` imports only the standard
library at import time.
"""

import importlib.util
from pathlib import Path

import numpy as np

from momrank.losses import RankLossConfig

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ndcg_probe_builds_a_batch_and_runs_the_loss():
    bench = load_bench()
    seconds, peak_mib = bench.ndcg_probe(50, np.random.Generator(np.random.Philox(1)),
                                         RankLossConfig(), repeats=1)
    assert seconds > 0.0 and peak_mib > 0.0


def test_replay_ndcg_peak_rebuilds_a_traced_batch():
    bench = load_bench()
    rng = np.random.default_rng(2)
    gains = rng.integers(0, 5, 40)
    group_sizes = [int((gains == level).sum()) for level in range(4, -1, -1)]
    largest = (rng.uniform(0.0, 40.0, 40), gains, group_sizes, 8, 10)
    assert bench.replay_ndcg_peak(largest) > 0.0
    assert bench.replay_ndcg_peak(None) == 0.0
