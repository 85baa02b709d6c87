"""The operations that `bench/layers.py` times, each run once and untimed,
so that a library name the script calls cannot be renamed or removed
without this suite noticing."""

from __future__ import annotations

import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py")


def test_every_bench_operation_runs():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for op in layers.operations().values():
        op()
