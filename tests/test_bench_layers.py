"""The operations that `bench/layers.py` times, each run once and untimed,
so that a library name the script calls cannot be renamed or removed
without this suite noticing, and a witness or grid op's name cannot drift
from what it times."""

from __future__ import annotations

import importlib.util
import os

from conftest import spy_products

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py")


def bench_operations() -> dict:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.operations()


def test_every_bench_operation_runs():
    for op in bench_operations().values():
        op()


def test_witness_ops_do_what_their_names_say(monkeypatch):
    # A `witness_walk_*` or `kernel2_walk_*` op makes at least one product,
    # and a `witness_obstructed_*` or `kernel2_obstructed_*` op returns
    # before it builds any keys.
    calls = spy_products(monkeypatch)
    ops = bench_operations()
    for kind in ("witness", "kernel2"):
        walks = [name for name in ops if name.startswith(f"analysis.{kind}_walk_")]
        obstructed = [name for name in ops if name.startswith(f"analysis.{kind}_obstructed_")]
        assert walks and obstructed, kind
        for name in walks + obstructed:
            calls.clear()
            ops[name]()
            if name in walks:
                assert calls["product"] > 0, name
            else:
                assert calls["keys"] == 0, name
