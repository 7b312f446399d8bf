"""Tests of the benchmark's own code: tiler, span tracing, output checks."""

import importlib.resources
import json
import math
import time
import types
from collections import deque
from pathlib import Path

import pytest

import run
import spans
from opfcuts import driver
from opfcuts.case_io import parse_case, parse_case_file, serialize_case
from tiler import tile_case

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def case14():
    return parse_case_file(
        str(importlib.resources.files("opfcuts") / "data" / "case14.m"))


def _connected(case) -> bool:
    adj = {b.id: set() for b in case.buses}
    for br in case.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    start = case.buses[0].id
    seen, todo = {start}, deque([start])
    while todo:
        for nxt in adj[todo.popleft()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return len(seen) == len(adj)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_tiler_counts_and_connectivity(case14, k):
    tiled = tile_case(case14, k, seed=3)
    assert len(tiled.buses) == 14 * k
    assert len({b.id for b in tiled.buses}) == 14 * k
    assert len(tiled.branches) == 20 * k + 2 * (k - 1)
    assert len(tiled.generators) == 5 * k
    assert _connected(tiled)
    assert parse_case(serialize_case(tiled), name=tiled.name) == tiled


def test_tiler_is_seeded(case14):
    assert tile_case(case14, 4, seed=7) == tile_case(case14, 4, seed=7)
    assert tile_case(case14, 4, seed=7) != tile_case(case14, 4, seed=8)


def _snapshot():
    return {(owner, attr): vars(spans._resolve(owner)).get(attr)
            for owner, attr, *_ in spans.LAYER_MAP}


def test_wrappers_removed_after_traced_run(case14):
    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(KeyboardInterrupt):
        with spans.wrapped(tracer):
            assert len(spans.leaked_patches()) == len(before)
            driver.cutplane(case14, driver.RunConfig(max_rounds=3))
            raise KeyboardInterrupt
    assert spans.leaked_patches() == []
    assert _snapshot() == before
    assert tracer.self_times()["driver.cutplane"][2] == 1


def test_restore_after_a_raising_call():
    owner = types.SimpleNamespace(boom=lambda: 1 / 0)
    original = owner.boom
    tracer = spans.Tracer()
    tracer.patch(owner, "boom", "x")
    with pytest.raises(spans.LayerMapError):
        tracer.patch(owner, "absent", "x")
    try:
        with pytest.raises(ZeroDivisionError):
            owner.boom()
    finally:
        tracer.restore()
    assert owner.boom is original
    assert tracer.names == ["x"] and tracer.ends[0] >= tracer.starts[0]


def test_absent_names_fail_the_traced_run(monkeypatch):
    before = _snapshot()
    assert spans._resolve("driver") is driver
    for owner in ("no_such_module", "driver.NoSuchClass"):
        with pytest.raises(spans.LayerMapError):
            spans._resolve(owner)
    monkeypatch.setattr(spans, "LAYER_MAP", spans.LAYER_MAP + [
        ("driver", "no_such_function", "x", None, ())])
    with pytest.raises(spans.LayerMapError):
        with spans.wrapped(spans.Tracer()):
            pass
    monkeypatch.undo()
    assert _snapshot() == before


def test_self_times_nonnegative_and_within_wall(case14):
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with spans.wrapped(tracer):
        driver.cutplane(case14, driver.RunConfig(max_rounds=4))
    wall = time.perf_counter() - t0
    times = tracer.self_times()
    assert all(self_s >= 0.0 for self_s, _, _ in times.values())
    assert sum(self_s for self_s, _, _ in times.values()) <= wall
    assert times["driver.cutplane"][1] <= wall
    metrics = spans.layer_metrics(tracer)
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["lp_backend.solves"] == 4


def test_fold_into_keeps_time_with_the_parent():
    tracer = spans.Tracer()
    owner = types.SimpleNamespace()
    owner.inner = lambda: time.sleep(0.001)
    owner.outer = lambda: owner.inner()
    tracer.patch(owner, "inner", "inner", fold_into=("outer",))
    tracer.patch(owner, "outer", "outer")
    owner.outer()
    owner.inner()
    tracer.restore()
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, -1]


def test_metric_names_match_benchmark_json():
    bench = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(spans.PER_LAYER)
    names = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_pct"}
    assert names == {name for name, _, _ in spans.PER_LAYER}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def _report(objective, bound, termination="stall"):
    rounds = [driver.RoundStats(index=0, objective=objective, cuts_added=0,
                                cuts_dropped=0, wall_time=0.0, bound=bound)]
    return driver.RunReport(case_name="x", rounds=rounds, best_bound=bound,
                            termination=termination)


def test_tally_flags_bad_reports():
    tally = run.Tally()
    assert tally.record("a", _report(100.0, 99.0))
    assert not tally.record("b", _report(100.0, 100.1))
    assert not tally.record("c", _report(100.0, 99.0, "backend_limit"))
    assert not tally.record("d", _report(100.0, -math.inf))
    assert not tally.record("a", _report(100.0, 98.0))   # repeat differs
    assert (tally.attempted, tally.failed) == (5, 4)
