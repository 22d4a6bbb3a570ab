"""Traced runs leave seget unwrapped and refuse targets that are gone;
BENCHMARK.json names what run.py prints; a directory without the sources
is refused."""

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import layers
import workloads
from conftest import BENCH, ROOT
from seget.model import NetworkConfig, build
from tracing import Patcher, Tracer

TINY_TRAIN = workloads.TrainWorkload("tiny-train", size=32, slices=5, window=16, stride=16,
                                     base_filters=2, epochs=1, batch_size=4)
TINY_PREDICT = workloads.PredictWorkload("tiny-predict", size=32, slices=1, window=16,
                                         stride=8, base_filters=2, fixture_patch=16,
                                         fixture_batch=2, fixture_forwards=1)


def target_attributes():
    out = {}
    for module_name, path, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        out[(module_name, path)] = vars(owner)[attr]
    return out


@pytest.mark.parametrize("w", [TINY_TRAIN, TINY_PREDICT], ids=lambda w: w.name)
def test_traced_run_restores_every_wrapped_attribute(w, tmp_path):
    before = target_attributes()
    run = workloads.run_predict if isinstance(w, workloads.PredictWorkload) else workloads.run_train
    result = run(w, seed=3, seconds=0.1, trace=True, work=tmp_path, root=ROOT)

    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == {name for name, _, _ in layers.metric_names()}
    traced = {s.name for s in result["spans"]["ops"]}
    assert {"model.forward", "ops.conv2d_forward", "ops.batchnorm_forward"} <= traced
    assert any(name.startswith("unit.") for name in traced)
    after = target_attributes()
    assert all(after[key] is fn for key, fn in before.items())
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_instrumented_network_is_restored():
    net = build(NetworkConfig(base_filters=2, depth=2, dilation_rates=(1, 2)))
    units = layers.find_units(net)
    assert {u.name for u in units} == {r.name for r in net.describe().rows if r.kind == "conv"}
    with Patcher() as p:
        layers.instrument_net(p, Tracer(), net)
        assert "forward" in vars(net) and all("backward" in vars(u) for u in units)
    assert "forward" not in vars(net) and "backward" not in vars(net)
    assert not any("forward" in vars(u) or "backward" in vars(u) for u in units)


def test_a_missing_target_raises_and_wraps_nothing(monkeypatch):
    before = target_attributes()
    monkeypatch.setattr(layers, "TARGETS", (*layers.TARGETS,
                                            ("seget.ops", "no_such_op", "ops.no_such_op")))
    with Patcher() as p, pytest.raises(LookupError, match="seget.ops.no_such_op"):
        layers.instrument_modules(p, Tracer())
    monkeypatch.undo()
    assert target_attributes() == before


def test_a_network_without_units_raises():
    class Bare:
        def forward(self, x, mode="train"):
            return x

        def backward(self, grad):
            return grad

    with Patcher() as p, pytest.raises(LookupError, match="no units"):
        layers.instrument_net(p, Tracer(), Bare())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_names()


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no seget sources" in proc.stderr
