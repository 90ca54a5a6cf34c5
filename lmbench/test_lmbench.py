"""Tests of the benchmark itself, at smoke scale.

    python -m pytest lmbench -q

Every workload runs end to end and traced on tiny inputs; the emitted
metrics must match ``BENCHMARK.json`` name for name and unit for unit, and
no iteration may fail.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "lmbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.metric_specs()
    )
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate: 0.0000" in proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0
    for line in proc.stdout.splitlines():
        if line.startswith("check "):
            assert "PASS" in line, line


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke")
    )
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    assert all(metrics[f"{layer}.errors"]["value"] == 0 for layer in tracing.LAYERS)
    assert 0 < metrics["rnnlm.forward_step.useful_ratio"]["value"] <= 1
    assert metrics["datagen.sample_corpus.s"]["value"] > 0
    if workload == "train":
        assert metrics["rnnlm.loss_and_grads.calls"]["value"] > 0
    else:
        assert metrics["cli.main.s"]["value"] > 0
        assert metrics["rescoring.rescore.hyps_per_s"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "lmbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_prefix_profile_counts_shared_prefixes():
    steps, distinct = run.prefix_profile([["a", "b"], ["a", "c"], ["a", "b"]])
    assert steps == 9
    # (), (a), (a b), (a c)
    assert distinct == 4


def test_self_time_excludes_child_spans():
    import lmexpand.rnnlm as rnnlm
    from lmexpand.vocab import RESERVED, Vocabulary

    vocab = Vocabulary(list(RESERVED) + ["w0", "w1"], shortlist_size=5)
    model = rnnlm.init_model(vocab, 4, 5, 1, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_phase()
        rnnlm.corpus_perplexity(model, [["w0", "w1"], ["w1"]])
        summary = tracer.end_phase()
    finally:
        tracer.uninstall()
    assert rnnlm.forward_step.__name__ == "forward_step"
    assert not hasattr(rnnlm.forward_step, "__wrapped__")
    outer = summary.functions["rnnlm.corpus_perplexity"]
    step = summary.functions["rnnlm.forward_step"]
    softmax = summary.functions["rnnlm.log_softmax"]
    assert (outer.calls, step.calls, softmax.calls) == (1, 5, 5)
    assert outer.self_s == pytest.approx(outer.incl_s - step.incl_s - softmax.incl_s)
    # prefixes (), (w0), (w0 w1), (w1) out of five steps
    assert step.work["prefixes"] == 4


def test_missing_function_is_reported_not_raised(monkeypatch):
    import lmexpand.expansion
    import lmexpand.rnnlm

    monkeypatch.delattr(lmexpand.rnnlm, "forward_step")
    monkeypatch.delattr(lmexpand.expansion, "forward_step")
    monkeypatch.delattr(lmexpand, "forward_step")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["rnnlm.forward_step"]
    empty = tracing.PhaseSummary({}, set())
    values, unmeasured = tracing.layer_metrics(empty, [empty], tracer.missing)
    assert unmeasured == [
        "rnnlm.forward_step.calls",
        "rnnlm.forward_step.s",
        "rnnlm.forward_step.steps_per_s",
        "rnnlm.forward_step.useful_ratio",
    ]
    assert "rnnlm.forward_step.s" not in values and values["rnnlm.log_softmax.s"] == 0.0
