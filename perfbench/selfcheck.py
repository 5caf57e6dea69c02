"""Tests of the benchmark itself; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _run_cli(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.SMOKE)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    res = _run_cli(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    contract = _contract()
    want = {m["name"]: m["unit"]
            for m in contract["per_layer" if trace else "end_to_end"]}
    if trace and workload == "smoke_contraction":
        want.update(spans.FIXED_POINT_LAYER)
    assert want == {k: v["unit"] for k, v in res["metrics"].items()}
    if trace:
        for name in spans.COUNTS:
            assert float(res["metrics"][name]["value"]).is_integer()
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_contract_matches_harness():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == \
        spans.PER_LAYER


@pytest.fixture
def smoke_run(tmp_path):
    smoke = bench.Run("smoke", bench.DEFAULT_SEED, str(tmp_path))
    smoke.attempt("untraced")
    assert smoke.problems == []
    return smoke


def _problems(smoke):
    problems, final = bench.check_outputs(smoke.values, smoke.outdir, 0)
    return problems or bench.check_reference("smoke", final)


def test_rejects_corrupted_series(smoke_run):
    path = os.path.join(smoke_run.outdir, "series.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[-1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("column 1" in p for p in _problems(smoke_run))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in _problems(smoke_run))


def test_rejects_corrupted_manifest(smoke_run):
    path = os.path.join(smoke_run.outdir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["outcome"]["drifts"]["mass"] = 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    assert any("mass drift" in p for p in _problems(smoke_run))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest)[:-10])
    assert any("unreadable" in p for p in _problems(smoke_run))


def test_rejects_corrupted_snapshot(smoke_run):
    snapdir = os.path.join(smoke_run.outdir, "snapshots")
    last = os.path.join(snapdir, sorted(os.listdir(snapdir))[-1])
    with open(last, "ab") as fh:
        fh.write(b"\0")
    assert any("does not load" in p for p in _problems(smoke_run))


def test_self_time_never_exceeds_duration(tmp_path):
    smoke = bench.Run("smoke", bench.DEFAULT_SEED, str(tmp_path))
    tracer = spans.Tracer()
    with tracer.patched():
        smoke.attempt("traced")
    assert smoke.problems == []
    assert {sp[0] for sp in tracer.spans} >= bench.expected_spans(smoke.values)
    for (_, start, end, _, _), own in zip(tracer.spans,
                                          spans.self_times(tracer.spans)):
        assert -1e-9 <= own <= end - start


def test_missing_binding_fails_loudly():
    with pytest.raises(AttributeError):
        with spans.patched({"fene.runner:no_such_function": lambda f: f}):
            pass
