"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run as bench  # noqa: E402


def _jobs(workload: str, seed: int = 0) -> tuple[bench.Run, list[dict]]:
    r = bench.Run(ROOT, workload, seed, trace=True)
    r.fresh()
    jobs = inputs.generate(workload, seed, r.inputs)
    r.use_pycache("pycache")
    return r, jobs


@pytest.fixture(scope="module")
def replays():
    """Every job of every workload, once through the CLI and once replayed."""
    out = {}
    for workload in inputs.WORKLOADS:
        r, jobs = _jobs(workload)
        for job in jobs:
            spans_path = r.out / f"spans-{job['name']}.json"
            cli_res = r.python(*bench.cli_argv(job), name="cli")
            rep_res = r.python(
                str(BENCH / "replay.py"), str(spans_path), job["name"], "--", *job["argv"],
                name="replay",
            )
            out[(workload, job["name"])] = (cli_res, rep_res, json.loads(spans_path.read_text()))
        shutil.rmtree(r.dir)
    return out


def test_replay_gives_the_cli_answer(replays):
    for key, (cli_res, rep_res, _) in replays.items():
        assert not cli_res["timed_out"] and not rep_res["timed_out"], key
        assert rep_res["exit"] == cli_res["exit"], key
        assert rep_res["stdout"] == cli_res["stdout"], key
        assert rep_res["stderr"] == cli_res["stderr"], key


def test_spans_nest_and_self_times_add_up(replays):
    for key, (_, _, trace) in replays.items():
        spans = trace["spans"]
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["job"], key
        for s in spans:
            assert s["start_ns"] <= s["end_ns"], key
            assert s["job"] == key[1]
            if s["parent"] is not None:
                p = by_id[s["parent"]]
                assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], (key, s)
            assert s["layer"] in bench.LAYERS or s is roots[0], (key, s)
        selfs = bench.self_times(spans)
        root = roots[0]
        assert sum(selfs.values()) == root["end_ns"] - root["start_ns"], key


def test_every_layer_is_reached(replays):
    seen = {s["layer"] for (_, _, trace) in replays.values() for s in trace["spans"]}
    assert seen == set(bench.LAYERS) | {"job"}


def test_recorded_outputs_hold_for_every_seed():
    """Only the invalid-table witness depends on the seed, and the input
    generator predicts it."""
    expected = bench.load_expected()
    seeds = expected["seeds"]
    default = seeds[str(expected["default_seed"])]
    for seed, per_workload in seeds.items():
        for workload, recs in per_workload.items():
            r = bench.Run(ROOT, workload, int(seed), trace=False)
            jobs = inputs.generate(workload, int(seed), r.inputs)
            shutil.rmtree(r.dir)
            assert sorted(recs) == sorted(j["name"] for j in jobs)
            for job in jobs:
                rec = recs[job["name"]]
                if "witness" in job:
                    assert rec["witness"] == job["witness"]
                    rec = {k: v for k, v in rec.items() if k != "witness"}
                    base = {k: v for k, v in default[workload][job["name"]].items() if k != "witness"}
                    assert rec == base
                else:
                    assert rec == default[workload][job["name"]], (seed, workload, job["name"])


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = inputs.generate("structure-large", 5, tmp_path / "a")
    b = inputs.generate("structure-large", 5, tmp_path / "b")
    c = inputs.generate("structure-large", 6, tmp_path / "c")
    assert a == b
    assert (tmp_path / "a" / "rts.json").read_bytes() == (tmp_path / "b" / "rts.json").read_bytes()
    assert (tmp_path / "a" / "rts.json").read_bytes() != (tmp_path / "c" / "rts.json").read_bytes()


def test_timeout_counts_as_failed():
    r = bench.Run(ROOT, "identity-scans", 0, trace=False)
    r.fresh()
    r.inputs.mkdir()
    res = r.python("-c", "import time; time.sleep(30)", timeout=0.5)
    shutil.rmtree(r.dir)
    assert res["timed_out"]
    assert not bench.output_ok(res, {"exit": 0, "stdout_sha256": bench.hashlib.sha256(b"").hexdigest()})


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "identity-scans",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    lines = proc.stdout.splitlines()
    assert lines[1] == f"jobs attempted={res['attempted']} failed=0"
    for line in lines[2:-1]:
        assert line.split()[0] in declared, line


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(names) == sorted(bench.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orderability", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
