"""The eggbox benchmark: CLI workloads end to end, or traced layer by layer.

Run from the root of an eggbox checkout:

    python3 perfbench/run.py --workload orderability --seed 0 --seconds 20 --trace 0

It builds the inputs of the workload from the seed, then runs the workload's
job list again and again until --seconds have passed. One client runs one job
at a time (a closed loop); each job is a real `python -m eggbox.cli`
subprocess with a timeout. Every job's exit code and stdout are checked
against the outputs recorded in expected.json; a mismatch or a timeout counts
as failed.

--trace 0 reports the end-to-end metrics, medians over the repetitions of the
job list. --trace 1 runs the list once untraced and then replays each job in
a fresh interpreter (replay.py) with a span around every call into a layer,
and reports per-layer medians over the replays. Spans and the per-job results
go to .eggbench/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Every metric name is listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
LAYERS = ("cli", "core", "green", "constructions", "hull", "order", "terms")
SETUPS = 15  # set-ups per run; setup_s is their median
STARTUPS = 5  # no-work CLI processes per traced pass; cli.startup_ms is their median
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "core.validate_ns_per_triple": "ns",
    "terms.assignments": "count",
    "terms.us_per_assignment": "us",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
for _layer in LAYERS:
    UNITS[f"{_layer}.self_ms"] = "ms"
    UNITS[f"{_layer}.calls"] = "count"
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)
SCAN_SPANS = ("terms.satisfies_identity", "terms.pseudovariety_membership")
JOB_TIMEOUT_S = 60.0  # at the recorded commit the slowest job takes under 10 s
RUN_DEADLINE_S = 150.0  # no job runs past this, so a run with hung jobs still ends


class Run:
    """Where one benchmark run keeps its files, and how it starts Python."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.dir = root / ".eggbench" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        # Python's own settings are fixed here, not inherited: bytecode is
        # cached (as in an installed CLI) and string hashing does not vary.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def fresh(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out.mkdir(parents=True)

    def use_pycache(self, name: str) -> None:
        self.env["PYTHONPYCACHEPREFIX"] = str(self.dir / name)

    def python(self, *argv: str, timeout: float = JOB_TIMEOUT_S, name: str = "proc") -> dict:
        """Run `python argv` in the inputs directory and wait for it.

        Returns exit code, stdout, stderr, wall seconds, CPU seconds and max
        RSS of the process and every child it waited for; `timed_out` is set
        when it was killed at the timeout or at the run's deadline.
        """
        timeout = max(0.0, min(timeout, self.deadline - time.perf_counter()))
        stdout_path, stderr_path = self.out / f"{name}.stdout", self.out / f"{name}.stderr"
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.inputs,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=so,
                stderr=se,
                start_new_session=True,
            )
            killed = threading.Event()

            def kill() -> None:
                killed.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            # The job's process group may still hold workers: make sure they end.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return {
            "exit": proc.returncode,
            "stdout": stdout_path.read_bytes(),
            "stderr": stderr_path.read_bytes(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": killed.is_set(),
        }


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def expectation(expected: dict, workload: str, seed: int, job: dict) -> dict:
    """The recorded output of a job for this seed.

    Outputs other than the invalid-table witness are the same for every
    seed (the tests check this on the recorded seeds), so a seed without a
    record uses the default seed's; the witness comes from the input
    generator, which knows which entry it changed.
    """
    seeds = expected["seeds"]
    rec = dict(seeds.get(str(seed), seeds[str(expected["default_seed"])])[workload][job["name"]])
    if "witness" in job:
        rec["witness"] = job["witness"]
    return rec


def output_ok(res: dict, exp: dict) -> bool:
    if res["timed_out"] or res["exit"] != exp["exit"]:
        return False
    if hashlib.sha256(res["stdout"]).hexdigest() != exp["stdout_sha256"]:
        return False
    if "witness" in exp:
        i, j, k = exp["witness"]
        return f"at ({i},{j},{k})".encode() in res["stderr"]
    return True


def cli_argv(job: dict) -> list[str]:
    return ["-m", "eggbox.cli", *job["argv"]]


def setup(run: Run, workload: str, seed: int) -> tuple[list[dict], list[float]]:
    """Generate the inputs and import the CLI cold, SETUPS times.

    Each set-up compiles the package into a fresh bytecode cache, so set-up
    time includes the first import whatever state the checkout is in.
    """
    times = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        shutil.rmtree(run.inputs, ignore_errors=True)
        jobs = inputs.generate(workload, seed, run.inputs)
        run.use_pycache(f"pycache{k}")
        res = run.python("-c", "import eggbox.cli", name=f"setup{k}")
        times.append(time.perf_counter() - t0)
        if res["exit"] != 0:
            raise SystemExit(f"importing eggbox.cli failed:\n{res['stderr'].decode()}")
    return jobs, times


def run_list(run: Run, jobs: list[dict], check, rep: int) -> dict:
    """One pass over the job list with tracing off."""
    t0 = time.perf_counter()
    results = []
    for job in jobs:
        res = run.python(*cli_argv(job), name=f"{rep}-{job['name']}")
        results.append(
            {
                "job": job["name"],
                "ok": check(job, res),
                "exit": res["exit"],
                "timed_out": res["timed_out"],
                "wall_s": res["wall_s"],
                "cpu_s": res["cpu_s"],
                "maxrss_mb": res["maxrss_mb"],
            }
        )
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        "jobs": results,
    }


def self_times(spans: list[dict]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus its children's.
    The spans come from one thread's stack, so children never overlap."""
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the job list."""
    m = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("self_ms", "calls")}
    validate_ns = scan_ns = triples = assignments = 0
    for tr in traces:
        selfs = self_times(tr["spans"])
        for s in tr["spans"]:
            if s["layer"] in LAYERS:
                m[f"{s['layer']}.self_ms"] += selfs[s["id"]] / 1e6
                m[f"{s['layer']}.calls"] += 1
            if s["name"] == "core.from_dict" and not s["error"]:
                validate_ns += s["end_ns"] - s["start_ns"]
            if s["name"] in SCAN_SPANS:
                scan_ns += s["end_ns"] - s["start_ns"]
        triples += tr["counters"]["core.validated_triples"]
        assignments += tr["counters"]["terms.assignments"]
    # A workload that loads or scans nothing reports 0 for the ratio.
    m["core.validate_ns_per_triple"] = validate_ns / triples if triples else 0.0
    m["terms.assignments"] = assignments
    m["terms.us_per_assignment"] = scan_ns / 1e3 / assignments if assignments else 0.0
    return m


def traced_pass(run: Run, jobs: list[dict], check, rep: int) -> dict:
    """Replay every job in a fresh interpreter, with spans; then time
    STARTUPS no-work CLI processes."""
    traces, results, total = [], [], 0.0
    for job in jobs:
        spans_path = run.out / f"spans-{rep}-{job['name']}.json"
        res = run.python(
            str(HERE / "replay.py"), str(spans_path), job["name"], "--", *job["argv"],
            name=f"trace{rep}-{job['name']}",
        )
        total += res["wall_s"]
        ok = check(job, res) and spans_path.exists()
        results.append({"job": job["name"], "ok": ok, "exit": res["exit"], "wall_s": res["wall_s"]})
        if spans_path.exists():
            traces.append(json.loads(spans_path.read_text()))
    startups = [
        run.python("-m", "eggbox.cli", "--help", name=f"startup{rep}-{k}")["wall_s"] * 1e3
        for k in range(STARTUPS)
    ]
    m = layer_metrics(traces)
    m["cli.startup_ms"] = statistics.median(startups)
    return {"metrics": m, "traced_s": total, "jobs": results, "traces": traces}


def repeat(one_pass, seconds: float) -> list:
    """Run passes while the next one is expected to end within `seconds`;
    always at least one."""
    t0 = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def git_sha(root: Path) -> str:
    """The checkout's commit, or "unknown" when it is not a git work tree.
    git is kept from searching above the checkout, which the benchmark
    does not read."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eggbox" / "cli.py").is_file():
        print(f"error: no eggbox sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    expected = load_expected()
    run = Run(root, args.workload, args.seed, bool(args.trace))
    run.fresh()
    jobs, setup_times = setup(run, args.workload, args.seed)
    exps = {job["name"]: expectation(expected, args.workload, args.seed, job) for job in jobs}

    def check(job: dict, res: dict) -> bool:
        return output_ok(res, exps[job["name"]])

    report = {}
    if not args.trace:
        passes = repeat(lambda k: run_list(run, jobs, check, k), args.seconds)
        metrics = {k: statistics.median(p[k] for p in passes) for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setup_times)
        job_results = [r for p in passes for r in p["jobs"]]
    else:
        untraced = run_list(run, jobs, check, 0)
        budget = args.seconds - untraced["wall_s"]
        passes = repeat(lambda k: traced_pass(run, jobs, check, k), budget)
        metrics = {k: statistics.median(p["metrics"][k] for p in passes) for k in PER_LAYER if k != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(p["traced_s"] for p in passes) / untraced["wall_s"]
        job_results = untraced["jobs"] + [r for p in passes for r in p["jobs"]]
        spans = [s for p in passes for tr in p["traces"] for s in tr["spans"]]
        (run.dir / "trace.json").write_text(json.dumps({"spans": spans}))
        report["untraced_wall_s"] = untraced["wall_s"]

    attempted = len(job_results)
    failed = sum(not r["ok"] for r in job_results)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "passes": len(passes),
        "setups": SETUPS,
    }
    report.update(stamp, metrics=metrics, jobs=job_results, setup_s=setup_times)
    (run.dir / "report.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(run.inputs, ignore_errors=True)
    shutil.rmtree(run.out, ignore_errors=True)
    for k in range(SETUPS):
        shutil.rmtree(run.dir / f"pycache{k}", ignore_errors=True)

    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"jobs attempted={attempted} failed={failed}")
    for r in job_results:
        if not r["ok"]:
            print(f"FAILED {r['job']}: exit {r['exit']}{' (timed out)' if r.get('timed_out') else ''}")
    for name, value in metrics.items():
        n = SETUPS if name == "setup_s" else len(passes)
        print(f"{name:32s} {value:14.6f} {UNITS[name]:6s} median of {n}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
