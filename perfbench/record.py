"""Record the expected output of every benchmark job into expected.json.

Run from the root of an eggbox checkout whose answers are trusted:

    python3 perfbench/record.py

For the default seed and the held-out seed it runs each job of each workload
once through the CLI and stores its exit code and the SHA-256 of its stdout,
plus the witness triple that an invalid table is reported with.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import sys
from pathlib import Path

import inputs
import run as bench

SEEDS = (0, 1)  # default seed, held-out seed


def record(root: Path) -> dict:
    seeds = {}
    for seed in SEEDS:
        per_workload = {}
        for workload in inputs.WORKLOADS:
            r = bench.Run(root, workload, seed, trace=False)
            r.fresh()
            jobs = inputs.generate(workload, seed, r.inputs)
            r.use_pycache("pycache")
            outs = {}
            for job in jobs:
                res = r.python(*bench.cli_argv(job), name=job["name"])
                if res["timed_out"]:
                    raise SystemExit(f"{workload}/{job['name']} timed out")
                rec = {"exit": res["exit"], "stdout_sha256": hashlib.sha256(res["stdout"]).hexdigest()}
                m = re.search(rb"not associative at \((\d+),(\d+),(\d+)\)", res["stderr"])
                if m:
                    rec["witness"] = [int(x) for x in m.groups()]
                outs[job["name"]] = rec
            per_workload[workload] = outs
            shutil.rmtree(r.dir, ignore_errors=True)
        seeds[str(seed)] = per_workload
    return {
        "recorded_at": bench.git_sha(root),
        "default_seed": SEEDS[0],
        "held_out_seed": SEEDS[1],
        "seeds": seeds,
    }


if __name__ == "__main__":
    out = bench.HERE / "expected.json"
    out.write_text(json.dumps(record(Path.cwd()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
