#!/usr/bin/env python
"""Pin the deterministic work of the host benchmark's traced run.

Host seconds are too noisy to gate on, but the work a traced run does is
exact.  For each workload this runs::

    PYTHONHASHSEED=0 python3 hostbench/run.py --workload W --tiny --seed 1 \\
        --seconds 1 --trace 1

and keeps every metric that counts work rather than time: each
``*.calls`` count and every other counter or ratio.  Host times
(``*_s``), ``trace.overhead`` and the harness's own ``harness.*``
metrics are left out.  The result is compared with
``tools/hostbench-work.json``.

Run from the repository root::

    python tools/hostbench_work.py           # exit 1 on any difference
    python tools/hostbench_work.py --write   # re-pin after a change that
                                             # is meant to move the work

A change that moves a count re-pins it and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIN = os.path.join(ROOT, "tools", "hostbench-work.json")
WORKLOADS = ("tune-sweep", "serve-churn", "serve-large")


def is_work(name: str) -> bool:
    """True for metrics that count work, not host time."""
    return not (name.endswith("_s") or name == "trace.overhead"
                or name.startswith("harness."))


def measure(workload: str) -> dict:
    """The work metrics of one traced ``--tiny`` run."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
         "--workload", workload, "--tiny", "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: hostbench exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if is_work(name)}


def main(argv) -> int:
    measured = {w: measure(w) for w in WORKLOADS}
    if "--write" in argv:
        with open(PIN, "w", encoding="utf-8") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"pinned {sum(map(len, measured.values()))} work metrics "
              f"to {os.path.relpath(PIN, ROOT)}")
        return 0
    with open(PIN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    diffs = [
        f"{w}: {name}: pinned {pinned.get(w, {}).get(name)!r}, "
        f"measured {measured[w].get(name)!r}"
        for w in WORKLOADS
        for name in sorted(set(pinned.get(w, {})) | set(measured[w]))
        if pinned.get(w, {}).get(name) != measured[w].get(name)
    ]
    for line in diffs:
        print(line)
    print(f"hostbench work: {len(diffs)} difference(s) from "
          f"{os.path.relpath(PIN, ROOT)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
