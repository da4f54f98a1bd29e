"""Run every workload in both modes and print every metric with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Each run is its own ``run.py`` process, one after another, so that peak
memory stays per workload.  Exits 1 if a run fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for trace in (0, 1):
        for wl in spec["workloads"]:
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", str(args.seed),
                                     "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl['name']}: run failed ({proc.returncode}): {proc.stderr.strip()}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            status = "correct" if result["correct"] else "INCORRECT"
            print(f"# {wl['name']} trace={trace}: {status}, "
                  f"{result['failed']} of {result['attempted']} ops failed")
            bad += not result["correct"]
            for name, m in result["metrics"].items():
                print(f"{wl['name']:18} {name:48} {m['value']:>16.6g} {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
