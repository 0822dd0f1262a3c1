"""Tiny-size smoke run: every workload, untraced and traced, must print every
metric named in BENCHMARK.json with its unit, and pass its output checks.

    python3 perfbench/smoke.py      # from the root of a checkout, ~1 minute
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed\n{proc.stderr}")
            got = result["metrics"]
            for metric in metrics:
                value = got.get(metric["name"])
                if value is None:
                    problems.append(f"{where}: missing {metric['name']}")
                elif value["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit {value['unit']!r}")
                elif not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
                    problems.append(f"{where}: {metric['name']} value {value['value']!r}")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations", flush=True)
    for problem in problems:
        print(f"SMOKE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
