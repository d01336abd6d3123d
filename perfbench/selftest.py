#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark, run from the root of a checkout.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one short untraced and one
short traced invocation and checks that the result line has exactly the
contract's keys, passes the oracle gate, and prints every end-to-end
(untraced) or per-layer (traced) metric named in BENCHMARK.json with that
entry's unit and nothing else. It then perturbs one decision per workload
and checks that the correctness gate trips: nonzero exit, "correct": false.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def check_result(result, expected, label):
    errors = []
    if result is None:
        return [f"{label}: no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(expected)):
        errors.append(f"{label}: unexpected metric {name}")
    for name, unit in expected.items():
        if name not in metrics:
            errors.append(f"{label}: missing metric {name}")
        elif metrics[name].get("unit") != unit:
            errors.append(f"{label}: {name} unit {metrics[name].get('unit')} != {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            errors.append(f"{label}: {name} value is not a number")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            code, result, stderr = run(workload, trace)
            if code != 0:
                errors.append(f"{label}: exit {code}\n{stderr}")
            errors += check_result(result, expected, label)
            print(f"{label}: checked", flush=True)
        code, result, _ = run(workload, 0, "--perturb-decision")
        if code == 0 or result is None or result.get("correct") is not False:
            errors.append(f"{workload}: a perturbed decision did not trip the gate")
        print(f"{workload} --perturb-decision: checked", flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
