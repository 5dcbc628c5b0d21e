"""Self-test: every workload, at a tiny size, emits every metric.

    python3 e2ebench/selftest.py

Runs each workload of BENCHMARK.json untraced and traced for one second
on tiny inputs.  Fails when a run exits non-zero, reports wrong output,
prints a result line of the wrong shape, or leaves out a metric of
BENCHMARK.json or its unit; and when some per-layer metric is measured
by no workload at all.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    """(report, result, problems) of one tiny run."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        return None, None, ["exit {}: {}".format(out.returncode,
                                                 out.stderr[-2000:])]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), []


def check_result(result, declared):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys {}".format(sorted(result)))
        return problems
    if result["correct"] is not True:
        problems.append("output checks failed")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append("{} is not a whole number".format(key))
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append("attempted {attempted}, failed {failed}".format(
            **result))
    metrics = result["metrics"]
    names = [metric["name"] for metric in declared]
    extra = sorted(set(metrics) - set(names))
    if extra:
        problems.append("undeclared metrics {}".format(extra))
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("missing {}".format(metric["name"]))
        elif got.get("unit") != metric["unit"]:
            problems.append("{} has unit {!r}, not {!r}".format(
                metric["name"], got.get("unit"), metric["unit"]))
        elif not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append("{} value {!r}".format(metric["name"],
                                                   got.get("value")))
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures, measured = [], set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            report, result, problems = run(workload, trace)
            if result is not None:
                problems = check_result(result, declared)
                if trace:
                    measured.update(m["name"] for m in declared
                                    if m["name"] not in report["not_measured"])
            status = "ok" if not problems else "; ".join(problems)
            print("{:12s} trace={} {}".format(workload, trace, status))
            failures.extend(problems)
    unmeasured = sorted({m["name"] for m in spec["per_layer"]} - measured)
    if unmeasured:
        failures.append("per-layer metrics no workload measures: {}".format(
            unmeasured))
        print(failures[-1])
    print("selftest: {}".format("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
