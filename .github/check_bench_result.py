"""Fail unless a benchmark result line reports a correct run of at least
one operation with none failed, and gives every metric as a finite number
with a unit.

Usage: python3 bench/run.py ... | tail -n 1 | python3 .github/check_bench_result.py
"""

import json
import math
import sys


def finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


result = json.loads(sys.stdin.read())
metrics = result.get("metrics")
problems = []
if result.get("correct") is not True:
    problems.append("not correct")
if not (type(result.get("attempted")) is int and result["attempted"] >= 1):
    problems.append("no operation attempted")
if result.get("failed") != 0:
    problems.append("failed operations")
if not isinstance(metrics, dict) or not metrics:
    problems.append("no metrics")
else:
    problems += [f"metric {name} is not a finite number with a unit"
                 for name, metric in metrics.items()
                 if not (isinstance(metric, dict) and finite(metric.get("value"))
                         and isinstance(metric.get("unit"), str) and metric["unit"])]
if problems:
    sys.exit(f"benchmark run failed ({'; '.join(problems)}): {result}")
print(result)
