"""Fail unless a benchmark result line reports a correct run with no
failed operation.

Usage: python3 bench/run.py ... | tail -n 1 | python3 .github/check_bench_result.py
"""

import json
import sys

result = json.loads(sys.stdin.read())
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"benchmark run failed: {result}")
print(result)
