#!/usr/bin/env python3
"""Run the whole verification suite and print a per-case summary table.

Equivalent to ``lovaszgap verify suite`` plus a human-readable digest;
``--full`` adds the 61-vertex q=5 and 109-vertex q=6 separation cases.
"""

import argparse
import sys
import time

from lovaszgap import run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--json", metavar="FILE", help="also write the JSON report")
    args = parser.parse_args()

    started = time.monotonic()
    result = run_suite(seed=args.seed, full=args.full, jobs=args.jobs)
    elapsed = time.monotonic() - started

    width = max(len(case["case"]) for case in result["cases"])
    for case in result["cases"]:
        status = "pass" if case["pass"] else "FAIL"
        chi = case["chi"] if case["chi"] is not None else "-"
        omega = case["omega"] if case["omega"] is not None else "-"
        bound = case["lovasz"]["value"] if case["lovasz"]["certified"] else "-"
        print(f"{case['case']:<{width}}  {status}  chi={chi} omega={omega} bound={bound}")
    n = len(result["cases"])
    passed = sum(1 for c in result["cases"] if c["pass"])
    print(f"\n{passed}/{n} cases passed in {elapsed:.1f}s (seed={args.seed})")

    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if result["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
