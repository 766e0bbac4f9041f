#!/usr/bin/env python3
"""Sweep separation parameters and tabulate chi, omega, and the certified
topological bound, demonstrating that all three gaps grow independently.

Every row is verified exactly: chi by a coloring plus a checkable
lower-bound witness (a Mycielski chain on the triangle-free block), omega
by exact clique search, and the bound by integer homology.  The whole
default sweep, up to the 397-vertex q=8 row, runs in under a second
(0.64-0.72 s wall for the script, 0.32-0.41 s of it the q=8 row, and
27 MB peak RSS, with Python 3.11 on a 2-core Xeon).
"""

import argparse
import sys
import time

from lovaszgap import CorollaryParams, verify_corollary


DEFAULT_SWEEP = [
    (1, 1, 2, 3),
    (1, 2, 2, 3),
    (2, 2, 2, 3),
    (2, 2, 3, 3),
    (2, 2, 3, 4),
    (2, 3, 3, 4),
    (3, 3, 3, 4),
    (2, 2, 4, 4),
    (2, 2, 3, 5),
    (2, 2, 3, 6),
    (2, 2, 3, 7),
    (2, 2, 3, 8),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-q", type=int, default=8, help="skip sweep rows above this q"
    )
    args = parser.parse_args()

    print(f"{'l':>2} {'m':>2} {'p':>2} {'q':>2} {'n':>4} {'edges':>5} "
          f"{'chi':>3} {'omega':>5} {'bound':>5} {'ok':>4} {'secs':>6}")
    all_ok = True
    for l, m, p, q in DEFAULT_SWEEP:
        if q > args.max_q:
            continue
        started = time.monotonic()
        result = verify_corollary(CorollaryParams(l, m, p, q))
        elapsed = time.monotonic() - started
        g = result.built.graph
        bound = result.bound.lovasz_certified
        print(
            f"{l:>2} {m:>2} {p:>2} {q:>2} {g.n:>4} {g.m:>5} "
            f"{result.bound.chi:>3} {result.bound.omega:>5} "
            f"{bound if bound is not None else '-':>5} "
            f"{'yes' if result.passed else 'NO':>4} {elapsed:>6.2f}"
        )
        all_ok = all_ok and result.passed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
