#!/usr/bin/env python3
"""Check the oracle's weight space against the plain reduction on every family.

A family is any nonempty set of subsets of the points 0..n-1, given as
ascending bitmasks.  For every n up to --max-n and every such family,
``weight_space_from_family`` must equal the null space of all its difference
rows chi(S) - chi(S_0), reduced in one go (``weight_space_from_frozensets``
in tests/test_oracle.py), both without a candidate basis and with each of
these candidates: the true space, the span of all its rows but one (for each
row), and its span with one unit vector outside it added (for each such
vector).  Prints the counts, how many families needed the probe's re-check,
how many certified the true space without a reduction, and every mismatch
with its masks; exits 1 on any mismatch.

    python3 tests/weight_space_check.py --max-n 4

Up to 4 points that is 65,535 families on 4 points, about 30 seconds.
Tier-1 runs the check without candidates up to 3 points.
"""

import argparse
import sys

from welldom import oracle
from welldom.linalg import SubspaceBasis, row_space
from welldom.oracle import SetFamily, weight_space_from_family

from test_oracle import weight_space_from_frozensets


def wrong_candidates(truth: SubspaceBasis, n: int) -> list[SubspaceBasis]:
    """The true space less one row, or plus one unit vector outside it."""
    rows = truth.sparse_rows
    out = [row_space(rows[:i] + rows[i + 1:], n) for i in range(len(rows))]
    for j in range(n):
        grown = row_space(rows + ({j: 1},), n)
        if grown.dimension > truth.dimension:
            out.append(grown)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", dest="max_n", type=int, default=4)
    args = parser.parse_args()
    if not 0 <= args.max_n <= 4:
        parser.error("--max-n must lie in 0..4: 5 points have 2^32 families")
    reductions = 0
    reduce = oracle.nullspace

    def counted(rows, ambient_dim):
        nonlocal reductions
        reductions += 1
        return reduce(rows, ambient_dim)

    oracle.nullspace = counted
    bad = 0
    for n in range(args.max_n + 1):
        rechecked = certified = 0
        families = range(1, 1 << (1 << n))
        for chosen in families:
            family = SetFamily(n, tuple(m for m in range(1 << n) if chosen >> m & 1))
            truth = weight_space_from_frozensets(family)
            reductions = 0
            if weight_space_from_family(family) != truth:
                print(f"MISMATCH n={n} masks {list(family.masks)}")
                bad += 1
            rechecked += reductions > 1
            for candidate in (truth, *wrong_candidates(truth, n)):
                reductions = 0
                space = weight_space_from_family(family, candidate)
                if space != truth:
                    print(f"MISMATCH n={n} masks {list(family.masks)} candidate {candidate.sparse_rows}")
                    bad += 1
                certified += candidate is truth and space is truth and not reductions
        print(f"n={n}: {len(families)} families, {rechecked} re-checked, {certified} certified")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
