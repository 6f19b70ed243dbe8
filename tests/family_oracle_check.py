#!/usr/bin/env python3
"""Check both weight-space engines against the oracle on every family graph.

The family is every connected graph without 4-, 5- and 6-cycles on at most
--max-n vertices, one per isomorphism class (``conftest.family_graphs``).
On each graph the WCW and WWD bases must equal the oracle's spaces, and WWD
must lie in WCW.  The level counts must match the known ones.  Prints the
counts and every mismatch with the graph in graph6; exits 1 on any mismatch.

    python3 tests/family_oracle_check.py --max-n 12

Up to 12 vertices that is 15,667 graphs, about a minute.  Tier-1 runs the
same check up to 10 vertices (``TestEveryFamilyGraph``).
"""

import argparse
import sys

from welldom.analysis import characterized_wcw_basis, characterized_wwd_basis
from welldom.graphs import Graph, serialize_graph
from welldom.linalg import subspace_contains, subspace_equal
from welldom.oracle import well_covered_weight_space_oracle, well_dominated_weight_space_oracle

from conftest import family_graphs

# the number of family graphs on n = 1, 2, ... vertices
KNOWN_COUNTS = (1, 1, 2, 3, 7, 16, 42, 109, 321, 971, 3180, 11014, 40882)


def oracle_mismatches(g: Graph) -> list[str]:
    """The checks g fails: WCW or WWD differs from the oracle, WWD not in WCW."""
    wcw = characterized_wcw_basis(g).basis
    wwd = characterized_wwd_basis(g).basis
    failed = []
    if not subspace_equal(wcw, well_covered_weight_space_oracle(g)):
        failed.append("wcw differs from the oracle")
    if not subspace_equal(wwd, well_dominated_weight_space_oracle(g)):
        failed.append("wwd differs from the oracle")
    if not subspace_contains(wcw, wwd):
        failed.append("wwd not contained in wcw")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", dest="max_n", type=int, default=12)
    args = parser.parse_args()
    levels = family_graphs(args.max_n)
    counts = tuple(len(level) for level in levels)
    print(f"family graphs per n: {list(counts)}, {sum(counts)} in all")
    bad = 0
    if counts[: len(KNOWN_COUNTS)] != KNOWN_COUNTS[: len(counts)]:
        print(f"MISMATCH counts: expected {list(KNOWN_COUNTS[: len(counts)])}")
        bad += 1
    for level in levels:
        for g in level:
            for failure in oracle_mismatches(g):
                print(f"MISMATCH {serialize_graph(g, 'graph6').strip()}: {failure}")
                bad += 1
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
