#!/usr/bin/env python3
"""Survey how the dominating-space dimension relates to the anchored fringe.

For a seeded family of connected short-cycle-free graphs this tabulates the
dominating weight-space dimension against two candidate closed forms: the raw
anchored-fringe count and the independence number of the anchored fringe
subgraph.  The raw count overshoots whenever two anchored fringe vertices are
adjacent (they share one free weight); the independence number is the one
that matches wherever no forced ear rows couple two ears (README,
"Dimensions and the anchored fringe").

    python3 scripts/dimension_survey.py --count 400 --max-n 12 --seed 77
"""

import argparse
from collections import Counter

from welldom.generators import GeneratorConfig, generate_family
from welldom.graphs import induced_subgraph
from welldom.structure import anchored_fringe_vertices, independence_number
from welldom.weightspace import SpecialForm, special_form_of, well_dominated_weight_basis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--max-n", dest="max_n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args()

    cfg = GeneratorConfig(
        max_n=args.max_n,
        forbidden_cycles=frozenset({4, 5, 6}),
        seed=args.seed,
        count=args.count,
    )
    surveyed = 0
    special = 0
    count_hits = 0
    alpha_hits = 0
    overshoot = Counter()
    worst: tuple[int, str] | None = None

    for g in generate_family(cfg):
        if g.n == 0 or not g.is_connected:
            continue
        if special_form_of(g) is not SpecialForm.GENERAL:
            special += 1
            continue
        surveyed += 1
        dim = well_dominated_weight_basis(g).basis.dimension
        anchored = anchored_fringe_vertices(g)
        sub, _ = induced_subgraph(g, anchored)
        alpha = independence_number(sub)
        if dim == len(anchored):
            count_hits += 1
        else:
            overshoot[len(anchored) - dim] += 1
            if worst is None or len(anchored) - dim > worst[0]:
                pairs = [(u, v) for u in sorted(anchored) for v in sorted(anchored)
                         if u < v and g.has_edge(u, v)]
                worst = (len(anchored) - dim,
                         f"n={g.n}: dim {dim}, anchored {len(anchored)}, "
                         f"adjacent anchored pairs {pairs}")
        if dim == alpha:
            alpha_hits += 1

    print(f"connected general-form instances surveyed: {surveyed} "
          f"(+{special} special forms skipped)")
    if not surveyed:
        return
    print(f"dimension == anchored count:        {count_hits:5d} "
          f"({100.0 * count_hits / surveyed:.1f}%)")
    print(f"dimension == anchored independence: {alpha_hits:5d} "
          f"({100.0 * alpha_hits / surveyed:.1f}%)")
    if overshoot:
        by_gap = ", ".join(f"{gap}: {num}" for gap, num in sorted(overshoot.items()))
        print(f"count overshoot distribution (gap: graphs): {by_gap}")
        assert worst is not None
        print(f"largest gap example: {worst[1]}")


if __name__ == "__main__":
    main()
