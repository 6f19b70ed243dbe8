"""Closed-form recognition and weight spaces on connected short-cycle-free graphs.

The answers are properties of ``structure.ComponentFacts``: ``recognition``
(4- and 5-cycles excluded: the component qualifies iff it is the 7-cycle,
the ten-vertex triangle tripod, or it admits a simplicial partition), and
``wcw`` and ``wwd``, bases of the weight spaces (weights making all
maximal independent sets, respectively all minimal dominating sets, weigh
the same) when 4-, 5- and 6-cycles are excluded.  This module
holds the graph-taking entry points for connected input, each reading one
component record, and the dimension bookkeeping.

Everything is cross-checked against the enumeration oracle in the tests; the
engines themselves never enumerate whole families.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .linalg import row_space
from .structure import (
    CharacterizationOutcome,
    ComponentFacts,
    SimplicialPartition,
    SpecialForm,
    family_facts,
    special_form_of,
)


# -- recognition (4- and 5-cycles excluded) -------------------------------------


@dataclass(frozen=True)
class RecognitionOutcome:
    holds: bool
    clause: str | None  # "cycle7" | "triangle_tripod" | "simplicial_partition"
    partition: SimplicialPartition | None


def recognize_well_covered(g: Graph) -> RecognitionOutcome:
    """Well-coveredness, and so well-dominatedness, for connected graphs without 4- and 5-cycles."""
    (f,) = family_facts(g, (4, 5), connected=True)
    clause = f.recognition
    partition = f.partition if clause == "simplicial_partition" else None
    return RecognitionOutcome(clause is not None, clause, partition)


# -- weight spaces (4-, 5- and 6-cycles excluded) -------------------------------


def well_covered_weight_basis(g: Graph) -> CharacterizationOutcome:
    """``ComponentFacts.wcw`` of connected input without 4-, 5- or 6-cycles."""
    return family_facts(g, (4, 5, 6), connected=True)[0].wcw


def well_dominated_weight_basis(g: Graph) -> CharacterizationOutcome:
    """``ComponentFacts.wwd`` of connected input without 4-, 5- or 6-cycles."""
    return family_facts(g, (4, 5, 6), connected=True)[0].wwd


# -- dimension bookkeeping -------------------------------------------------------


@dataclass(frozen=True)
class DimensionReport:
    special_form: SpecialForm
    wwd_dimension: int
    anchored_fringe_size: int
    anchored_independence: int
    coupling_rank: int
    anchored_independence_matches: bool
    wcw_dimension: int
    fringe_independence: int
    fringe_independence_matches: bool


def dimension_checks(g: Graph) -> DimensionReport:
    """``dimension_report`` of connected input without 4-, 5- or 6-cycles."""
    return dimension_report(family_facts(g, (4, 5, 6), connected=True)[0])


def dimension_report(f: ComponentFacts) -> DimensionReport:
    """Compare the dimensions of the component's two bases with alpha(G[fringe])
    and with alpha(G[anchored fringe]) minus the coupling rank, the rank of the
    coupled rows on the anchored pieces; mismatches are reported, never raised.

    Each alpha is a number of components: on this family the fringe induces
    disjoint cliques, since pendants touch only non-fringe vertices (except
    in K2) and an ear's fringe neighbors lie in its own triangle.  On a
    special form the bases are the constants and the counts do not apply.
    """
    wcw, wwd = f.wcw.basis, f.wwd.basis
    # the anchored fringe is a union of whole fringe pieces, one component each
    anchored = {p for row in f.coefficients.values() for p in row}
    alpha_anchored = len(anchored)
    coupled = [{p: 1 for p in row if p in anchored} for row in f.forced[1]]
    coupling = row_space(coupled, len(f.fringe_pieces)).dimension if coupled else 0
    return DimensionReport(
        special_form=f.special_form,
        wwd_dimension=wwd.dimension,
        anchored_fringe_size=len(f.anchored),
        anchored_independence=alpha_anchored,
        coupling_rank=coupling,
        anchored_independence_matches=wwd.dimension == alpha_anchored - coupling,
        wcw_dimension=wcw.dimension,
        fringe_independence=len(f.fringe_pieces),
        fringe_independence_matches=wcw.dimension == len(f.fringe_pieces),
    )


__all__ = [
    "CharacterizationOutcome",
    "DimensionReport",
    "RecognitionOutcome",
    "SpecialForm",
    "dimension_checks",
    "dimension_report",
    "recognize_well_covered",
    "special_form_of",
    "well_covered_weight_basis",
    "well_dominated_weight_basis",
]
