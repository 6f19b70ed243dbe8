"""Closed-form recognition and weight spaces on short-cycle-free graphs.

Two engines live here, both for connected graphs:

* recognition of well-covered / well-dominated graphs when 4- and 5-cycles
  are excluded: the graph qualifies iff it is the 7-cycle, the ten-vertex
  triangle tripod, or it admits a simplicial partition;
* canonical bases of the weight spaces (weights making all maximal
  independent sets, respectively all minimal dominating sets, weigh the
  same) when 4-, 5- and 6-cycles are excluded.

Everything is cross-checked against the enumeration oracle in the tests; the
engines themselves never enumerate whole families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .linalg import SubspaceBasis, constants_space, row_space
from .structure import (
    ComponentFacts,
    SimplicialPartition,
    SpecialForm,
    family_facts,
    induced_pieces,
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
    (facts,) = family_facts(g, (4, 5), connected=True)
    return recognition_from_facts(facts)


def recognition_from_facts(f: ComponentFacts) -> RecognitionOutcome:
    if f.special_form is SpecialForm.CYCLE7:
        return RecognitionOutcome(True, "cycle7", None)
    if f.special_form is SpecialForm.TRIANGLE_TRIPOD:
        return RecognitionOutcome(True, "triangle_tripod", None)
    if f.partition is not None:
        return RecognitionOutcome(True, "simplicial_partition", f.partition)
    return RecognitionOutcome(False, None, None)


# -- weight spaces (4-, 5- and 6-cycles excluded) -------------------------------


@dataclass(frozen=True)
class CharacterizationOutcome:
    special_form: SpecialForm
    basis: SubspaceBasis
    notes: tuple[str, ...] = ()


def _basis(f: ComponentFacts, dominating: bool) -> CharacterizationOutcome:
    n = f.graph.n
    if f.special_form is not SpecialForm.GENERAL:
        return CharacterizationOutcome(
            f.special_form, constants_space(n), (f"{f.special_form.value}: constant weights",)
        )
    if not dominating:
        return CharacterizationOutcome(f.special_form, row_space(f.piece_vectors, n))
    kept = []
    for coefficients in f.coefficients:  # a combination of the piece vectors
        vec: dict[int, int | Fraction] = {}
        for p, x in coefficients.items():
            for v in f.piece_vectors[p]:
                vec[v] = vec.get(v, 0) + x
        kept.append(vec)
    # the notes name vertices by their whole-graph labels
    labels = f.labels
    zero_forced = sorted(labels[v] for v in f.fringe - f.anchored)
    notes = [f"zero-forced fringe vertices: {zero_forced}"] if zero_forced else []
    notes += [f"coupled ears: {sorted(labels[v] for p in row for v in f.fringe_pieces[p])}"
              for row in f.forced[1]]
    return CharacterizationOutcome(f.special_form, row_space(kept, n), tuple(notes))


def well_covered_weight_basis(g: Graph) -> CharacterizationOutcome:
    """Canonical basis of the equal-weight space over maximal independent sets.

    Connected input without 4-, 5- or 6-cycles.  The 7-cycle, the triangle
    tripod and the complete graphs on up to three vertices carry exactly the
    constant weights; everything else is spanned by the piece vectors, one
    per connected piece of G[fringe].
    """
    (facts,) = family_facts(g, (4, 5, 6), connected=True)
    return wcw_basis_from_facts(facts)


def wcw_basis_from_facts(f: ComponentFacts) -> CharacterizationOutcome:
    return _basis(f, dominating=False)


def well_dominated_weight_basis(g: Graph) -> CharacterizationOutcome:
    """Canonical basis of the equal-weight space over minimal dominating sets.

    The combinations of the piece vectors whose coefficients every forced
    ear row sums to 0 (see the ``structure`` module docstring): a row of one
    ear drops its piece, and only the coupled rows, of two or more ears, go
    through a null space, in the coordinates of the pieces.
    """
    (facts,) = family_facts(g, (4, 5, 6), connected=True)
    return wwd_basis_from_facts(facts)


def wwd_basis_from_facts(f: ComponentFacts) -> CharacterizationOutcome:
    return _basis(f, dominating=True)


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
    chain_holds: bool
    diagnostics: tuple[str, ...]


def dimension_checks(g: Graph) -> DimensionReport:
    """Compare both weight-space dimensions against their closed-form counts.

    Connected input without 4-, 5- or 6-cycles; see ``dimension_report``.
    """
    (facts,) = family_facts(g, (4, 5, 6), connected=True)
    return dimension_report(
        facts, wcw_basis_from_facts(facts).basis, wwd_basis_from_facts(facts).basis
    )


def dimension_report(f: ComponentFacts, wcw: SubspaceBasis, wwd: SubspaceBasis) -> DimensionReport:
    """Compare the dimensions of the component's two bases with alpha(G[fringe])
    and with alpha(G[anchored fringe]) minus the coupling rank, the rank of the
    coupled rows on the anchored pieces; mismatches are reported, never raised.

    Each alpha is a number of components: on this family the fringe induces
    disjoint cliques, since pendants touch only non-fringe vertices (except
    in K2) and an ear's fringe neighbors lie in its own triangle.
    """
    alpha_anchored = len(induced_pieces(f.graph, f.anchored))
    alpha_fringe = len(f.fringe_pieces)
    anchored = {p for row in f.coefficients for p in row}
    coupled = [{p: 1 for p in row if p in anchored} for row in f.forced[1]]
    coupling = row_space(coupled, len(f.fringe_pieces)).dimension if coupled else 0
    general = f.special_form is SpecialForm.GENERAL
    anchored_matches = wwd.dimension == alpha_anchored - coupling
    wcw_matches = wcw.dimension == alpha_fringe
    diagnostics: list[str] = []
    if not general:
        diagnostics.append(f"special form {f.special_form.value}: the fringe counts do not "
                           "apply, the weight spaces are the constants")
    if general and not anchored_matches:
        diagnostics.append("well-dominated dimension differs from the anchored fringe independence "
                           "number minus the coupling rank")
    if general and not wcw_matches:
        diagnostics.append("well-covered dimension differs from the fringe independence number")
    return DimensionReport(
        special_form=f.special_form,
        wwd_dimension=wwd.dimension,
        anchored_fringe_size=len(f.anchored),
        anchored_independence=alpha_anchored,
        coupling_rank=coupling,
        anchored_independence_matches=anchored_matches,
        wcw_dimension=wcw.dimension,
        fringe_independence=alpha_fringe,
        fringe_independence_matches=wcw_matches,
        chain_holds=wwd.dimension <= wcw.dimension,
        diagnostics=tuple(diagnostics),
    )


__all__ = [
    "CharacterizationOutcome",
    "DimensionReport",
    "RecognitionOutcome",
    "SpecialForm",
    "dimension_checks",
    "dimension_report",
    "recognition_from_facts",
    "recognize_well_covered",
    "special_form_of",
    "wcw_basis_from_facts",
    "well_covered_weight_basis",
    "well_dominated_weight_basis",
    "wwd_basis_from_facts",
]
