"""Whole-graph reports tying structure, characterization and oracle together.

analyze() is the entry point behind the CLI.  It builds each connected
component's facts once (cycle profile, structural tables, special form),
reads the cycle flags, the tables and the component answers (recognition
and both weight-space bases) off them, combines the weight spaces as direct
sums, runs the enumeration oracle when the graph fits the budget, and
checks the closed-form answers against the enumerated families.  The oracle
certifies each characterized basis (one probe weighing and the rank mod 2
of the difference rows) instead of reducing the family again; a basis it
cannot certify is reduced from the family as before, so a wrong one still
fails its check.  Preconditions that fail make a section inapplicable with
a reason; they never raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .generators import GeneratorConfig, generate_family
from .graphs import Graph, serialize_graph
from .linalg import SubspaceBasis, subspace_contains, subspace_equal
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    SetFamily,
    _subset_sums,
    _weigh,
    enumerate_families,
    search_families,
    weight_space_from_family,
)
from .structure import (
    CYCLE_LENGTHS,
    CharacterizationOutcome,
    ComponentFacts,
    SimplicialPartition,
    StructureSummary,
    component_facts,
    family_facts,
    outside_family,
    summarize,
)
from .weightspace import SpecialForm, dimension_report


# -- component-wise wrappers -----------------------------------------------------


def _direct_sum(
    parts: Iterable[tuple[ComponentFacts, CharacterizationOutcome]], n: int
) -> CharacterizationOutcome:
    """The component bases, each given with its component, embedded side by
    side: each row keeps its key column, relabelled.  A component spanning
    all n vertices is labelled by the identity, and its basis is the sum as
    it stands.
    """
    rows: dict[int, dict[int, int]] = {}
    notes: list[str] = []
    forms: list[SpecialForm] = []
    for f, outcome in parts:
        labels = f.labels
        notes.extend(f"component at {labels[0]}: {note}" for note in outcome.notes)
        forms.extend(outcome.special_forms)
        if len(labels) == n:
            return CharacterizationOutcome(tuple(forms), outcome.basis, tuple(notes))
        for key, row in outcome.basis.integer_rows.items():
            rows[labels[key]] = {labels[c]: x for c, x in row.items()}
    return CharacterizationOutcome(tuple(forms), SubspaceBasis(n, rows), tuple(notes))


def characterized_wcw_basis(g: Graph) -> CharacterizationOutcome:
    """Equal-weight space of maximal independent sets, any number of components."""
    return _direct_sum(((f, f.wcw) for f in family_facts(g, (4, 5, 6))), g.n)


def characterized_wwd_basis(g: Graph) -> CharacterizationOutcome:
    """Equal-weight space of minimal dominating sets, any number of components."""
    return _direct_sum(((f, f.wwd) for f in family_facts(g, (4, 5, 6))), g.n)


def _recognized(facts: Sequence[ComponentFacts]) -> RecognitionSection:
    holds = all(f.recognition is not None for f in facts)
    return RecognitionSection(True, None, holds, holds, tuple([f.recognition or "unrecognized" for f in facts]))


def recognized_status(g: Graph) -> RecognitionSection:
    """Recognition for graphs without 4- and 5-cycles, component by component."""
    return _recognized(family_facts(g, (4, 5)))


# -- report sections --------------------------------------------------------------


def _expand_bases(value):
    """A JSON tree with each SubspaceBasis in it replaced by its JSON form."""
    if isinstance(value, SubspaceBasis):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {key: _expand_bases(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_expand_bases(item) for item in value]
    return value


class _JsonSection:
    def json_tree(self) -> dict:
        """The fields in order; tuples become lists, bases stay as they are."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json_dict(self) -> dict:
        """``json_tree()`` with each basis in its JSON form."""
        return _expand_bases(self.json_tree())


@dataclass(frozen=True)
class RecognitionSection(_JsonSection):
    applicable: bool
    reason: str | None
    well_covered: bool | None
    well_dominated: bool | None
    component_clauses: tuple[str, ...]


@dataclass(frozen=True)
class CharacterizationSection(_JsonSection):
    applicable: bool
    reason: str | None
    special_forms: tuple[str, ...]
    wcw: SubspaceBasis | None
    wwd: SubspaceBasis | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class OracleSection(_JsonSection):
    independent_available: bool
    dominating_available: bool
    skip_reasons: tuple[str, ...]
    maximal_independent_count: int | None
    minimal_dominating_count: int | None
    domination: int | None
    independent_domination: int | None
    independence: int | None
    upper_domination: int | None
    well_covered: bool | None
    well_dominated: bool | None
    wcw: SubspaceBasis | None
    wwd: SubspaceBasis | None

    @classmethod
    def from_families(
        cls, ind: SetFamily | None, dom: SetFamily | None, skip_reasons: tuple[str, ...] = (),
        candidates: tuple[SubspaceBasis | None, SubspaceBasis | None] = (None, None),
    ) -> OracleSection:
        """Everything the oracle reads off the two families; None where one is missing.

        ``candidates`` are closed-form bases of the two weight spaces, which
        ``weight_space_from_family`` certifies instead of reducing again.
        """
        ind_sizes = ind.sizes() if ind is not None else ()
        dom_sizes = dom.sizes() if dom is not None else ()
        return cls(
            independent_available=ind is not None,
            dominating_available=dom is not None,
            skip_reasons=skip_reasons,
            maximal_independent_count=None if ind is None else len(ind),
            minimal_dominating_count=None if dom is None else len(dom),
            domination=min(dom_sizes) if dom_sizes else None,
            independent_domination=min(ind_sizes) if ind_sizes else None,
            independence=max(ind_sizes) if ind_sizes else None,
            upper_domination=max(dom_sizes) if dom_sizes else None,
            well_covered=None if ind is None else len(set(ind_sizes)) <= 1,
            well_dominated=None if dom is None else len(set(dom_sizes)) <= 1,
            wcw=None if ind is None else weight_space_from_family(ind, candidates[0]),
            wwd=None if dom is None else weight_space_from_family(dom, candidates[1]),
        )


@dataclass(frozen=True)
class CheckResult(_JsonSection):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class AnalysisReport(_JsonSection):
    vertex_count: int
    edge_count: int
    connected: bool
    component_members: tuple[tuple[int, ...], ...]
    cycles_present: dict[int, bool]
    structure: StructureSummary
    partition: SimplicialPartition | None
    recognition: RecognitionSection
    characterization: CharacterizationSection
    oracle: OracleSection
    checks: tuple[CheckResult, ...]

    @property
    def failed_checks(self) -> tuple[CheckResult, ...]:
        return tuple([c for c in self.checks if c.status == "fail"])

    def json_tree(self) -> dict:
        """The schema-1 report with its bases left as SubspaceBasis values,
        which the CLI writes row by row; ``to_json_dict`` expands them."""
        s = self.structure
        part = self.partition
        return {
            "schema_version": 1,
            "graph": {
                "vertex_count": self.vertex_count,
                "edge_count": self.edge_count,
                "connected": self.connected,
                "components": [list(c) for c in self.component_members],
            },
            "cycles_present": {str(k): self.cycles_present[k] for k in CYCLE_LENGTHS},
            "structure": {
                "fringe": sorted(s.fringe),
                "anchored_fringe": sorted(s.anchored_fringe),
                "zero_forced_fringe": sorted(s.zero_forced_fringe),
                "ear_partners": {str(v): list(s.ear_partners[v]) for v in sorted(s.ear_partners)},
                "confined_neighbors": {str(v): sorted(s.confined[v]) for v in sorted(s.confined)},
                "simplicial": sorted(s.simplicial),
                "simplicial_partition": None
                if part is None
                else {
                    "centers": [c for c, _ in sorted(zip(part.centers, part.cells))],
                    "cells": [sorted(cell) for _, cell in sorted(zip(part.centers, part.cells))],
                },
            },
            "recognition": self.recognition.json_tree(),
            "characterization": self.characterization.json_tree(),
            "oracle": self.oracle.json_tree(),
            "checks": [c.json_tree() for c in self.checks],
        }


# -- report assembly ---------------------------------------------------------------


def _oracle_section(
    g: Graph, budget: EnumerationBudget, characterization: CharacterizationSection
) -> OracleSection:
    families = search_families(g, budget)
    labels = ("maximal independent sets", "minimal dominating sets")
    skip_reasons = tuple([f"{label}: {f}" for label, f in zip(labels, families) if isinstance(f, BudgetExceededError)])
    ind, dom = [None if isinstance(f, BudgetExceededError) else f for f in families]
    return OracleSection.from_families(ind, dom, skip_reasons, (characterization.wcw, characterization.wwd))


def _whole_partition(facts: Sequence[ComponentFacts]) -> SimplicialPartition | None:
    """The components' simplicial partitions in whole-graph labels, if all have one."""
    if any(f.partition is None for f in facts):
        return None
    return SimplicialPartition(
        tuple([f.labels[c] for f in facts for c in f.partition.centers]),
        tuple([frozenset(f.labels[v] for v in cell) for f in facts for cell in f.partition.cells]),
    )


DIMENSION_CHECKS = ("wwd_dimension_equals_anchored_fringe", "wcw_dimension_equals_fringe_independence")


def _dimension_check_results(facts: Sequence[ComponentFacts]) -> list[CheckResult]:
    """The two dimension checks; a component whose forced rows couple ears
    states its coupling rank in the well-dominated check's detail."""
    failures: dict[str, list[str]] = {name: [] for name in DIMENSION_CHECKS}
    coupled: list[str] = []
    flagged: list[str] = []
    for f in facts:
        if f.special_form is not SpecialForm.GENERAL:
            flagged.append(f"component at {f.labels[0]} is {f.special_form.value}")
            continue
        r = dimension_report(f)
        anchored = f"anchored fringe independence {r.anchored_independence}"
        if r.coupling_rank:
            anchored += f" minus coupling rank {r.coupling_rank}"
            if r.anchored_independence_matches:
                coupled.append(f"component at {f.labels[0]}: dimension {r.wwd_dimension} = {anchored}")
        for name, holds, dimension, closed_form in (
            (DIMENSION_CHECKS[0], r.anchored_independence_matches, r.wwd_dimension, anchored),
            (DIMENSION_CHECKS[1], r.fringe_independence_matches, r.wcw_dimension,
             f"fringe independence {r.fringe_independence}"),
        ):
            if not holds:
                failures[name].append(f"component at {f.labels[0]}: dimension {dimension} vs {closed_form}")
    passed = {DIMENSION_CHECKS[0]: coupled + flagged, DIMENSION_CHECKS[1]: flagged}
    return [_check(name, not lines, "; ".join(lines or passed[name])) for name, lines in failures.items()]


def analyze(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> AnalysisReport:
    """Full report: structure, recognition, weight spaces, oracle, cross-checks."""
    facts = component_facts(g)
    structure = summarize(facts)

    recognition_reason = outside_family(facts, (4, 5))
    if recognition_reason is None:
        recognition = _recognized(facts)
    else:
        recognition = RecognitionSection(False, recognition_reason, None, None, ())

    characterization_reason = outside_family(facts, (4, 5, 6))
    if characterization_reason is None:
        wcw = _direct_sum(((f, f.wcw) for f in facts), g.n)
        wwd = _direct_sum(((f, f.wwd) for f in facts), g.n)
        forms = tuple([form.value for form in wcw.special_forms])
        # both bases give a special-form component the same note; list it once
        notes = tuple(dict.fromkeys(wcw.notes + wwd.notes))
        characterization = CharacterizationSection(True, None, forms, wcw.basis, wwd.basis, notes)
        dimension_results = _dimension_check_results(facts)
    else:
        characterization = CharacterizationSection(
            False, characterization_reason, (), None, None, ()
        )
        dimension_results = [_check(name, None, characterization_reason) for name in DIMENSION_CHECKS]

    oracle = _oracle_section(g, budget, characterization)
    checks = _build_checks(characterization, recognition, oracle) + dimension_results
    return AnalysisReport(
        vertex_count=g.n,
        edge_count=g.edge_count,
        connected=len(facts) <= 1,
        component_members=tuple([f.labels for f in facts]),
        cycles_present={k: any(k in f.cycles for f in facts) for k in CYCLE_LENGTHS},
        structure=structure,
        partition=_whole_partition(facts),
        recognition=recognition,
        characterization=characterization,
        oracle=oracle,
        checks=tuple(checks),
    )


def _check(name: str, holds: bool | None, detail: str) -> CheckResult:
    """A check that passes or fails as ``holds`` says, or is skipped when it is None;
    ``detail`` then gives the reason."""
    return CheckResult(name, "skip" if holds is None else "pass" if holds else "fail", detail)


def _build_checks(
    characterization: CharacterizationSection,
    recognition: RecognitionSection,
    oracle: OracleSection,
) -> list[CheckResult]:
    o = oracle
    if o.domination is None or o.independence is None:
        checks = [_check("domination_chain", None, "oracle unavailable")]
    else:
        chain_ok = o.domination <= o.independent_domination <= o.independence <= o.upper_domination
        chain = f"{o.domination} <= {o.independent_domination} <= {o.independence} <= {o.upper_domination}"
        checks = [_check("domination_chain", chain_ok, chain)]

    for name, recognized, enumerated in (
        ("well_covered_recognition_matches_oracle", recognition.well_covered, o.well_covered),
        ("well_dominated_recognition_matches_oracle", recognition.well_dominated, o.well_dominated),
    ):
        if recognized is None or enumerated is None:
            checks.append(_check(name, None, "recognition or oracle unavailable"))
        else:
            detail = f"recognized {recognized}, enumerated {enumerated}"
            checks.append(_check(name, recognized == enumerated, detail))

    for name, characterized, enumerated in (
        ("wcw_matches_oracle", characterization.wcw, o.wcw),
        ("wwd_matches_oracle", characterization.wwd, o.wwd),
    ):
        if characterized is None or enumerated is None:
            checks.append(_check(name, None, "characterization or oracle unavailable"))
        else:
            detail = f"dimensions {characterized.dimension} vs {enumerated.dimension}"
            checks.append(_check(name, subspace_equal(characterized, enumerated), detail))

    wcw_basis = characterization.wcw if characterization.wcw is not None else o.wcw
    wwd_basis = characterization.wwd if characterization.wwd is not None else o.wwd
    if wcw_basis is None or wwd_basis is None:
        checks.append(_check("wwd_contained_in_wcw", None, "bases unavailable"))
    else:
        detail = f"dimensions {wwd_basis.dimension} <= {wcw_basis.dimension}"
        checks.append(_check("wwd_contained_in_wcw", subspace_contains(wcw_basis, wwd_basis), detail))
    return checks


# -- randomized property sweep (CLI `proptest`) --------------------------------------


@dataclass(frozen=True)
class SweepReport:
    graphs_checked: int
    family_instances: int
    failures: tuple[str, ...]
    skips: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_property_sweep(
    cfg: GeneratorConfig, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SweepReport:
    """Generate a seeded family and assert the invariants each graph supports.

    Both oracle families of a graph come from one search
    (``enumerate_families``); a graph with a family over its budget is
    skipped with that family's error.  Every graph: cardinality and
    weighted domination chains hold (the generator itself refuses to emit a
    forbidden cycle).  Graphs without 4- and 5-cycles: recognition agrees
    with the oracle on both properties.  Additionally 6-cycle-free:
    characterized weight spaces equal the oracle spaces and nest correctly.
    Every failure and skip names its graph with the seed, the index and the
    graph6 text that replay it.
    """
    weight_rng = random.Random(cfg.seed ^ 0x5DEECE66D)
    failures: list[str] = []
    skips: list[str] = []
    checked = 0
    family_instances = 0
    recognizable = {4, 5} <= cfg.forbidden_cycles
    for index, g in enumerate(generate_family(cfg)):
        checked += 1
        # the weight a/b scaled by 12, exact since b divides 12
        weights = [12 * weight_rng.randint(0, 12) // weight_rng.randint(1, 4) for _ in range(g.n)]
        try:
            ind, dom = enumerate_families(g, budget)
        except BudgetExceededError as exc:
            skips.append(f"{_replay_label(cfg, index, g)}: {exc}")
            continue
        facts = component_facts(g) if g.n and recognizable else None
        if facts is not None and len(facts) == 1:
            family_instances += 1
        problems = _sweep_problems(ind, dom, weights, facts, 6 in cfg.forbidden_cycles)
        if problems:
            label = _replay_label(cfg, index, g)
            failures.extend(f"{label}: {problem}" for problem in problems)
    return SweepReport(checked, family_instances, tuple(failures), tuple(skips))


def _replay_label(cfg: GeneratorConfig, index: int, g: Graph) -> str:
    # graph6 covers at most 62 vertices; larger graphs list their edges
    text = f"graph6 {serialize_graph(g, 'graph6').strip()}" if g.n <= 62 else f"edges {g.edges()}"
    return f"graph {index} (seed {cfg.seed}, n={g.n}, m={g.edge_count}, {text})"


def _sweep_problems(
    ind: SetFamily, dom: SetFamily, weights: list[int],
    facts: Sequence[ComponentFacts] | None, characterized: bool,
) -> list[str]:
    """The invariants one sweep graph breaks; ``facts`` only without 4- and 5-cycles."""
    problems: list[str] = []
    if not (min(dom.sizes()) <= min(ind.sizes()) <= max(ind.sizes()) <= max(dom.sizes())):
        problems.append("domination chain violated")
    tables = _subset_sums(weights)
    ind_weights = _weigh(ind.masks, tables)
    dom_weights = _weigh(dom.masks, tables)
    if not (min(dom_weights) <= min(ind_weights) <= max(ind_weights) <= max(dom_weights)):
        problems.append("weighted domination chain violated")
    if facts is None:
        return problems
    recognized = _recognized(facts).well_covered
    wc = len(set(ind.sizes())) == 1
    wd = len(set(dom.sizes())) == 1
    if recognized != wc:
        problems.append(f"recognition says {recognized}, oracle says {wc}")
    if wc != wd:
        problems.append(f"well-covered {wc} but well-dominated {wd}")
    if not characterized:
        return problems
    wcw = _direct_sum(((f, f.wcw) for f in facts), ind.n).basis
    wwd = _direct_sum(((f, f.wwd) for f in facts), ind.n).basis
    if not subspace_equal(wcw, weight_space_from_family(ind, wcw)):
        problems.append("characterized equal-weight space (independent) is wrong")
    if not subspace_equal(wwd, weight_space_from_family(dom, wwd)):
        problems.append("characterized equal-weight space (dominating) is wrong")
    if not subspace_contains(wcw, wwd):
        problems.append("dominating weight space not inside independent one")
    return problems


__all__ = [
    "AnalysisReport",
    "CharacterizationSection",
    "CheckResult",
    "OracleSection",
    "RecognitionSection",
    "SweepReport",
    "analyze",
    "characterized_wcw_basis",
    "characterized_wwd_basis",
    "recognized_status",
    "run_property_sweep",
]
