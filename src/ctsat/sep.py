"""Systemic effective procedure over k structures, and the classifier.

For k unified structures the basic graph of the first one is shared by
k-1 hyperstructures formed in deterministic lockstep. Same-name
substructures (attached to the same vertex or edge of the shared
skeleton) are unified after every formation step; a basic-graph element
whose substructure empties in any member is removed everywhere, so the
members are empty or non-empty only jointly.

The classifier runs the full pipeline and emits one of three verdicts:
satisfiable (with a verified witness), unsatisfiable (with the pipeline
stage and the 1-based tier that emptied), or classification failure
(complete hyperstructure system but no extractable witness, or a
violated internal invariant, with full diagnostics attached).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .cts import Bits, Cts, Perm
from .decompose import (STRATEGY_ASSEMBLE, cts_stage_evidence, ctf_to_cts,
                        decompose, decompose_with_plan)
from .formula import TabularFormula, bits_to_string
from .hyper import (Edge, ExtractionFailure, InvariantViolation, TierGraph,
                    Vertex, basic_graph, check_tier_disjoint,
                    route_assignment, vertex_values)
from .unify import unify

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
CLASSIFICATION_FAILURE = "classification-failure"

EXIT_CODES = {SATISFIABLE: 10, UNSATISFIABLE: 20, CLASSIFICATION_FAILURE: 30}


class SoundnessError(AssertionError):
    """A satisfiable verdict was about to carry an unverified witness."""


@dataclass
class Verdict:
    kind: str
    witness: Bits | None = None
    stage: str | None = None
    tier: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.kind]

    def lines(self) -> list[str]:
        out = ["verdict: %s" % self.kind]
        if self.witness is not None:
            out.append("witness: %s" % bits_to_string(self.witness))
        if self.stage is not None:
            out.append("stage: %s" % self.stage)
        if self.tier is not None:
            out.append("empty-tier: %d" % self.tier)
        return out

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "witness": None if self.witness is None else bits_to_string(self.witness),
            "stage": self.stage,
            "tier": self.tier,
            "detail": _jsonable(self.detail),
        }
        return json.dumps(payload, sort_keys=True)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class MemberState:
    """One hyperstructure of the system: substructures of one structure."""

    structure: Cts
    vsub: dict[Vertex, Cts] = field(default_factory=dict)
    esub: dict[Edge, Cts] = field(default_factory=dict)


@dataclass
class HsSystem:
    """Shared pruned skeleton plus the per-member substructure maps."""

    skeleton: TierGraph
    basic_perm: Perm
    members: list[MemberState]


@dataclass
class SepStats:
    pruned_vertices: int = 0
    pruned_edges: int = 0
    unify_waves: int = 0
    early_checks: int = 0
    recompute_rounds: int = 0


@dataclass
class SepResult:
    outcome: str                      # "empty" | "early-sat" | "complete"
    system: HsSystem | None = None
    empty_tier: int | None = None     # 1-based
    witness: Bits | None = None
    stats: SepStats = field(default_factory=SepStats)


def early_elementary_check(sub: Cts, basic: Cts,
                           formula: TabularFormula) -> Bits | None:
    """If the substructure is elementary, return its assignment when the
    basic structure contains it and it satisfies the formula."""
    if not sub.is_elementary():
        return None
    bits = sub.the_assignment()
    if basic.contains_assignment(bits) and formula.evaluate(bits) == 1:
        return bits
    return None


def _unify_same_name(subs: list[Cts], stats: SepStats) -> list[Cts] | None:
    """Same-name substructures of all members, unified; None when one of
    them is or becomes empty. A lone member needs no unification."""
    if any(sub.is_empty for sub in subs):
        return None
    if len(subs) == 1:
        return subs
    result = unify(subs)
    stats.unify_waves += result.waves
    if result.empty:
        return None
    return list(result.structures)


def concordant_shift(system: HsSystem, edge: Edge,
                     stats: SepStats) -> list[Cts] | None:
    """Run the shift lockstep in every member, unifying same-name
    intermediate substructures; None when the system empties on this edge."""
    j, a, b = edge
    var = system.basic_perm.order[j + 3]
    beta = b & 1
    subs = _unify_same_name(
        [m.vsub[(j, a)].concretize(var, beta) for m in system.members], stats)
    for s in range(j):
        if subs is None:
            return None
        projected = []
        for m, sub in zip(system.members, subs):
            acc = Cts.empty(sub.perm)
            for c in sorted(system.skeleton.tiers[s]):
                acc = acc.union(m.vsub[(s, c)].intersect(sub))
            projected.append(acc)
        subs = _unify_same_name(projected, stats)
    return subs


def _drop_vertex(system: HsSystem, v: Vertex, stats: SepStats) -> None:
    system.skeleton.remove_vertex(v)
    stats.pruned_vertices += 1
    for m in system.members:
        m.vsub.pop(v, None)


def _prune_system(system: HsSystem, stats: SepStats) -> int | None:
    removed, empty_tier = system.skeleton.prune()
    stats.pruned_vertices += len(removed)
    for m in system.members:
        for v in removed:
            m.vsub.pop(v, None)
        m.esub = {e: s for e, s in m.esub.items() if system.skeleton.has_edge(e)}
    return empty_tier


def systemic_effective_procedure(
        basic: Cts, others: Sequence[Cts], formula: TabularFormula,
        early_check: bool = True,
        sink=None) -> SepResult:
    """Form the hyperstructure system tier by tier in strict lockstep.

    The basic graph doubles as the shared skeleton; every removal is
    joint (rule C is automatic). Each newly formed vertex substructure
    is screened by the early elementary check, which can short-circuit
    the whole run with a verified witness.
    """
    if not others:
        raise ValueError("need at least one non-basic structure")
    stats = SepStats()
    skeleton = basic_graph(basic)
    system = HsSystem(skeleton=skeleton, basic_perm=basic.perm,
                      members=[MemberState(s) for s in others])

    def check_new_vertex(subs: list[Cts]) -> Bits | None:
        if not early_check:
            return None
        stats.early_checks += 1
        for sub in subs:
            bits = early_elementary_check(sub, basic, formula)
            if bits is not None:
                return bits
        return None

    # tier 1
    for v in [v for v in skeleton.vertices() if v[0] == 0]:
        pairs = vertex_values(system.basic_perm, v)
        subs = _unify_same_name(
            [m.structure.concretize_many(pairs) for m in system.members],
            stats)
        if subs is None:
            _drop_vertex(system, v, stats)
            continue
        witness = check_new_vertex(subs)
        if witness is not None:
            return SepResult("early-sat", witness=witness, stats=stats)
        for m, sub in zip(system.members, subs):
            m.vsub[v] = sub
    empty_tier = _prune_system(system, stats)
    if empty_tier is not None:
        return SepResult("empty", empty_tier=empty_tier, stats=stats)
    for m in system.members:
        check_tier_disjoint(m.vsub, skeleton.tiers, 0)
    _emit_tier(sink, system, 0)

    for j in range(skeleton.tier_count - 1):
        while True:
            before = stats.pruned_vertices
            for e in list(skeleton.edges(j)):
                subs = concordant_shift(system, e, stats)
                if subs is None:
                    skeleton.remove_edge(e)
                    stats.pruned_edges += 1
                    for m in system.members:
                        m.esub.pop(e, None)
                    continue
                for m, sub in zip(system.members, subs):
                    m.esub[e] = sub
            for c in sorted(skeleton.tiers[j + 1]):
                v = (j + 1, c)
                ups = [a for a in skeleton.up(v)
                       if (j, a, c) in system.members[0].esub]
                if not ups:
                    _drop_vertex(system, v, stats)
                    continue
                unions = []
                for m in system.members:
                    acc = m.esub[(j, ups[0], c)]
                    for a in ups[1:]:
                        acc = acc.union(m.esub[(j, a, c)])
                    unions.append(acc)
                subs = _unify_same_name(unions, stats)
                if subs is None:
                    _drop_vertex(system, v, stats)
                    continue
                witness = check_new_vertex(subs)
                if witness is not None:
                    return SepResult("early-sat", witness=witness, stats=stats)
                for m, sub in zip(system.members, subs):
                    m.vsub[v] = sub
            empty_tier = _prune_system(system, stats)
            if empty_tier is not None:
                return SepResult("empty", empty_tier=empty_tier, stats=stats)
            if stats.pruned_vertices == before:
                break
            stats.recompute_rounds += 1
        for m in system.members:
            check_tier_disjoint(m.vsub, skeleton.tiers, j + 1)
        _emit_tier(sink, system, j + 1)

    return SepResult("complete", system=system, stats=stats)


def _emit_tier(sink, system: HsSystem, j: int) -> None:
    if sink is None:
        return
    parts = ["skeleton after tier %d:" % (j + 1), system.skeleton.render()]
    for r, m in enumerate(system.members, start=2):
        for c in sorted(system.skeleton.tiers[j]):
            parts.append("member %d, vertex %d:%s" % (r, j + 1, format(c, "03b")))
            parts.append(m.vsub[(j, c)].render())
    sink.write("sep_tier_%02d" % (j + 1), "\n".join(parts))


@dataclass
class SystemExtraction:
    assignments: list[Bits]
    backtracks: int
    rejected: list[Bits]


def extract_jss_system(system: HsSystem, basic: Cts,
                       formula: TabularFormula,
                       limit: int = 1) -> SystemExtraction:
    """Backward walk over the shared skeleton keeping every member's
    running intersection non-empty; each found assignment must lie in
    the basic structure, in every member structure, and satisfy the
    formula. Stops after `limit` assignments, so at the default the
    backtracks are the dead ends hit before the first witness.

    A complete route whose assignment fails those checks is skipped and
    reported in `rejected`; a route whose running intersections do not
    pin exactly the assignment its labels spell raises
    `ExtractionFailure`."""
    skeleton = system.skeleton
    last = skeleton.tier_count - 1
    found: list[Bits] = []
    backtracks = 0
    rejected: list[Bits] = []

    def descend(j: int, route: list[Vertex], runnings: list[Cts]) -> bool:
        nonlocal backtracks
        if j == 0:
            bits = route_assignment(system.basic_perm, list(reversed(route)))
            if not all(r.is_elementary() and r.the_assignment() == bits
                       for r in runnings):
                raise ExtractionFailure(
                    "route labels disagree with the running intersection")
            ok = (basic.contains_assignment(bits)
                  and all(m.structure.contains_assignment(bits)
                          for m in system.members)
                  and formula.evaluate(bits) == 1)
            if ok:
                found.append(bits)
            else:
                rejected.append(bits)
            return len(found) >= limit
        c = route[-1][1]
        for a in skeleton.up((j, c)):
            nxt = [r.intersect(m.vsub[(j - 1, a)])
                   for r, m in zip(runnings, system.members)]
            if any(x.is_empty for x in nxt):
                backtracks += 1
                continue
            if descend(j - 1, route + [(j - 1, a)], nxt):
                return True
        return False

    for c in sorted(skeleton.tiers[last]):
        if descend(last, [(last, c)],
                   [m.vsub[(last, c)] for m in system.members]):
            break
    if not found:
        raise ExtractionFailure(
            "no verified route in a non-empty system"
            + ("; rejected candidates: %s"
               % [bits_to_string(b) for b in rejected] if rejected else ""))
    return SystemExtraction(found, backtracks, rejected)


def _verified_sat(original: TabularFormula, bits: Bits, detail: dict) -> Verdict:
    if original.evaluate(bits) != 1:
        raise SoundnessError(
            "witness %s does not satisfy the formula" % bits_to_string(bits))
    return Verdict(SATISFIABLE, witness=bits, detail=detail)


def classify(formula: TabularFormula,
             strategy: str = STRATEGY_ASSEMBLE,
             plan=None,
             early_check: bool = True,
             sink=None) -> Verdict:
    """Full pipeline: canonicalize, decompose, transform, unify, run the
    systemic effective procedure, and extract a witness.

    Every outcome is a verdict; a satisfiable verdict always carries a
    witness re-verified against the original formula.
    """
    from . import trace as trace_mod

    detail: dict = {"strategy": strategy}
    # a pinned plan addresses clauses by their input positions
    canonical = formula if plan is not None else formula.canonicalize()
    if sink is not None:
        sink.write("formula", trace_mod.render_formula(canonical))
    if not canonical.clauses:
        return _verified_sat(formula, (0,) * formula.n, detail)

    if plan is not None:
        ctfs, report = decompose_with_plan(canonical, plan)
    else:
        ctfs, report = decompose(canonical, strategy)
    detail["k"] = report.k
    detail["w"] = report.w
    if sink is not None:
        sink.write("ctfs", "\n".join(
            "CTF %d:\n%s" % (i + 1, trace_mod.render_ctf(c))
            for i, c in enumerate(ctfs)))

    structures = []
    for i, ctf in enumerate(ctfs):
        s = ctf_to_cts(ctf)
        if s.is_empty:
            detail["ctf_index"] = i + 1
            if sink is not None:
                sink.write("verdict", "verdict: unsatisfiable\nstage: cts\n")
            return Verdict(UNSATISFIABLE, stage="cts",
                           tier=cts_stage_evidence(ctf), detail=detail)
        structures.append(s)
    if sink is not None:
        sink.write("structures", "\n".join(
            "S%d:\n%s" % (i + 1, s.render()) for i, s in enumerate(structures)))

    if len(structures) == 1:
        verdict = _verified_sat(formula, structures[0].sample_assignment(), detail)
        if sink is not None:
            sink.write("verdict", "\n".join(verdict.lines()) + "\n")
        return verdict

    unified = unify(structures, sink=sink)
    detail["unify_waves"] = unified.waves
    if unified.empty:
        detail["unify_cause"] = unified.cause
        detail["structure_index"] = unified.structure_index
        if sink is not None:
            sink.write("verdict", "verdict: unsatisfiable\nstage: unify\n")
        return Verdict(UNSATISFIABLE, stage="unify",
                       tier=unified.empty_tier, detail=detail)
    basic, others = unified.structures[0], unified.structures[1:]
    if sink is not None:
        sink.write("unified", "\n".join(
            "S%d:\n%s" % (i + 1, s.render())
            for i, s in enumerate(unified.structures)))
        sink.write("basic_graph", basic_graph(basic).render())

    try:
        result = systemic_effective_procedure(
            basic, others, canonical, early_check=early_check, sink=sink)
    except InvariantViolation as exc:
        return _failure_verdict(detail, exc, exc.diagnostics, sink)
    detail["sep"] = {
        "pruned_vertices": result.stats.pruned_vertices,
        "pruned_edges": result.stats.pruned_edges,
        "unify_waves": result.stats.unify_waves,
        "early_checks": result.stats.early_checks,
        "recompute_rounds": result.stats.recompute_rounds,
    }
    if result.outcome == "empty":
        if sink is not None:
            sink.write("verdict",
                       "verdict: unsatisfiable\nstage: sep\nempty-tier: %d\n"
                       % result.empty_tier)
        return Verdict(UNSATISFIABLE, stage="sep", tier=result.empty_tier,
                       detail=detail)
    if result.outcome == "early-sat":
        detail["early_exit"] = True
        verdict = _verified_sat(formula, result.witness, detail)
        if sink is not None:
            sink.write("verdict", "\n".join(verdict.lines()) + "\n")
        return verdict

    try:
        extraction = extract_jss_system(result.system, basic, canonical)
    except ExtractionFailure as exc:
        return _failure_verdict(detail, exc, _failure_bundle(result.system),
                                sink)
    detail["backtracks"] = extraction.backtracks
    verdict = _verified_sat(formula, extraction.assignments[0], detail)
    if sink is not None:
        sink.write("verdict", "\n".join(verdict.lines()) + "\n")
    return verdict


def _failure_verdict(detail: dict, exc: Exception, diagnostics: dict,
                     sink) -> Verdict:
    detail["error"] = str(exc)
    detail["diagnostics"] = diagnostics
    if sink is not None:
        sink.write("verdict", "verdict: classification-failure\n")
    return Verdict(CLASSIFICATION_FAILURE, detail=detail)


def _failure_bundle(system: HsSystem) -> dict:
    bundle = {"skeleton": system.skeleton.render(), "members": []}
    for m in system.members:
        bundle["members"].append({
            "structure": m.structure.render(),
            "vertex_substructures": {
                "%d:%s" % (v[0] + 1, format(v[1], "03b")): s.render()
                for v, s in sorted(m.vsub.items())},
        })
    return bundle
