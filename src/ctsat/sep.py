"""Systemic effective procedure over k structures, and the classifier.

For k unified structures the basic graph of the first one is shared by
k-1 hyperstructures formed in deterministic lockstep. Same-name
substructures (attached to the same vertex or edge of the shared
skeleton) are unified after every formation step that changes them and
stored together, as one int per skeleton element that holds the
members side by side, member i in lane i (`cts.stack`); a basic-graph
element whose substructure empties in any member is removed with its
whole tuple, so the members are empty or non-empty only jointly.

The classifier runs the full pipeline and emits one of three verdicts:
satisfiable (with a verified witness), unsatisfiable (with the pipeline
stage and the 1-based tier that emptied), or classification failure
(complete hyperstructure system but no extractable witness, or a
violated internal invariant, with full diagnostics attached).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .cts import (Bits, Cts, Perm, clear_packed, concretize_lanes,
                  has_empty_lane, project_lanes, stack, unstack)
from .decompose import (cts_stage_evidence, ctf_to_cts, decompose,
                        decompose_with_plan)
from .formula import TabularFormula, bits_to_string
from .hyper import (Edge, ExtractionFailure, InvariantViolation, TierGraph,
                    Vertex, basic_graph, check_tier_disjoint,
                    route_assignment, vertex_values)
from .unify import UnifyContext, unify, unify_context

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
            "detail": self.detail,
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class HsSystem:
    """Shared pruned skeleton plus the same-name substructures.

    `structures` are the k-1 member structures. `vsub` and `esub` map a
    skeleton vertex or edge to its substructures, one per member,
    stacked in one int: member i in lane i, over the permutation of
    structures[i]. A tier j-1 edge's tuple is stored by the round of
    tier j that shifts the edge, and a repeated round keeps it when a
    shift would give it again (see `systemic_effective_procedure`).
    `context` is the window
    geometry that every same-name `unify` call on them reads
    (`unify.unify_context`, its entries shared with every context of
    the same shape); its `layout` and `perms` are the lane `Layout` of
    those ints and the members' permutations. `cts.unstack(x,
    structures)` gives the substructures back.
    """

    skeleton: TierGraph
    basic_perm: Perm
    structures: tuple[Cts, ...]
    vsub: dict[Vertex, int] = field(default_factory=dict)
    esub: dict[Edge, int] = field(default_factory=dict)
    context: UnifyContext = field(init=False, repr=False)

    def __post_init__(self):
        self.context = unify_context(tuple(s.perm for s in self.structures))


@dataclass
class SepStats:
    """Counters of one SEP run.

    `recompute_rounds` counts the repeated rounds: a round forming tier
    j runs again only when its prune removed a vertex below tier j.
    `unify_waves` sums the waves of the same-name `unify` calls actually
    made, in every round; a tuple equal to its seed (the fixpoint it
    refines) makes no call and adds no wave, and neither does a tier
    j-1 edge whose stored tuple a repeated round keeps. `early_checks`
    counts the vertex tuples handed to the early elementary check, once
    per formed vertex and round."""

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


def _unify_same_name(x: int, since: int, system: HsSystem,
                     stats: SepStats) -> int | None:
    """Same-name substructures of all members, stacked in x, unified;
    None when one of them is or becomes empty. x is cleared, and `since`
    is a unify fixpoint that x refines lane by lane (see `unify`). The
    one skip rule: no call for x equal to `since` (a non-empty fixpoint,
    so tested first) or for a lone member, whose cleared lane is its
    own fixpoint."""
    if x == since:
        return x
    lay = system.context.layout
    if has_empty_lane(x, lay):
        return None
    if lay.lanes == 1:
        return x
    result = unify(x, system.context, since=since)
    stats.unify_waves += result.waves
    return result.packed


def concordant_shift(system: HsSystem, edge: Edge,
                     stats: SepStats) -> int | None:
    """Run the shift lockstep in every member, unifying same-name
    intermediate substructures; None when the system empties on this edge."""
    j, a, b = edge
    ctx, vsub, codes = system.context, system.vsub, system.skeleton.codes
    lay = ctx.layout
    tail = vsub[(j, a)]
    x = concretize_lanes(tail, ctx.perms,
                         ((system.basic_perm.order[j + 3], b & 1),), lay)
    x = _unify_same_name(x, tail, system, stats)
    for s in range(j):
        if x is None:
            return None
        projected = project_lanes(x, (vsub[(s, c)] for c in codes(s)), lay)
        x = _unify_same_name(projected, x, system, stats)
    return x


def _prune_system(system: HsSystem, stats: SepStats) -> int | None:
    skeleton = system.skeleton
    removed, empty_tier = skeleton.prune()
    stats.pruned_vertices += removed
    system.vsub = {v: s for v, s in system.vsub.items() if skeleton.has_vertex(v)}
    system.esub = {e: s for e, s in system.esub.items() if skeleton.has_edge(e)}
    return empty_tier


def systemic_effective_procedure(
        basic: Cts, others: Sequence[Cts], formula: TabularFormula,
        early_check: bool = True,
        sink=None) -> SepResult:
    """Form the hyperstructure system tier by tier in strict lockstep.

    The basic graph doubles as the shared skeleton; every removal is
    joint (rule C is automatic). A round forms tier j: it shifts the
    tier j-1 edges, forms each tier-j vertex tuple (concretized from the
    basic vertex and unified in the first tier, the union of its
    incoming edge tuples, one OR, in later ones), early-checks it, and
    prunes. A round reads only the tuples and codes below tier j and the
    links into tier j, so it is repeated only when the prune changed a
    tier below j. A shift reads only its tail tuple and the tuples and
    codes below tier j-1, which no round of tier j re-forms, so a
    repeated round keeps the stored tuple of every tier j-1 edge left
    when `skeleton.tiers[:j-1]` is as it was when the tuples were
    computed, and re-forms, early-checks and prunes as before. The
    early elementary check can short-circuit the whole run with a
    witness.

    Every concretization and projection goes through
    `_unify_same_name`, seeded with a fixpoint its input refines, and
    every input is cleared: a concretization or a projection of a
    cleared tuple. A tier-j vertex tuple after the first tier needs no
    unify step, because a tier-wise union of unify fixpoints over the
    same permutations is one. At a fixpoint the two rules agree
    everywhere: each variable shows the same value set in every
    structure's window of it, and each pair co-tiered in two or more
    structures the same combination set in every home. A union keeps
    each line's support in the operand it came from, so it is cleared,
    and its value and combination sets are the unions of the operands'
    sets, so they still agree across structures and neither rule
    removes anything. The edge tuples are non-empty in every lane, and
    so is their union.
    """
    if not others:
        raise ValueError("need at least one non-basic structure")
    stats = SepStats()
    if any(s.is_empty for s in others):   # tier-0 seeds must be non-empty
        return SepResult("empty", empty_tier=1, stats=stats)
    skeleton = basic_graph(basic)
    system = HsSystem(skeleton=skeleton, basic_perm=basic.perm,
                      structures=tuple(others))
    whole = stack(system.structures)

    for j in range(skeleton.tier_count):
        shifted = None   # tiers[:j-1] when the tier j-1 edges were shifted
        while True:
            if j and skeleton.tiers[:j - 1] != shifted:
                shifted = skeleton.tiers[:j - 1]
                for e in list(skeleton.edges(j - 1)):
                    x = concordant_shift(system, e, stats)
                    if x is None:
                        skeleton.remove_edge(e)
                        stats.pruned_edges += 1
                    else:
                        system.esub[e] = x
            for c in skeleton.codes(j):
                v = (j, c)
                if j:
                    # every tier j-1 edge left in the skeleton was
                    # shifted in this round or an earlier one of tier
                    # j, so its substructures are stored
                    x = 0
                    for a in skeleton.up(v):
                        x |= system.esub[(j - 1, a, c)]
                else:
                    pairs = vertex_values(system.basic_perm, v)
                    x = _unify_same_name(
                        stack([s.concretize_many(pairs)
                               for s in system.structures]),
                        whole, system, stats)
                if not x:
                    skeleton.remove_vertex(v)
                    stats.pruned_vertices += 1
                    continue
                system.vsub[v] = x
                if early_check:
                    stats.early_checks += 1
                    for sub in unstack(x, system.structures):
                        bits = early_elementary_check(sub, basic, formula)
                        if bits is not None:
                            return SepResult("early-sat", witness=bits,
                                             stats=stats)
            below = skeleton.tiers[:j]
            empty_tier = _prune_system(system, stats)
            if empty_tier is not None:
                return SepResult("empty", empty_tier=empty_tier, stats=stats)
            if skeleton.tiers[:j] == below:
                break
            stats.recompute_rounds += 1
        check_tier_disjoint(system.vsub, skeleton.codes(j), j,
                            system.structures)
        _emit_tier(sink, system, j)

    return SepResult("complete", system=system, stats=stats)


def _emit_tier(sink, system: HsSystem, j: int) -> None:
    if sink is None:
        return
    parts = ["skeleton after tier %d:" % (j + 1), system.skeleton.render()]
    for r in range(len(system.structures)):
        for c in system.skeleton.codes(j):
            parts.append("member %d, vertex %d:%s" % (r + 2, j + 1, format(c, "03b")))
            parts.append(unstack(system.vsub[(j, c)], system.structures)[r].render())
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
    `ExtractionFailure`.

    The members' running intersections are one stacked int: a step down
    is one AND and one lane clear, and a dead lane is a backtrack."""
    skeleton, vsub, lay = system.skeleton, system.vsub, system.context.layout
    last = skeleton.tier_count - 1
    found: list[Bits] = []
    backtracks = 0
    rejected: list[Bits] = []

    def descend(j: int, route: list[Vertex], running: int) -> bool:
        nonlocal backtracks
        if j == 0:
            bits = route_assignment(system.basic_perm, list(reversed(route)))
            if not all(r.is_elementary() and r.the_assignment() == bits
                       for r in unstack(running, system.structures)):
                raise ExtractionFailure(
                    "route labels disagree with the running intersection")
            ok = (basic.contains_assignment(bits)
                  and all(s.contains_assignment(bits)
                          for s in system.structures)
                  and formula.evaluate(bits) == 1)
            if ok:
                found.append(bits)
            else:
                rejected.append(bits)
            return len(found) >= limit
        c = route[-1][1]
        for a in skeleton.up((j, c)):
            nxt = clear_packed(running & vsub[(j - 1, a)], lay)
            if has_empty_lane(nxt, lay):
                backtracks += 1
                continue
            if descend(j - 1, route + [(j - 1, a)], nxt):
                return True
        return False

    for c in skeleton.codes(last):
        if descend(last, [(last, c)], vsub[(last, c)]):
            break
    if not found:
        raise ExtractionFailure(
            "no verified route in a non-empty system"
            + ("; rejected candidates: %s"
               % [bits_to_string(b) for b in rejected] if rejected else ""))
    return SystemExtraction(found, backtracks, rejected)


def classify(formula: TabularFormula,
             plan=None,
             sink=None) -> Verdict:
    """Full pipeline: decompose, transform, unify, run the systemic
    effective procedure, and extract a witness.

    Every outcome is a verdict; a satisfiable verdict always carries a
    witness re-verified against the original formula (else
    `SoundnessError`). With a trace sink, the verdict's printed lines
    are its last stage.
    """
    verdict = _pipeline(formula, plan, sink)
    if verdict.kind == SATISFIABLE and formula.evaluate(verdict.witness) != 1:
        raise SoundnessError("witness %s does not satisfy the formula"
                             % bits_to_string(verdict.witness))
    if sink is not None:
        sink.write("verdict", "\n".join(verdict.lines()) + "\n")
    return verdict


def _pipeline(formula: TabularFormula, plan, sink) -> Verdict:
    from . import trace as trace_mod

    detail: dict = {}
    if sink is not None:
        sink.write("formula", trace_mod.render_formula(formula))
    if not formula.clauses:
        return Verdict(SATISFIABLE, witness=(0,) * formula.n, detail=detail)

    if plan is not None:
        ctfs, report = decompose_with_plan(formula, plan)
    else:
        ctfs, report = decompose(formula)
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
            return Verdict(UNSATISFIABLE, stage="cts",
                           tier=cts_stage_evidence(ctf), detail=detail)
        structures.append(s)
    if sink is not None:
        sink.write("structures", "\n".join(
            "S%d:\n%s" % (i + 1, s.render()) for i, s in enumerate(structures)))

    if len(structures) == 1:
        return Verdict(SATISFIABLE, witness=structures[0].sample_assignment(),
                       detail=detail)

    # the complete system is a fixpoint that every cleared input refines
    perms = tuple(s.perm for s in structures)
    unified = unify(stack(structures), unify_context(perms),
                    since=stack([Cts.complete(p) for p in perms]), sink=sink)
    detail["unify_waves"] = unified.waves
    if unified.empty:
        detail["unify_cause"] = unified.cause
        detail["structure_index"] = unified.structure_index
        return Verdict(UNSATISFIABLE, stage="unify", tier=unified.empty_tier,
                       detail=detail)
    structures = unstack(unified.packed, structures)
    basic, others = structures[0], structures[1:]
    if sink is not None:
        sink.write("unified", "\n".join(
            "S%d:\n%s" % (i + 1, s.render())
            for i, s in enumerate(structures)))
        sink.write("basic_graph", basic_graph(basic).render())

    try:
        result = systemic_effective_procedure(
            basic, others, formula, sink=sink)
    except InvariantViolation as exc:
        return _failure_verdict(detail, exc, exc.diagnostics)
    detail["sep"] = asdict(result.stats)
    if result.outcome == "empty":
        return Verdict(UNSATISFIABLE, stage="sep", tier=result.empty_tier,
                       detail=detail)
    if result.outcome == "early-sat":
        detail["early_exit"] = True
        return Verdict(SATISFIABLE, witness=result.witness, detail=detail)

    try:
        extraction = extract_jss_system(result.system, basic, formula)
    except ExtractionFailure as exc:
        return _failure_verdict(detail, exc, _failure_bundle(result.system))
    detail["backtracks"] = extraction.backtracks
    return Verdict(SATISFIABLE, witness=extraction.assignments[0],
                   detail=detail)


def _failure_verdict(detail: dict, exc: Exception,
                     diagnostics: dict) -> Verdict:
    detail["error"] = str(exc)
    detail["diagnostics"] = diagnostics
    return Verdict(CLASSIFICATION_FAILURE, detail=detail)


def _failure_bundle(system: HsSystem) -> dict:
    """Diagnostics of a complete system with no verified route: the
    skeleton, each member's structure, the vertex count of every tier,
    the last tier's vertex substructures, and one sha256 over every
    stored vertex tuple (the lines b"%d:%d:%x\\n" % (tier, code,
    stacked int), in vertex order). Its size grows as members times n:
    the vertex substructures below the last tier are left out, as
    rendering them all grows as members times vertices times n."""
    import hashlib   # here only: failures are rare, and it slows the import

    skeleton = system.skeleton
    last = skeleton.tier_count - 1
    digest = hashlib.sha256()
    for (j, c), x in sorted(system.vsub.items()):
        digest.update(b"%d:%d:%x\n" % (j, c, x))
    top = {"%d:%s" % (last + 1, format(c, "03b")):
           unstack(system.vsub[(last, c)], system.structures)
           for c in skeleton.codes(last)}
    return {"skeleton": skeleton.render(),
            "tier_vertex_counts": [len(skeleton.codes(j))
                                   for j in range(skeleton.tier_count)],
            "vertex_sha256": digest.hexdigest(),
            "members": [
                {"structure": structure.render(),
                 "last_tier_substructures": {
                     v: subs[i].render() for v, subs in top.items()}}
                for i, structure in enumerate(system.structures)]}
