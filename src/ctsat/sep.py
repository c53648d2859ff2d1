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

from .cts import (TIER_FULL, Cts, clear_packed, has_empty_lane,
                  project_lanes, stack, unstack)
from .decompose import (cts_stage_evidence, ctf_to_cts, decompose,
                        decompose_with_plan)
from .formula import Bits, TabularFormula, bits_to_string
from .hyper import (Edge, ExtractionFailure, InvariantViolation, TierGraph,
                    Vertex, basic_graph, check_tier_codes)
from .unify import UnifyContext, unify, unify_context, window_codes

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
class SepStats:
    """Counters of one SEP run, kept on its `HsSystem`.

    `unify_waves` sums the waves of the same-name `unify` calls, of the
    first-tier vertex tuples and each edge's shift. A step that removes
    nothing from its seed (the fixpoint it refines), one that empties a
    member before the first wave and a lone member's step run no wave
    and add none. `early_checks` counts the vertex tuples handed to the
    early elementary check, once per formed vertex."""

    pruned_vertices: int = 0
    pruned_edges: int = 0
    unify_waves: int = 0
    early_checks: int = 0


@dataclass
class HsSystem:
    """The state of one SEP run: the basic structure, its pruned graph
    as the shared skeleton, the same-name substructures and the run's
    counters.

    `structures` are the k-1 member structures. `vsub` and `esub` map a
    skeleton vertex or edge to its substructures, one per member,
    stacked in one int: member i in lane i, over the permutation of
    structures[i]. A tier j-1 edge's tuple is stored once, by its shift
    as tier j is formed. `context` is the window geometry that every
    same-name `unify` call on them reads (`unify.unify_context`, its
    entries shared with every context); its `layout` and `perms` are the
    lane `Layout` of those ints and the members' permutations.
    `cts.unstack(x, structures)` gives the substructures back. `stats`
    counts what the run did (`SepStats`).
    """

    skeleton: TierGraph
    basic: Cts
    structures: tuple[Cts, ...]
    vsub: dict[Vertex, int] = field(default_factory=dict)
    esub: dict[Edge, int] = field(default_factory=dict)
    stats: SepStats = field(default_factory=SepStats)
    context: UnifyContext = field(init=False, repr=False)

    def __post_init__(self):
        self.context = unify_context(tuple(s.perm for s in self.structures))


@dataclass
class SepResult:
    """How a SEP run ended, and its system, as the run left it."""

    outcome: str                      # "empty" | "early-sat" | "complete"
    system: HsSystem
    empty_tier: int | None = None     # 1-based
    witness: Bits | None = None


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
                     fix: Sequence[tuple[int, int]] = ()) -> int | None:
    """Same-name substructures of all members, stacked in x, unified;
    None when one of them is or becomes empty. x is cleared, and `since`
    is a unify fixpoint that x refines lane by lane; with `fix`, x is
    `since`, concretized on the (variable, value) pairs of `fix` in
    every member inside the call. `unify` decides every step that
    removes nothing, a lone member and an empty member with no wave
    (see `unify`); the run counts the waves of every step."""
    result = unify(x, system.context, since=since, fix=fix)
    system.stats.unify_waves += result.waves
    return result.packed


def concordant_shift(system: HsSystem, edge: Edge) -> int | None:
    """Run the shift lockstep in every member, unifying same-name
    intermediate substructures; None when the system empties on this edge.

    The shift concretizes the tail tuple on the head's new variable and
    unifies, then projects the tuple onto tiers 0, 1, ... below the
    tail in turn, unifying after each projection step.

    A projection step onto tier s passes `project_lanes` only the tier-s
    vertex tuples whose code agrees with x's value sets of the basic
    variables at positions s, s+1 and s+2, read in lane 0
    (`unify.window_codes`). x is a unify fixpoint, and each vertex tuple
    holds its code's values constant in every lane, so a dropped
    target's AND with x is empty in every lane: the projection is the
    same, and so is the step."""
    j, a, b = edge
    vsub, codes = system.vsub, system.skeleton.codes
    ctx, order = system.context, system.basic.perm.order
    tail = vsub[(j, a)]
    x = _unify_same_name(tail, tail, system,
                         fix=system.basic.perm.window_values(j + 1, b)[2:])
    for s in range(j):
        if x is None:
            break
        kept = window_codes(x, ctx, order[s:s + 3])
        projected = project_lanes(
            x, (vsub[(s, c)] for c in codes(s) if kept >> c & 1),
            ctx.layout)
        x = _unify_same_name(projected, x, system)
    return x


def _prune_system(system: HsSystem) -> int | None:
    skeleton = system.skeleton
    removed, empty_tier = skeleton.prune()
    system.stats.pruned_vertices += removed
    system.vsub = {v: s for v, s in system.vsub.items() if skeleton.has_vertex(v)}
    system.esub = {e: s for e, s in system.esub.items() if skeleton.has_edge(e)}
    return empty_tier


def systemic_effective_procedure(
        basic: Cts, others: Sequence[Cts], formula: TabularFormula,
        sink=None) -> SepResult:
    """Form the hyperstructure system tier by tier in strict lockstep.

    The basic graph doubles as the shared skeleton; every removal is
    joint (rule C is automatic). Tier j is formed in one pass: each
    tier j-1 edge is shifted once (`concordant_shift`) and keeps its
    tuple, or goes when the system empties on it; each tier-j vertex
    tuple is formed (the members concretized on the basic vertex and
    unified, in one call, in the first tier, the union of its incoming
    edge tuples, one OR, in later ones) and early-checked; the
    skeleton is pruned once; and the tier is checked once
    (`check_tier_codes`: each vertex tuple holds its code's values,
    which also makes the tier's tuples pairwise disjoint). The early
    elementary check can short-circuit the whole run with a witness.

    One prune per tier is enough. The prune keeps exactly the vertices
    on a full path from tier 0 to the last tier, and the pass removed
    only tier j-1 edges and tier-j vertices. So a kept tier-j vertex
    keeps every in-edge whose tuple is stored: the edge's tail has its
    path from tier 0 below tier j-1, which the pass left intact, and
    the head leads on to the last tier. The OR over its kept in-edges
    is the tuple formed, and forming the tier again would remove
    nothing.

    No edge is shifted again after the prune. A vertex (s, c), s < j-1,
    that tier j's prune removes lies on no skeleton path to the tail
    (j-1, a) of a kept edge (j-1, a, b): the pass removed only tier j-1
    edges and tier-j vertices, so the path from tier 0 to (s, c) is
    intact, (j, b) leads on to the last tier, and a path through (s, c)
    and (j-1, a) would be kept. It is open whether a tuple refining
    `vsub[(j-1, a)]` then has a dead AND with `vsub[(s, c)]`, which
    would make the re-shift equal: a vertex tuple is a union of edge
    tuples, and a line of the union may mix operands, so its basic codes
    need follow no skeleton path. Keeping the tuple is sound regardless.
    The re-shift has the same tail tuple and a subset of the targets; a
    projection is monotone in both, and `unify` returns the greatest
    fixpoint below its input, monotone in it, so the kept tuple contains
    the re-shift lane by lane. Kept lines lose at most a refutation:
    `empty` still needs an empty tier, and every witness is verified. No
    re-shift has been seen to change a stored tuple (0 of 133,042), and
    the tests recompute them.

    Every concretization and projection is one `unify` call
    (`_unify_same_name`), seeded with a fixpoint its input refines, and
    every input is cleared. A concretization, of the stacked members
    for a tier-0 vertex or of a shift's tail tuple, passes the fixpoint
    itself with the variables to fix, which `unify` restricts and
    clears outward from in its byte buffer before the first wave; a
    projection step passes the cleared projection of the tuple before
    it, over only the tier's vertex tuples whose code agrees with the
    tuple's value sets (see `concordant_shift`; `check_tier_codes`
    checks, as each tier completes, that every vertex tuple holds its
    code's values in every lane, which makes that exact). `unify`
    itself returns a step that removes nothing, an emptied member and a
    lone member (k = 2) with no wave, so the procedure makes no test of
    its own. A tier-j vertex tuple after the first
    tier needs no unify step, because a tier-wise union of unify
    fixpoints over the same permutations is one. At a fixpoint the two
    rules agree everywhere: each variable shows the same value set in
    every structure's window of it, and each pair co-tiered in two or
    more structures the same combination set in every home. A union
    keeps each line's support in the operand it came from, so it is
    cleared, and its value and combination sets are the unions of the
    operands' sets, so they still agree across structures and neither
    rule removes anything. The edge tuples are non-empty in every lane,
    and so is their union.

    The result carries the system on every outcome, with the run's
    counters in `system.stats`. Under a formula that no assignment
    satisfies the early check finds no witness, so every tier is formed.
    """
    if not others:
        raise ValueError("need at least one non-basic structure")
    skeleton = basic_graph(basic)
    system = HsSystem(skeleton=skeleton, basic=basic,
                      structures=tuple(others))
    if any(s.is_empty for s in others):   # tier-0 seeds must be non-empty
        return SepResult("empty", system, empty_tier=1)
    stats, whole = system.stats, stack(system.structures)

    for j in range(skeleton.tier_count):
        if j:
            for e in list(skeleton.edges(j - 1)):
                x = concordant_shift(system, e)
                if x is None:
                    skeleton.remove_edge(e)
                    stats.pruned_edges += 1
                else:
                    system.esub[e] = x
        for c in skeleton.codes(j):
            v = (j, c)
            if j:
                # every tier j-1 edge left in the skeleton was shifted,
                # so its tuple is stored
                x = 0
                for a in skeleton.up(v):
                    x |= system.esub[(j - 1, a, c)]
            else:
                x = _unify_same_name(
                    whole, whole, system,
                    fix=basic.perm.window_values(0, c))
            if not x:
                skeleton.remove_vertex(v)
                stats.pruned_vertices += 1
                continue
            system.vsub[v] = x
            # x is a unify fixpoint, so a variable has one value set in
            # every lane: lane 0 is elementary exactly when every lane
            # is, and they spell one assignment
            stats.early_checks += 1
            sub, = unstack(x, system.structures[:1])
            bits = early_elementary_check(sub, basic, formula)
            if bits is not None:
                return SepResult("early-sat", system, witness=bits)
        empty_tier = _prune_system(system)
        if empty_tier is not None:
            return SepResult("empty", system, empty_tier=empty_tier)
        check_tier_codes(system.vsub, skeleton.codes(j), j, basic.perm,
                         system.context)
        _emit_tier(sink, system, j)

    return SepResult("complete", system)


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


def extract_jss_system(system: HsSystem, formula: TabularFormula,
                       limit: int = 1) -> SystemExtraction:
    """Backward walk over the shared skeleton keeping every member's
    running intersection non-empty; each found assignment must lie in
    the system's basic structure, in every member structure, and
    satisfy the formula. Stops after `limit` assignments, so at the default the
    backtracks are the dead ends hit before the first witness.

    A complete route whose assignment fails those checks is skipped and
    reported in `rejected`; a route whose running intersections do not
    pin exactly the assignment its labels spell raises
    `ExtractionFailure`.

    A route is the codes of its vertices, from the last tier down. The
    members' running intersections are one stacked int: a step down is
    one AND and one lane clear, and a dead lane is a backtrack."""
    skeleton, vsub, lay = system.skeleton, system.vsub, system.context.layout
    last = skeleton.tier_count - 1
    found: list[Bits] = []
    backtracks = 0
    rejected: list[Bits] = []

    # depth first, with an explicit stack: an entry is a vertex's tier,
    # code and the running intersection of the route above it (None at
    # the last tier); `route` holds the codes from the last tier down to
    # the vertex taken last
    route: list[int] = []
    todo = [(last, c, None) for c in reversed(skeleton.codes(last))]
    while todo:
        j, c, running = todo.pop()
        x = vsub[(j, c)]
        if running is not None:
            x = clear_packed(running & x, lay)
            if has_empty_lane(x, lay):
                backtracks += 1
                continue
        del route[last - j:]
        route.append(c)
        if j:
            todo.extend((j - 1, a, x) for a in reversed(skeleton.up((j, c))))
            continue
        bits = system.basic.perm.assignment_of(route[::-1])
        if not all(r.is_elementary() and r.the_assignment() == bits
                   for r in unstack(x, system.structures)):
            raise ExtractionFailure(
                "route labels disagree with the running intersection")
        ok = (system.basic.contains_assignment(bits)
              and all(s.contains_assignment(bits) for s in system.structures)
              and formula.evaluate(bits) == 1)
        (found if ok else rejected).append(bits)
        if len(found) >= limit:
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

    # the complete system, every tier of every lane full, is a fixpoint
    # that every cleared input refines
    ctx = unify_context(tuple(s.perm for s in structures))
    unified = unify(stack(structures), ctx,
                    since=TIER_FULL * ctx.layout.lsb, sink=sink)
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
    detail["sep"] = asdict(result.system.stats)
    if result.outcome == "empty":
        return Verdict(UNSATISFIABLE, stage="sep", tier=result.empty_tier,
                       detail=detail)
    if result.outcome == "early-sat":
        detail["early_exit"] = True
        return Verdict(SATISFIABLE, witness=result.witness, detail=detail)

    try:
        extraction = extract_jss_system(result.system, formula)
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
