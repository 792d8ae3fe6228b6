"""Forward chaining: materialize everything the vocabulary rules derive.

Saturating a metadata graph rewrites alternative vocabulary into the
canonical predicates the compact queries ask for, so a compact ASK over
the saturated graph answers exactly like the expanded UNION query over
the raw graph.  The loop is semi-naive: the first pass joins every rule
source against the whole graph, later passes only consider joins that
touch at least one triple derived in the previous pass.  Each source
pattern in turn is bound to those new triples, and the delta graph's
subject and predicate indexes hand it only the ones that carry its
constant subject, predicate and object; a pattern with no constant sees
them all.

Rule targets never invent terms (every target variable is bound by the
source), so saturation always terminates on finite graphs.  The pass cap
only guards against rule sets that chain rewrites; the default catalog
forbids those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .catalog import EquivalenceRule
from .rdf import Graph, Term, Triple
from .sparql import Solution, TriplePattern, Variable, eval_bgp

DEFAULT_PASS_CAP = 10


class SaturationCapExceeded(RuntimeError):
    """Still deriving new triples when the pass cap was reached."""


@dataclass(frozen=True)
class SaturationTrace:
    """What happened during one saturation run."""

    input_size: int
    output_size: int
    passes: int
    firings: Mapping[str, int]

    @property
    def derived(self) -> int:
        return self.output_size - self.input_size


def saturate(
    graph: Graph,
    rules: Sequence[EquivalenceRule],
    *,
    cap: int = DEFAULT_PASS_CAP,
) -> tuple[Graph, SaturationTrace]:
    """A new graph extended with all rule consequences, and how that went.

    The input graph is left untouched.
    """
    work = graph.copy()
    firings = {rule.id: 0 for rule in rules}
    delta = graph  # everything is new to the first pass
    passes = 0
    while delta:
        if passes >= cap:
            raise SaturationCapExceeded(
                f"saturation still derives new triples after {cap} passes; "
                "the rule set probably chains rewrites"
            )
        passes += 1
        fresh = Graph()
        for rule in rules:
            for solution in _rule_solutions(work, rule, delta, first=passes == 1):
                added = 0
                for tp in rule.target:
                    triple = _instantiate(tp, solution)
                    if triple is None or triple in work:
                        continue
                    if fresh.add(triple):
                        added += 1
                if added:
                    firings[rule.id] += 1
        delta = fresh
        work.update(fresh)
    trace = SaturationTrace(len(graph), len(work), passes, firings)
    return work, trace


def _rule_solutions(
    work: Graph, rule: EquivalenceRule, delta: Graph, first: bool
) -> Iterable[Solution]:
    if first:
        yield from eval_bgp(work, rule.source)
        return
    # A genuinely new solution must bind at least one source pattern to a
    # triple from the last pass; try each pattern in that role.
    seen: set[Solution] = set()
    for index, tp in enumerate(rule.source):
        rest = rule.source[:index] + rule.source[index + 1 :]
        for triple in delta.match(*map(_constant, tp.positions())):
            seed = _match_triple(tp, triple)
            if seed is None:
                continue
            for solution in eval_bgp(work, rest, initial=seed):
                if solution not in seen:
                    seen.add(solution)
                    yield solution


def _constant(pos: Term | Variable) -> Term | None:
    return None if isinstance(pos, Variable) else pos


def _match_triple(tp: TriplePattern, triple: Triple) -> dict[str, Term] | None:
    binding: dict[str, Term] = {}
    for pos, value in zip(tp.positions(), (triple.subject, triple.predicate, triple.object)):
        if isinstance(pos, Variable):
            if binding.get(pos.name, value) != value:
                return None
            binding[pos.name] = value
        elif pos != value:
            return None
    return binding


def _instantiate(tp: TriplePattern, solution: Mapping[str, Term]) -> Triple | None:
    def resolve(pos):
        if isinstance(pos, Variable):
            return solution.get(pos.name)
        return pos

    subject = resolve(tp.subject)
    predicate = resolve(tp.predicate)
    obj = resolve(tp.object)
    if subject is None or predicate is None or obj is None:
        return None
    try:
        return Triple(subject, predicate, obj)
    except ValueError:
        # e.g. a literal bound into subject position; nothing sound to add
        return None
