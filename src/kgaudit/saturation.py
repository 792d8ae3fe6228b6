"""Rule application: add what the vocabulary rules derive from a graph.

Saturating a metadata graph rewrites alternative vocabulary into the
canonical predicates the compact queries ask for.  Every rule is applied
once, to the triples of the input graph only; nothing a rule derives is
fed back to the rules.

That is exactly what ``catalog.expand_extended`` encodes on the remote
route: each compact pattern matches either a published triple or the
target of one rule whose source matches published triples.  A compact ASK
over the saturated graph therefore answers like the expanded UNION query
over the raw graph, for any rule set the catalog accepts.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .catalog import EquivalenceRule
from .rdf import Graph, Term, Triple
from .sparql import TriplePattern, Variable, eval_bgp


class SaturationTrace(NamedTuple):
    """What happened during one saturation run."""

    input_size: int
    output_size: int
    firings: Mapping[str, int]

    @property
    def derived(self) -> int:
        return self.output_size - self.input_size


def saturate(
    graph: Graph, rules: Sequence[EquivalenceRule]
) -> tuple[Graph, SaturationTrace]:
    """A new graph extended with all rule consequences, and how that went.

    The input graph is left untouched.
    """
    work = graph.copy()
    firings = {rule.id: 0 for rule in rules}
    for rule in rules:
        for solution in eval_bgp(graph, rule.source_bgp):
            added = 0
            for tp in rule.target:
                triple = _instantiate(tp, solution)
                if triple is not None and work.add(triple):
                    added += 1
            if added:
                firings[rule.id] += 1
    return work, SaturationTrace(len(graph), len(work), firings)


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
