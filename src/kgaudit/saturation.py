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
from .rdf import Graph, Triple
from .sparql import eval_bgp


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

    Each solution of a rule's source fills in the rule's target templates
    (``EquivalenceRule.templates``); a solution fires the rule when it adds
    a triple the graph lacks.  The input graph is left untouched.
    """
    work = graph.copy()
    add = work.add
    firings = {rule.id: 0 for rule in rules}
    for rule in rules:
        templates = rule.templates
        fired = 0
        for solution in eval_bgp(graph, rule.source_bgp):
            added = False
            for s, p, o in templates:
                try:
                    triple = Triple(
                        solution[s] if type(s) is str else s,
                        solution[p] if type(p) is str else p,
                        solution[o] if type(o) is str else o,
                    )
                except (KeyError, ValueError):
                    # a variable the source leaves unbound, or e.g. a literal
                    # bound into subject position: nothing sound to add
                    continue
                if add(triple):
                    added = True
            fired += added
        firings[rule.id] += fired
    return work, SaturationTrace(len(graph), len(work), firings)
