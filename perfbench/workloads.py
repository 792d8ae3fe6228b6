"""Seeded workload inputs and the score oracle.

Every input the program sees is generated here from the workload name and
the seed: YAML transcripts for the campaign and remote workloads, an
N-Triples file for the local one.  Dataset metadata is drawn from the
catalog itself: for each compact query the generator picks either the
compact pattern or one branch of its vocabulary-expanded UNION form, so
saturation and expansion both have alternative vocabulary to work on.

A fixed share of datasets hangs its two-hop metadata (creator and
contributor details, ``sd:Service`` records, ``dcat:distribution`` nodes)
off blank nodes.  The fetch route cannot follow blank nodes, so on those
datasets a campaign disagrees with the remote route; the oracle below
shows that gap as wrong scores instead of hiding it.

The oracle is the remote route's semantics, computed without the code
paths under test: ``eval_ask`` of each expanded query on the union of
everything the endpoint served, fed to ``build_result``.
"""

from __future__ import annotations

import json
import os
import random
import re

# Structure is fixed per workload and only content depends on the seed, so
# that different seeds give equally large inputs and comparable timings.
SPECS = {
    "campaign": dict(
        kind="campaign", endpoints=12, runs=3, datasets=(4, 4, 4),
        down_share=0.10, subset_share=0.30, unrelated=150, partitions=(2, 1),
    ),
    "campaign-polite": dict(
        kind="campaign", endpoints=8, runs=3, datasets=(8, 0, 0),
        down_share=0.10, subset_share=0.30, unrelated=50, partitions=(0, 0),
    ),
    "evaluate-file": dict(kind="file", datasets=50, partitions=(30, 20), linksets=6),
    "evaluate-remote": dict(kind="remote", datasets=25, unrelated=150, partitions=(2, 1)),
}
BLANK_SHARE = 0.3
SUBSET_DROP = 0.3
COMPACT_SHARE = 0.4
SATISFIED_SHARE = 0.55
# Kinds of value a free object variable gets, in fixed proportions per dataset.
VALUE_KINDS = ("iri",) * 9 + ("plain",) * 4 + ("lang",) * 3 + ("date",) * 2 + ("integer",) * 2

DATASET_CLASSES = (
    "http://www.w3.org/ns/dcat#Dataset",
    "http://rdfs.org/ns/void#Dataset",
    "http://purl.org/dc/dcmitype/Dataset",
    "http://schema.org/Dataset",
    "http://www.w3.org/ns/sparql-service-description#Dataset",
    "http://dataid.dbpedia.org/ns/core#Dataset",
)
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
VOID = "http://rdfs.org/ns/void#"
XSD = "http://www.w3.org/2001/XMLSchema#"
_SUFFIX_RE = re.compile(r"__e\d+$")


def endpoint_url(n: int) -> str:
    return f"http://ep{n:03d}.example.org/sparql"


def query_shapes(catalog, expand_extended) -> list:
    """Per compact query: its patterns and the BGP branches of its expanded form."""
    shapes = []
    for _, cq in catalog.queries():
        expanded = expand_extended(cq.query, catalog.rules).pattern
        branches = getattr(expanded, "branches", None) or (expanded,)
        shapes.append((cq.query.pattern.patterns, [b.patterns for b in branches]))
    return shapes


class Minter:
    """Fresh terms for one dataset, in the endpoint's namespace."""

    def __init__(self, rdf, rng: random.Random, base: str, label: str, blank: bool):
        self.rdf, self.rng, self.base, self.label, self.blank = rdf, rng, base, label, blank
        self.counter = 0
        self.kinds = list(VALUE_KINDS)
        rng.shuffle(self.kinds)

    def node(self, name: str):
        self.counter += 1
        if self.blank:
            return self.rdf.BlankNode(f"{self.label}x{self.counter}")
        return self.rdf.Iri(f"{self.base}/{name}/{self.counter}")

    def value(self, name: str):
        rdf, rng = self.rdf, self.rng
        kind = self.kinds[self.counter % len(self.kinds)]
        self.counter += 1
        if kind == "iri":
            return rdf.Iri(f"http://example.org/{name}/{rng.randrange(1000)}")
        if kind == "plain":
            return rdf.Literal(f"{name} {self.counter}")
        if kind == "lang":
            return rdf.Literal(f"{name} {self.counter}", language=rng.choice(("en", "de", "fr")))
        if kind == "date":
            day = f"20{rng.randrange(10, 24)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
            return rdf.Literal(day, datatype=XSD + "date")
        return rdf.Literal(str(rng.randrange(1, 10**7)), datatype=XSD + "integer")


def dataset_metadata(rdf, sparql, shapes, rng, dataset, url, label, blank, partitions):
    """(essential triples, optional groups of triples) describing one dataset.

    Essential triples (its type and its endpoint link) make it
    discoverable and are served by every run that is up.  Each optional
    group is one instantiated query shape or partition; subset runs drop
    whole groups, so no run serves half of a two-hop shape that another
    run completes.
    """
    kg = rdf.Iri(dataset)
    base = dataset.replace("/dataset/", "/meta/")
    mint = Minter(rdf, rng, base, label, blank)
    if rng.random() < 0.7:
        link = rdf.Triple(kg, rdf.Iri(VOID + "sparqlEndpoint"), rdf.Iri(url))
    else:
        link = rdf.Triple(kg, rdf.Iri("http://www.w3.org/ns/dcat#endpointURL"), rdf.Literal(url))
    essential = [rdf.Triple(kg, rdf.Iri(RDF_TYPE), rdf.Iri(rng.choice(DATASET_CLASSES))), link]
    optional = []
    # Blank datasets always carry the creator details, the one shape whose
    # answer hangs on a node the fetch walk does not follow.
    forced = {i for i, (compact, _) in enumerate(shapes) if blank and _is_creator_details(compact)}
    others = [i for i in range(len(shapes)) if i not in forced]
    chosen = forced | set(rng.sample(others, round(len(shapes) * SATISFIED_SHARE) - len(forced)))
    for index, (compact, branches) in enumerate(shapes):
        if index not in chosen:
            continue
        if index in forced or rng.random() < COMPACT_SHARE:
            branch = compact
        else:
            branch = rng.choice(branches)
        optional.append(_instantiate(rdf, sparql, branch, kg, mint))
    class_parts, property_parts = partitions
    for kind, count in (("classPartition", class_parts), ("propertyPartition", property_parts)):
        for i in range(count):
            part = rdf.Iri(f"{base}/{kind}/{i}")
            if kind == "classPartition":
                detail = rdf.Iri(VOID + "class"), rdf.Iri(f"http://example.org/class/{rng.randrange(500)}")
            else:
                detail = rdf.Iri(VOID + "property"), rdf.Iri(f"http://example.org/property/{rng.randrange(500)}")
            optional.append([
                rdf.Triple(kg, rdf.Iri(VOID + kind), part),
                rdf.Triple(part, *detail),
                rdf.Triple(part, rdf.Iri(VOID + "entities"),
                           rdf.Literal(str(rng.randrange(1, 10**6)), datatype=XSD + "integer")),
            ])
    return essential, optional


def _is_creator_details(patterns) -> bool:
    return len(patterns) == 2 and patterns[0].predicate.value == "http://purl.org/dc/terms/creator"


def _instantiate(rdf, sparql, patterns, kg, mint):
    subjects = {tp.subject.name for tp in patterns if isinstance(tp.subject, sparql.Variable)}
    binding = {"kg": kg}

    def resolve(pos):
        if not isinstance(pos, sparql.Variable):
            return pos
        if pos.name not in binding:
            name = _SUFFIX_RE.sub("", pos.name)
            binding[pos.name] = mint.node(name) if pos.name in subjects else mint.value(name)
        return binding[pos.name]

    return [rdf.Triple(resolve(tp.subject), resolve(tp.predicate), resolve(tp.object)) for tp in patterns]


def unrelated_triples(rdf, rng, host, count):
    out = []
    for i in range(count):
        subject = rdf.Iri(f"http://{host}/resource/{rng.randrange(count // 3 + 1)}")
        predicate = rdf.Iri(f"http://{host}/vocab/p{rng.randrange(12)}")
        if rng.random() < 0.5:
            obj = rdf.Iri(f"http://{host}/resource/{rng.randrange(count)}")
        else:
            obj = rdf.Literal(f"value {i}")
        out.append(rdf.Triple(subject, predicate, obj))
    return out


def _quota(rng, count, share):
    """A seeded subset of range(count) of exactly round(count * share) members."""
    return set(rng.sample(range(count), round(count * share)))


# ---------------------------------------------------------------------------
# N-Triples and YAML writing (kept independent of the program's serializer)


def _nt_term(rdf, term) -> str:
    if isinstance(term, rdf.Iri):
        return f"<{term.value}>"
    if isinstance(term, rdf.BlankNode):
        return f"_:{term.label}"
    body = term.lexical.replace("\\", "\\\\").replace('"', '\\"')
    if term.language:
        return f'"{body}"@{term.language}'
    if term.datatype:
        return f'"{body}"^^<{term.datatype}>'
    return f'"{body}"'


def _nt_lines(rdf, triples) -> list[str]:
    return [
        f"{_nt_term(rdf, t.subject)} {_nt_term(rdf, t.predicate)} {_nt_term(rdf, t.object)} ."
        for t in triples
    ]


def _write_transcript(path, rdf, endpoints):
    """endpoints: {url: [(available, timestamp, triples)]}"""
    out = ["endpoints:\n"]
    for url, runs in endpoints.items():
        out.append(f'  "{url}":\n    runs:\n')
        for available, timestamp, triples in runs:
            out.append(f"      - available: {'true' if available else 'false'}\n")
            out.append(f'        timestamp: "{timestamp}"\n')
            if available:
                out.append("        data: |\n")
                out.extend(f"          {line}\n" for line in _nt_lines(rdf, triples))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(out))


# ---------------------------------------------------------------------------
# Workload generation


def generate(name: str, seed: int, directory: str, kgaudit) -> dict:
    """Write the inputs of one workload into ``directory``; return its manifest.

    ``kgaudit`` is a namespace holding the program modules ``rdf``,
    ``sparql``, ``catalog`` and ``scoring``.  The manifest holds the input
    paths, the oracle's score per endpoint and dataset, the blank-node
    datasets and the number of triples served.
    """
    spec = SPECS[name]
    rdf, sparql = kgaudit.rdf, kgaudit.sparql
    catalog = kgaudit.catalog.default_catalog()
    shapes = query_shapes(catalog, kgaudit.catalog.expand_extended)
    oracle = Oracle(kgaudit, catalog)
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(directory, exist_ok=True)

    if spec["kind"] == "file":
        triples, datasets = [], []
        blank = _quota(rng, spec["datasets"], BLANK_SHARE)
        for d in range(spec["datasets"]):
            dataset = f"http://data{d // 50}.example.org/dataset/{d}"
            essential, optional = dataset_metadata(
                rdf, sparql, shapes, rng, dataset, endpoint_url(d // 50), f"f{d}", d in blank,
                spec["partitions"],
            )
            triples += essential + [t for group in optional for t in group]
            datasets.append(dataset)
        for d in range(spec["datasets"]):
            for k in range(spec["linksets"]):
                ls = rdf.Iri(f"http://data{d // 50}.example.org/linkset/{d}/{k}")
                other = datasets[rng.randrange(len(datasets))]
                triples += [
                    rdf.Triple(ls, rdf.Iri(RDF_TYPE), rdf.Iri(VOID + "Linkset")),
                    rdf.Triple(ls, rdf.Iri(VOID + "subjectsTarget"), rdf.Iri(datasets[d])),
                    rdf.Triple(ls, rdf.Iri(VOID + "objectsTarget"), rdf.Iri(other)),
                    rdf.Triple(ls, rdf.Iri(VOID + "triples"),
                               rdf.Literal(str(rng.randrange(1, 10**6)), datatype=XSD + "integer")),
                ]
        triples = list(dict.fromkeys(triples))
        path = os.path.join(directory, "metadata.nt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in _nt_lines(rdf, triples)))
        graph = rdf.Graph(triples)
        expected = {ds: oracle.score(graph, ds) for ds in datasets}
        return {"inputs": {"file": path}, "expected": {"": expected},
                "blank": sorted(datasets[d] for d in blank), "triples": len(triples)}

    runs = spec.get("runs", 1)
    n_endpoints = spec.get("endpoints", 1)
    if spec["kind"] == "remote":
        per_endpoint = [spec["datasets"]]
    else:
        per_endpoint = [size for size, count in zip((1, 2, 3), spec["datasets"]) for _ in range(count)]
        rng.shuffle(per_endpoint)
    total = sum(per_endpoint)
    blank = _quota(rng, total, BLANK_SHARE)
    cells = [(e, r) for e in range(n_endpoints) for r in range(runs)]
    # at most one down run per endpoint, so every endpoint is scored
    down_endpoints = rng.sample(range(n_endpoints), round(len(cells) * spec.get("down_share", 0)))
    down = {(e, rng.randrange(runs)) for e in down_endpoints}
    up_cells = [cell for cell in cells if cell not in down]
    subset = set(rng.sample(up_cells, round(len(cells) * spec.get("subset_share", 0))))

    endpoints, expected, blank_datasets, n_triples, index = {}, {}, [], 0, 0
    for e, count in enumerate(per_endpoint):
        url = endpoint_url(e)
        host = f"ep{e:03d}.example.org"
        essential, optional = [], []
        for k in range(count):
            dataset = f"http://{host}/dataset/{k}"
            ess, opt = dataset_metadata(
                rdf, sparql, shapes, rng, dataset, url, f"e{e}d{k}", index in blank,
                spec["partitions"],
            )
            if index in blank:
                blank_datasets.append(dataset)
            essential += ess
            optional += opt
            index += 1
        noise = unrelated_triples(rdf, rng, host, spec["unrelated"])
        served = []
        for r in range(runs):
            stamp = f"2024-05-{r + 1:02d}T10:{e // 60:02d}:{e % 60:02d}Z"
            if (e, r) in down:
                served.append((False, stamp, []))
                continue
            kept = [group for group in optional if (e, r) not in subset or rng.random() >= SUBSET_DROP]
            kept = [t for group in kept for t in group]
            data = list(dict.fromkeys(essential + kept + noise))
            n_triples += len(data)
            served.append((True, stamp, data))
        endpoints[url] = served
        union = rdf.Graph(t for available, _, data in served if available for t in data)
        expected[url] = {
            f"http://{host}/dataset/{k}": oracle.score(union, f"http://{host}/dataset/{k}")
            for k in range(count)
        }
    path = os.path.join(directory, "transcript.yaml")
    _write_transcript(path, rdf, endpoints)
    manifest = {"inputs": {"transcript": path}, "expected": expected,
                "blank": sorted(blank_datasets), "triples": n_triples}
    if spec["kind"] == "campaign":
        with open(os.path.join(directory, "endpoints.txt"), "w", encoding="utf-8") as handle:
            handle.write("".join(url + "\n" for url in endpoints))
        manifest["inputs"]["endpoints"] = os.path.join(directory, "endpoints.txt")
        manifest["runs"] = runs
    return manifest


class Oracle:
    """Remote-route scores: each expanded query asked of the served graph."""

    def __init__(self, kgaudit, catalog):
        self.kgaudit, self.catalog = kgaudit, catalog
        self.extended = [
            (cq.id, kgaudit.catalog.expand_extended(cq.query, catalog.rules))
            for _, cq in catalog.queries()
        ]

    def score(self, graph, dataset: str) -> str:
        """The exact score of ``dataset`` on ``graph``, as a fraction string."""
        sparql, scoring = self.kgaudit.sparql, self.kgaudit.scoring
        kg = self.kgaudit.rdf.Iri(dataset)
        outcomes = []
        for query_id, extended in self.extended:
            ok = sparql.eval_ask(graph, sparql.substitute(extended, {"kg": kg}))
            failure = None if ok else scoring.FailureKind.ANSWER_FALSE
            outcomes.append(scoring.QueryOutcome(query_id, ok, failure))
        return str(scoring.build_result(self.catalog, dataset, outcomes).score)


def save_manifest(directory: str, manifest: dict) -> None:
    tmp = os.path.join(directory, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True)
    os.replace(tmp, os.path.join(directory, "manifest.json"))
