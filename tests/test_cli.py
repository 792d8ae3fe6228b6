"""CLI tests: every subcommand, exit codes, and the written report files."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from urllib.parse import quote

import pytest
import requests
import yaml

import kgaudit
from kgaudit.catalog import default_catalog, load_yaml, parse_catalog
from kgaudit import cli
from kgaudit import transport as transport_module
from kgaudit.cli import main
from kgaudit.client import discover_in_graph
from kgaudit.rdf import Iri, load_rdf, serialize_ntriples
from kgaudit.reporting import build_report, dqv_blocks, figure_files, to_csv, to_json
from kgaudit.scoring import score_datasets
from kgaudit.transport import HttpTransport, TranscriptTransport, TransportError

from helpers import (
    FIXTURES,
    catalog_vocabulary,
    counted_parse,
    dump_text,
    random_metadata_graph,
    three_hop_catalog_text,
)
from test_transport import FakeResponse, ScriptedSession, select_body

TRANSCRIPT = str(FIXTURES / "campaign.yaml")
ENDPOINTS = [
    "http://example.org/sparql",
    "http://sparse.example.org/sparql",
    "http://dead.example.org/sparql",
]


# ---------------------------------------------------------------------------
# discover


def test_discover_file(capsys):
    assert main(["discover", "--file", str(FIXTURES / "accountable.nt")]) == 0
    assert capsys.readouterr().out == "http://example.org/kg/full\n"


def test_discover_file_none_found(capsys):
    assert main(["discover", "--file", str(FIXTURES / "empty.ttl")]) == 1
    assert capsys.readouterr().out == ""


def test_discover_endpoint(capsys):
    code = main(
        ["discover", "--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT]
    )
    assert code == 0
    assert capsys.readouterr().out == "http://example.org/kg/full\n"


def test_discover_unreachable_endpoint(capsys):
    code = main(
        ["discover", "--endpoint", "http://unknown.example.org/", "--transcript", TRANSCRIPT]
    )
    assert code == 2
    assert "kgaudit:" in capsys.readouterr().err


def test_discover_missing_file(capsys):
    assert main(["discover", "--file", "/no/such/file.nt"]) == 2
    assert "kgaudit:" in capsys.readouterr().err


def test_discover_takes_no_catalog(capsys):
    # discovery reads no catalog, so a catalog option would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["discover", "--file", str(FIXTURES / "accountable.nt"), "--catalog", "/no/such.yaml"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --catalog" in capsys.readouterr().err


@pytest.fixture()
def two_runs(tmp_path) -> str:
    """A transcript whose one endpoint serves a different dataset per run."""
    runs = [
        {"timestamp": f"2024-05-0{n + 1}T10:00:00Z", "data": (FIXTURES / name).read_text("utf-8")}
        for n, name in enumerate(("publisher_only.nt", "accountable.nt"))
    ]
    path = tmp_path / "two_runs.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {ENDPOINTS[0]: {"runs": runs}}}), "utf-8")
    return str(path)


@pytest.mark.parametrize(
    "run, listed", [("0", "sparse"), ("1", "full"), ("7", "full")], ids=["first", "second", "past"]
)
def test_discover_replays_the_chosen_run(capsys, two_runs, run, listed):
    argv = ["discover", "--endpoint", ENDPOINTS[0], "--transcript", two_runs, "--run", run]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"http://example.org/kg/{listed}\n"


def test_evaluate_scores_the_chosen_run_with_its_stamp(tmp_path, capsys, two_runs):
    assert main(["evaluate", "--file", str(FIXTURES / "accountable.nt")]) == 0
    served = capsys.readouterr().out
    outputs = []
    for run in ("1", "7"):  # a run past the last recorded one replays the last
        out = tmp_path / run
        argv = ["evaluate", "--endpoint", ENDPOINTS[0], "--transcript", two_runs, "--run", run]
        assert main(argv + ["--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == served
    doc = json.loads(outputs[0][1]["report.json"])
    assert doc["generated_at"] == "2024-05-02T10:00:00Z"
    assert list(doc["endpoints"][ENDPOINTS[0]]["datasets"]) == ["http://example.org/kg/full"]


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_file_single_dataset_prints_bare_percent(capsys):
    assert main(["evaluate", "--file", str(FIXTURES / "publisher_only.nt")]) == 0
    assert capsys.readouterr().out == "3.3%\n"


@pytest.mark.parametrize("name", ["dataset_pair.nt", "dataset_pair.ttl"])
def test_evaluate_file_with_a_byte_order_mark_scores_like_the_plain_file(tmp_path, capsys, name):
    assert main(["evaluate", "--file", str(FIXTURES / name)]) == 0
    plain = capsys.readouterr().out
    marked = tmp_path / name
    marked.write_text("\ufeff" + (FIXTURES / name).read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["evaluate", "--file", str(marked)]) == 0
    assert capsys.readouterr().out == plain


def test_evaluate_file_multiple_datasets_tabulates(capsys):
    code = main(
        [
            "evaluate",
            "--file",
            str(FIXTURES / "accountable.nt"),
            "--dataset",
            "http://example.org/kg/full",
            "--dataset",
            "http://example.org/kg/absent",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "100.0%\thttp://example.org/kg/full\n0.0%\thttp://example.org/kg/absent\n"
    )


@pytest.mark.parametrize(
    "source",
    [
        ["--file", str(FIXTURES / "accountable.nt")],
        ["--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT],
    ],
    ids=["file", "endpoint"],
)
def test_evaluate_scores_a_repeated_dataset_once(source, tmp_path, capsys, monkeypatch):
    from kgaudit.transport import TranscriptTransport

    asked = []
    query = TranscriptTransport.query

    def counting(self, url, q, **kwargs):
        asked.append(q)
        return query(self, url, q, **kwargs)

    monkeypatch.setattr(TranscriptTransport, "query", counting)

    def evaluate(out, *datasets):
        argv = ["evaluate", *source, "--out", str(out)]
        for dataset in datasets:
            argv += ["--dataset", dataset]
        assert main(argv) == 0
        return capsys.readouterr().out

    full = "http://example.org/kg/full"
    once = evaluate(tmp_path / "once", full)
    asked_once = len(asked)
    assert evaluate(tmp_path / "twice", full, full) == once == "100.0%\n"
    assert len(asked) == 2 * asked_once
    assert (tmp_path / "twice" / "report.csv").read_bytes().count(b"\r\n") == 2
    aggregates = [
        json.loads((tmp_path / name / "report.json").read_text())["aggregates"]
        for name in ("once", "twice")
    ]
    assert aggregates[0] == aggregates[1]


def test_evaluate_keeps_the_first_order_of_repeated_datasets(capsys):
    full, absent = "http://example.org/kg/full", "http://example.org/kg/absent"
    argv = ["evaluate", "--file", str(FIXTURES / "accountable.nt")]
    for dataset in (full, absent, full, absent):
        argv += ["--dataset", dataset]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"100.0%\t{full}\n0.0%\t{absent}\n"


def test_evaluate_endpoint_remote_route(capsys):
    code = main(
        ["evaluate", "--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT]
    )
    assert code == 0
    assert capsys.readouterr().out == "100.0%\n"


def _count_requests(monkeypatch) -> list:
    """Record every query the CLI's transcript transport is asked."""
    from kgaudit.transport import TranscriptTransport

    sent = []

    class Counting(TranscriptTransport):
        def query(self, url, query, **kwargs):
            sent.append(query)
            return super().query(url, query, **kwargs)

    monkeypatch.setattr(cli, "TranscriptTransport", Counting)
    return sent


def _one_run(path, url: str, data: str) -> str:
    path.write_text(yaml.safe_dump({"endpoints": {url: {"runs": [{"data": data}]}}}))
    return str(path)


@pytest.mark.parametrize("count", [1, 2, 9])
def test_evaluate_endpoint_sends_one_request_per_query(tmp_path, capsys, monkeypatch, count):
    url = "http://many.example.org/sparql"
    data = "".join(
        f"<http://many.example.org/kg/{index}> <{predicate}> <{obj}> .\n"
        for index in range(count)
        for predicate, obj in (
            ("http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://rdfs.org/ns/void#Dataset"),
            ("http://rdfs.org/ns/void#sparqlEndpoint", url),
            ("http://purl.org/dc/terms/publisher", "http://many.example.org/acme"),
        )
    )
    sent = _count_requests(monkeypatch)
    path = _one_run(tmp_path / "many.yaml", url, data)
    assert main(["evaluate", "--endpoint", url, "--transcript", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == count
    # one discovery request, then one per catalog query, whatever the count
    assert len(sent) == 1 + len(list(default_catalog().queries())) == 34


def test_evaluate_endpoint_scores_a_named_dataset_it_does_not_describe(
    tmp_path, capsys, monkeypatch
):
    url = "http://quiet.example.org/sparql"
    kg, other = "http://quiet.example.org/kg", "http://quiet.example.org/other"
    data = (FIXTURES / "publisher_only.nt").read_text().replace("http://example.org/kg/sparse", kg)
    nt = tmp_path / "quiet.nt"
    nt.write_text(data)
    path = _one_run(tmp_path / "quiet.yaml", url, data)
    assert main(["discover", "--endpoint", url, "--transcript", path]) == 1
    assert main(["discover", "--file", str(nt)]) == 0  # typed, but not linked to the endpoint
    capsys.readouterr()
    sent = _count_requests(monkeypatch)
    argv = ["evaluate", "--endpoint", url, "--transcript", path]
    assert main(argv + ["--dataset", kg, "--dataset", other]) == 0
    assert capsys.readouterr().out == f"3.3%\t{kg}\n0.0%\t{other}\n"
    assert len(sent) == 33
    assert main(["evaluate", "--file", str(nt), "--dataset", kg]) == 0
    assert capsys.readouterr().out == "3.3%\n"


def test_evaluate_nothing_to_score(capsys):
    assert main(["evaluate", "--file", str(FIXTURES / "empty.ttl")]) == 1
    assert "no datasets" in capsys.readouterr().err


def test_evaluate_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    path = FIXTURES / "publisher_only.nt"
    assert main(["evaluate", "--file", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "3.3%\n"
    assert {p.name for p in out.iterdir()} == {"report.json", "report.csv", "report.nt"}
    doc = json.loads((out / "report.json").read_text())
    datasets = doc["endpoints"]["file:" + quote(str(path))]["datasets"]
    assert datasets["http://example.org/kg/sparse"]["score"]["percent"] == "3.3%"
    assert (out / "report.csv").read_bytes().count(b"\r\n") == 2  # header + one row


def test_evaluate_file_reports_do_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    names = ("report.json", "report.csv", "report.nt")
    reports = []
    for place in ("here", "somewhere/else/entirely"):
        cwd = tmp_path / place
        (cwd / "data").mkdir(parents=True)
        (cwd / "data" / "kg.nt").write_bytes((FIXTURES / "accountable.nt").read_bytes())
        monkeypatch.chdir(cwd)
        assert main(["evaluate", "--file", "data/kg.nt", "--out", "out"]) == 0
        reports.append([(cwd / "out" / n).read_bytes() for n in names])
    assert reports[0] == reports[1]
    assert b'"file:data/kg.nt"' in reports[0][0]


def test_a_failed_report_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["evaluate", "--file", str(FIXTURES / "accountable.nt"), "--out", str(out)]
    assert main(argv) == 0
    before = (out / "report.csv").read_bytes()
    # a lone surrogate cannot be encoded, so writing it fails part way
    monkeypatch.setattr(cli, "to_csv", lambda report, catalog: "endpoint,dataset\r\n\ud800")
    assert main(argv) == 2
    assert "surrogate" in capsys.readouterr().err
    assert (out / "report.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json", "report.nt"]


def _all_fixtures(tmp_path) -> str:
    """Every N-Triples fixture in one file: five datasets under one source."""
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.nt")))
    (tmp_path / "fixtures.nt").write_text(text, encoding="utf-8")
    return str(tmp_path / "fixtures.nt")


@pytest.mark.parametrize("twice", [False, True], ids=["as-scored", "dataset-listed-twice"])
@pytest.mark.parametrize("command", ["evaluate", "campaign"])
def test_the_streamed_report_nt_is_the_dqv_text(command, twice, tmp_path, monkeypatch, capsys):
    # The CLI writes report.nt block by block; the file holds exactly the
    # text the DQV blocks of the report it wrote join to.  With ``twice``, each
    # endpoint lists its first dataset again, scored like another dataset:
    # the report refuses that, and the command writes no report.nt.
    written = []
    relisted = {}

    def recording(report, catalog):
        if twice:
            results = [result for _, result in report.rows()]
            for endpoint, rs in report.results.items():
                other = next(r for r in results if r.outcomes != rs[0].outcomes)
                relisted[endpoint] = (*rs, other._replace(dataset=rs[0].dataset))
            report = report._replace(results=relisted)
        written.append((report, catalog))
        return dqv_blocks(report, catalog)

    monkeypatch.setattr(cli, "dqv_blocks", recording)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--file", _all_fixtures(tmp_path), "--out", str(out)]
    else:
        argv = ["campaign", *ENDPOINTS, "--transcript", TRANSCRIPT, "--delay", "0"]
        argv += ["--out", str(out)]
    if twice:
        assert main(argv) == 2
        assert written == []
        endpoint, rows = next(iter(relisted.items()))
        refusal = f"kgaudit: endpoint {endpoint!r} lists dataset {rows[0].dataset!r} twice\n"
        assert capsys.readouterr().err == refusal
        assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]
        return
    assert main(argv) == 0
    [(report, catalog)] = written
    text = "".join(dqv_blocks(report, catalog))
    assert (out / "report.nt").read_bytes() == text.encode("utf-8")
    lines = text.splitlines()
    assert lines == sorted(set(lines))


def test_a_report_nt_block_that_fails_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["evaluate", "--file", str(FIXTURES / "accountable.nt"), "--out", str(out)]
    assert main(argv) == 0
    before = (out / "report.nt").read_bytes()

    def failing(report, catalog):
        yield next(dqv_blocks(report, catalog))
        assert (out / "report.nt.tmp").exists()  # the first block went to the new file
        raise ValueError("block two failed")

    monkeypatch.setattr(cli, "dqv_blocks", failing)
    assert main(argv) == 2
    assert "block two failed" in capsys.readouterr().err
    assert (out / "report.nt").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json", "report.nt"]


# Line count and SHA-256 of the report.json that `evaluate --file` writes
# for every N-Triples fixture at once (five datasets, one file: source),
# recorded once its stamp was empty and it carried no saturation block,
# and again each time the catalog hash it holds changed: once made from
# canonical JSON, once without node labels.
EVALUATE_FILE_JSON = (2964, "5fd89c18ebb47ae66b753b112bc1959b3495f954f99faf442d718cd2fb98f100")


def test_evaluate_file_report_json_is_pinned(tmp_path, monkeypatch, capsys):
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.nt")))
    (tmp_path / "fixtures.nt").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", "--file", "fixtures.nt", "--out", "out"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    out = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert (out.count("\n"), hashlib.sha256(out.encode("utf-8")).hexdigest()) == EVALUATE_FILE_JSON
    # the file is scored by expansion, so nothing is saturated and counted
    assert "saturation" not in json.loads(out)["endpoints"]["file:fixtures.nt"]


def test_evaluate_file_reads_no_clock(tmp_path, monkeypatch, capsys):
    # a report's stamp is its newest run's, and a file has no run
    def clock():
        pytest.fail("evaluate --file read the clock")

    monkeypatch.setattr(transport_module, "utcnow", clock)
    out = tmp_path / "out"
    assert main(["evaluate", "--file", str(FIXTURES / "accountable.nt"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["generated_at"] == ""
    assert 'generatedAt> "" .' in (out / "report.nt").read_text()


def test_evaluate_endpoint_report_uses_run_timestamp(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "evaluate",
            "--endpoint",
            ENDPOINTS[0],
            "--transcript",
            TRANSCRIPT,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["generated_at"] == "2024-05-01T10:00:00Z"


def test_evaluate_endpoint_replay_does_not_read_the_clock(tmp_path, capsys, monkeypatch):
    # the replayed run records no timestamp, so the report has none
    doc = yaml.safe_load(Path(TRANSCRIPT).read_text(encoding="utf-8"))
    del doc["endpoints"][ENDPOINTS[0]]["runs"][0]["timestamp"]
    path = tmp_path / "unstamped.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argv = ["evaluate", "--endpoint", ENDPOINTS[0], "--transcript", str(path)]
    read, outputs = [], []
    for name, now in (("a", "2030-01-01T00:00:00Z"), ("b", "2031-06-15T12:30:00Z")):
        monkeypatch.setattr(transport_module, "utcnow", lambda now=now: read.append(now) or now)
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert read == []
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1]["report.json"])["generated_at"] == ""


# ---------------------------------------------------------------------------
# the request layer in front of a live endpoint


@pytest.mark.parametrize("command, requests", [("discover", 1), ("evaluate", 34)])
def test_endpoint_commands_recover_from_one_retryable_failure(
    monkeypatch, capsys, command, requests
):
    argv = [command, "--endpoint", ENDPOINTS[0]]
    assert main(argv + ["--transcript", TRANSCRIPT]) == 0
    clean = capsys.readouterr().out
    built = []

    class FlakyOnce(TranscriptTransport):
        """Stands in for the HTTP transport: its first request meets a 503."""

        def __init__(self, *, timeout):
            super().__init__(TRANSCRIPT)
            self.attempts = 0
            built.append(self)

        def query(self, url, query, **kwargs):
            self.attempts += 1
            if self.attempts == 1:
                raise TransportError("http", "status 503", retryable=True)
            return super().query(url, query, **kwargs)

        def close(self):
            pass

    monkeypatch.setattr(transport_module, "HttpTransport", FlakyOnce)
    assert main(argv) == 0
    assert capsys.readouterr().out == clean
    assert [t.attempts for t in built] == [requests + 1]


FULL_KG_BODY = select_body({"kg": {"type": "uri", "value": "http://example.org/kg/full"}})


def test_the_timeout_option_reaches_the_wire(monkeypatch, capsys):
    session = ScriptedSession([FakeResponse(200, FULL_KG_BODY)])
    monkeypatch.setattr(requests, "Session", lambda: session)
    assert main(["discover", "--endpoint", ENDPOINTS[0], "--timeout", "7.5"]) == 0
    assert capsys.readouterr().out == "http://example.org/kg/full\n"
    assert session.timeouts == [7.5]
    assert session.closed


def test_the_timeout_variable_reaches_the_wire(monkeypatch, capsys):
    monkeypatch.setenv("KGAUDIT_TIMEOUT", "7.5")
    session = ScriptedSession([FakeResponse(200, FULL_KG_BODY)])
    monkeypatch.setattr(
        transport_module, "HttpTransport", lambda timeout: HttpTransport(session, timeout=timeout)
    )
    assert main(["discover", "--endpoint", ENDPOINTS[0]]) == 0
    assert capsys.readouterr().out == "http://example.org/kg/full\n"
    assert session.timeouts == [7.5]


def test_evaluate_endpoint_closes_its_session_when_discovery_fails(monkeypatch, capsys):
    session = ScriptedSession([FakeResponse(404)])
    monkeypatch.setattr(
        transport_module, "HttpTransport", lambda timeout: HttpTransport(session, timeout=timeout)
    )
    assert main(["evaluate", "--endpoint", ENDPOINTS[0]]) == 2
    assert "status 404" in capsys.readouterr().err
    assert session.calls == ["get"]
    assert session.closed


# ---------------------------------------------------------------------------
# campaign


def test_campaign_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["campaign", *ENDPOINTS, "--transcript", TRANSCRIPT, "--delay", "0", "--out", str(out)]
    )
    assert code == 0
    summary = capsys.readouterr().out.splitlines()
    assert summary == [
        "100.0%\thttp://example.org/kg/full\thttp://example.org/sparql",
        "3.3%\thttp://example.org/kg/sparse\thttp://sparse.example.org/sparql",
        "0.0%\thttp://dead.example.org/sparql\thttp://dead.example.org/sparql",
    ]
    names = {p.name for p in out.iterdir()}
    assert names == {
        "report.json",
        "report.csv",
        "report.nt",
        "bars.tsv",
        "bars.svg",
        "boxplot.tsv",
        "boxplot.svg",
        "radar.tsv",
        "radar.svg",
    }
    doc = json.loads((out / "report.json").read_text())
    assert doc["generated_at"] == "2024-05-03T10:00:00Z"
    sparse = doc["endpoints"][ENDPOINTS[1]]["datasets"]["http://example.org/kg/sparse"]
    assert sparse["score"]["fraction"] == "1/30"
    assert len(doc["runs"]) == 9  # 3 endpoints x 3 runs
    assert doc["aggregates"]["datasets"]["root"]["median"]["fraction"] == "1/30"


def test_campaign_report_files_are_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            main(
                [
                    "campaign",
                    *ENDPOINTS,
                    "--transcript",
                    TRANSCRIPT,
                    "--delay",
                    "0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    for name in ("report.json", "report.csv", "report.nt", "bars.tsv", "boxplot.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_campaign_replay_does_not_read_the_clock(tmp_path, capsys, monkeypatch):
    # the transcript has no down.example.org, and no stamp can be replayed for it
    argv = ["campaign", *ENDPOINTS[:2], "http://down.example.org/sparql"]
    argv += ["--transcript", TRANSCRIPT, "--delay", "0"]
    outputs = []
    for name, now in (("a", "2030-01-01T00:00:00Z"), ("b", "2031-06-15T12:30:00Z")):
        monkeypatch.setattr(transport_module, "utcnow", lambda now=now: now)
        out, journal = tmp_path / name, tmp_path / f"{name}.jsonl"
        assert main(argv + ["--out", str(out), "--journal", str(journal)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        # the workers append runs in whatever order they finish them
        lines = sorted(journal.read_bytes().splitlines(keepends=True))
        outputs.append((capsys.readouterr().out, lines, files))
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0][2]["report.json"])
    assert doc["generated_at"] == "2024-05-03T10:00:00Z"
    down = [r["timestamp"] for r in doc["runs"] if r["endpoint"].startswith("http://down.")]
    assert down == ["", "", ""]


def test_campaign_journal_resume(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    args = [
        "campaign",
        *ENDPOINTS,
        "--transcript",
        TRANSCRIPT,
        "--delay",
        "0",
        "--journal",
        str(journal),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    recorded = journal.read_bytes()
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert journal.read_bytes() == recorded


def test_a_resumed_campaign_never_parses_transcript_data(tmp_path, capsys, monkeypatch):
    doc = yaml.safe_load(Path(TRANSCRIPT).read_text(encoding="utf-8"))
    for spec in doc["endpoints"].values():
        for run in spec["runs"]:
            run["data"] = "<only-a-subject>"
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text(yaml.safe_dump(doc), encoding="utf-8")
    journal = tmp_path / "journal.jsonl"
    args = ["campaign", *ENDPOINTS, "--delay", "0", "--journal", str(journal)]
    outputs, parsed = [], []
    for transcript, out in ((TRANSCRIPT, "valid"), (str(malformed), "malformed")):
        parsed.append(counted_parse(monkeypatch, transport_module))
        assert main(args + ["--transcript", transcript, "--out", str(tmp_path / out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert parsed[0] and parsed[1] == []
    assert outputs[0] == outputs[1]
    # without the journal, the same transcript is refused at its first query
    assert main(args[:-2] + ["--transcript", str(malformed), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kgaudit: {malformed}: endpoint {ENDPOINTS[0]} run 0: line 1: ")


@pytest.mark.parametrize("name", ["missing", "not-yaml"])
def test_a_resumed_campaign_never_reads_its_transcript(tmp_path, capsys, monkeypatch, name):
    transcript = tmp_path / f"{name}.yaml"
    if name == "not-yaml":
        transcript.write_text("endpoints: [unclosed\n", encoding="utf-8")
    refusal = {
        "missing": f"kgaudit: [Errno 2] No such file or directory: '{transcript}'\n",
        "not-yaml": f"kgaudit: {transcript}: not valid YAML: ",
    }[name]
    read = []

    def counting(stream):
        read.append(stream)
        return load_yaml(stream)

    monkeypatch.setattr(transport_module, "load_yaml", counting)
    journal = tmp_path / "journal.jsonl"
    args = ["campaign", *ENDPOINTS, "--delay", "0", "--journal", str(journal)]
    # a fresh campaign is refused at its first cell, and its journal keeps only its header
    assert main(args + ["--transcript", str(transcript)]) == 2
    assert capsys.readouterr().err.startswith(refusal)
    assert len(journal.read_text(encoding="utf-8").splitlines()) == 1

    def campaign(source: str, out: str) -> tuple:
        read.clear()
        assert main(args + ["--transcript", source, "--out", str(tmp_path / out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())}
        return capsys.readouterr().out, files, journal.read_bytes()

    # the next run resumes from that journal and fills it; a rerun reads no transcript
    fresh = campaign(TRANSCRIPT, "fresh")
    assert campaign(str(transcript), "resumed") == fresh
    assert read == []
    # without the journal, the same transcript is refused with today's message
    assert main(args[:-2] + ["--transcript", str(transcript)]) == 2
    assert capsys.readouterr().err.startswith(refusal)


def test_a_failing_campaign_names_its_first_failed_cell(tmp_path, capsys):
    # run 0 of the first two endpoints serves malformed data; four workers
    # audit both at once, and whichever fails first, the first endpoint's
    # run 0 is the one named
    doc = yaml.safe_load(Path(TRANSCRIPT).read_text(encoding="utf-8"))
    for url in ENDPOINTS[:2]:
        doc["endpoints"][url]["runs"][0]["data"] = "<only-a-subject>"
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argv = ["campaign", *ENDPOINTS, "--transcript", str(path), "--workers", "4", "--delay", "0"]
    named = f"kgaudit: {path}: endpoint {ENDPOINTS[0]} run 0: line 1: "
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switching often, so cells finish in any order
    try:
        for _ in range(40):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(named)
    finally:
        sys.setswitchinterval(switch)


def test_campaign_parses_each_queried_text_once(tmp_path, capsys, monkeypatch):
    # every text repeats within one endpoint only: cells of one endpoint
    # never run at once, so no two workers can meet one unparsed text
    doc = yaml.safe_load(Path(TRANSCRIPT).read_text(encoding="utf-8"))
    full, sparse = (doc["endpoints"][url]["runs"][0]["data"] for url in ENDPOINTS[:2])
    down = {"available": False, "data": "<only-a-subject>"}
    runs = {
        ENDPOINTS[0]: [{"data": full}, {"data": full}, down],
        ENDPOINTS[1]: [down, {"data": sparse}],
        ENDPOINTS[2]: [down],
        "http://empty.example.org/sparql": [{}],
    }
    path = tmp_path / "repeated.yaml"
    path.write_text(yaml.safe_dump({"endpoints": {u: {"runs": r} for u, r in runs.items()}}))
    parsed = counted_parse(monkeypatch, transport_module)
    args = ["campaign", *runs, "--transcript", str(path), "--delay", "0", "--workers", "4"]
    assert main(args) == 0
    assert sorted(parsed) == sorted([full, sparse, ""])
    assert capsys.readouterr().out.splitlines()[:2] == [
        "100.0%\thttp://example.org/kg/full\thttp://example.org/sparql",
        "3.3%\thttp://example.org/kg/sparse\thttp://sparse.example.org/sparql",
    ]


def test_campaign_endpoints_file(tmp_path, capsys):
    listing = tmp_path / "endpoints.txt"
    listing.write_text("# comment\n\n" + ENDPOINTS[0] + "\n")
    code = main(
        ["campaign", "--endpoints-file", str(listing), "--transcript", TRANSCRIPT, "--delay", "0"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "100.0%\thttp://example.org/kg/full\thttp://example.org/sparql"
    ]


def test_campaign_endpoints_file_with_a_byte_order_mark(tmp_path, capsys):
    listing = tmp_path / "endpoints.txt"
    listing.write_text("\ufeff" + ENDPOINTS[0] + "\n", encoding="utf-8")
    code = main(
        ["campaign", "--endpoints-file", str(listing), "--transcript", TRANSCRIPT, "--delay", "0"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "100.0%\thttp://example.org/kg/full\thttp://example.org/sparql"
    ]


def test_campaign_requires_endpoints(capsys):
    # validation fires before the transcript is read: its path does not
    # exist, yet the complaint is about the missing endpoints
    assert main(["campaign", "--transcript", "/does/not/exist.yaml"]) == 2
    assert "at least one endpoint" in capsys.readouterr().err


def test_campaign_refuses_a_malformed_transcript(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text('endpoints:\n  "http://e.org/":\n    runs:\n      - available: "false"\n')
    assert main(["campaign", "http://e.org/", "--transcript", str(bad), "--delay", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kgaudit: {bad}: endpoint http://e.org/ run 0: available:")


def test_campaign_refuses_a_malformed_endpoint(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    argv = [
        "campaign",
        ENDPOINTS[0],
        "not a url",
        "--transcript",
        TRANSCRIPT,
        "--runs",
        "1",
        "--delay",
        "0",
        "--journal",
        str(journal),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("kgaudit: endpoint 'not a url': ")
    assert not journal.exists()


def test_campaign_requires_positive_runs(capsys):
    assert main(["campaign", ENDPOINTS[0], "--transcript", TRANSCRIPT, "--runs", "0"]) == 2
    assert "--runs" in capsys.readouterr().err


def test_campaign_has_no_run_option(capsys):
    # a campaign replays every run; --run only picks one for discover/evaluate
    with pytest.raises(SystemExit) as exc:
        main(["campaign", ENDPOINTS[0], "--transcript", TRANSCRIPT, "--run", "1"])
    assert exc.value.code == 2
    assert "--run" in capsys.readouterr().err


def test_campaign_rejects_bad_timeout(capsys):
    code = main(
        ["campaign", ENDPOINTS[0], "--transcript", TRANSCRIPT, "--timeout", "0"]
    )
    assert code == 2
    assert "timeout" in capsys.readouterr().err


def test_campaign_radar_pair(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "campaign",
            *ENDPOINTS,
            "--transcript",
            TRANSCRIPT,
            "--delay",
            "0",
            "--out",
            str(out),
            "--radar",
            "http://example.org/kg/sparse",
            "http://example.org/kg/full",
        ]
    )
    assert code == 0
    header = (out / "radar.tsv").read_text().split("\n", 1)[0]
    assert header == "axis\thttp://example.org/kg/sparse\thttp://example.org/kg/full"
    capsys.readouterr()


def test_campaign_radar_unknown_dataset(tmp_path, capsys):
    code = main(
        [
            "campaign",
            *ENDPOINTS,
            "--transcript",
            TRANSCRIPT,
            "--delay",
            "0",
            "--out",
            str(tmp_path / "out"),
            "--radar",
            "http://example.org/kg/full",
            "http://nope.example.org/",
        ]
    )
    assert code == 2
    assert "not in the report" in capsys.readouterr().err


def test_campaign_refuses_a_malformed_radar_before_auditing(tmp_path, capsys):
    out, journal = tmp_path / "out", tmp_path / "journal.jsonl"
    argv = ["campaign", ENDPOINTS[0], "--transcript", TRANSCRIPT, "--delay", "0"]
    argv += ["--out", str(out), "--journal", str(journal)]
    argv += ["--radar", "not an iri", "http://example.org/kg/full"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("kgaudit: --radar 'not an iri': ")
    assert not journal.exists()
    assert not out.exists() or not any(out.iterdir())


def test_timeout_env_override(monkeypatch):
    from kgaudit.cli import _parser

    monkeypatch.setenv("KGAUDIT_TIMEOUT", "7.5")
    args = _parser().parse_args(["discover", "--endpoint", "http://e.org/"])
    assert args.timeout == 7.5


def test_timeout_env_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("KGAUDIT_TIMEOUT", "soon")
    with pytest.raises(SystemExit) as exc:
        main(["discover", "--endpoint", "http://e.org/"])
    assert exc.value.code == 2
    assert "KGAUDIT_TIMEOUT" in capsys.readouterr().err


def test_catalog_commands_do_not_read_the_timeout_variable(monkeypatch, capsys):
    monkeypatch.setenv("KGAUDIT_TIMEOUT", "abc")
    assert main(["catalog", "validate"]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--endpoint", ENDPOINTS[0], "--timeout", "-1"],
        ["discover", "--endpoint", ENDPOINTS[0], "--timeout", "0"],
    ],
)
def test_every_command_refuses_a_non_positive_timeout(monkeypatch, capsys, argv):
    sent = _count_requests(monkeypatch)
    assert main([*argv, "--transcript", TRANSCRIPT]) == 2
    assert "the timeout must be positive" in capsys.readouterr().err
    assert sent == []


def test_a_non_positive_timeout_variable_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("KGAUDIT_TIMEOUT", "0")
    assert main(["discover", "--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT]) == 2
    assert "the timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("delay", ["inf", "1e300", "nan"])
def test_campaign_refuses_a_delay_too_long_to_sleep(tmp_path, monkeypatch, capsys, delay):
    # inf and 1e300 overflowed the clock at an endpoint's second run; NaN
    # quietly meant no delay at all
    sent = _count_requests(monkeypatch)
    journal = tmp_path / "journal.jsonl"
    argv = ["campaign", *ENDPOINTS, "--transcript", TRANSCRIPT, "--delay", delay]
    assert main([*argv, "--journal", str(journal)]) == 2
    assert capsys.readouterr().err.startswith("kgaudit: --delay must be from 0 to ")
    assert sent == []
    assert not journal.exists()


@pytest.mark.parametrize("given", ["option", "variable"])
@pytest.mark.parametrize("timeout", ["inf", "1e300", "nan"])
@pytest.mark.parametrize("command", ["discover", "evaluate", "campaign"])
def test_a_timeout_too_long_to_wait_is_refused_before_any_request(
    monkeypatch, capsys, command, timeout, given
):
    # such a timeout overflowed the socket's clock at the first HTTP request
    def query(self, url, query, *, run=0):
        pytest.fail(f"a request went out to {url}")

    monkeypatch.setattr(HttpTransport, "query", query)
    argv = [command, ENDPOINTS[0]] if command == "campaign" else [command, "--endpoint", ENDPOINTS[0]]
    if given == "option":
        argv += ["--timeout", timeout]
    else:
        monkeypatch.setenv("KGAUDIT_TIMEOUT", timeout)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "the timeout must be positive and at most " in err
    assert "(from --timeout or KGAUDIT_TIMEOUT)" in err


def test_the_longest_timeout_a_clock_can_time_is_taken(monkeypatch, capsys):
    monkeypatch.setenv("KGAUDIT_TIMEOUT", repr(threading.TIMEOUT_MAX))
    assert main(["discover", "--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT]) == 0
    assert capsys.readouterr().out == "http://example.org/kg/full\n"


# ---------------------------------------------------------------------------
# catalog


def test_catalog_validate_default(capsys):
    assert main(["catalog", "validate"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "30 questions, 33 queries, 78 rules" in out


def test_catalog_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("version: '1.0'\nprefixes: {}\nhierarchy: []\n")
    assert main(["catalog", "validate", "--catalog", str(bad)]) == 1
    assert "kgaudit:" in capsys.readouterr().err


@pytest.mark.parametrize("pure", [False, True], ids=["picked-loader", "pure-python-loader"])
def test_catalog_validate_rejects_malformed_yaml(tmp_path, capsys, monkeypatch, pure):
    if pure:
        monkeypatch.setattr("kgaudit.catalog.YAML_LOADER", yaml.SafeLoader)
    bad = tmp_path / "malformed.yaml"
    bad.write_text("version: '1.0'\nquestions: [unclosed\nrules: []\n")
    assert main(["catalog", "validate", "--catalog", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"kgaudit: {bad}: not valid YAML" in err
    assert re.search(r"line \d+, column \d+", err)


def test_catalog_validate_accepts_a_three_hop_rule_and_query(tmp_path, capsys):
    reaching = tmp_path / "reaching.yaml"
    reaching.write_text(three_hop_catalog_text())
    assert main(["catalog", "validate", "--catalog", str(reaching)]) == 0
    assert "OK: 30 questions, 33 queries, 79 rules" in capsys.readouterr().out


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 30
    assert lines[0].startswith("creator\tcollection.who\t1\t")
    weights = {line.split("\t")[0]: line.split("\t")[2] for line in lines}
    assert weights["usage-rights"] == "1/2"


def test_catalog_export_extended(capsys):
    assert main(["catalog", "export-extended", "--question", "publisher"]) == 0
    out = capsys.readouterr().out
    assert "# publisher.1" in out
    assert "UNION" in out
    assert "ASK" in out


# Line count and SHA-256 of `catalog export-extended` for every question,
# recorded before Turtle and SPARQL shared one lexer: they pin what the
# parser makes of the bundled catalog, which content_hash (over the raw
# query texts) cannot.
EXPORT_EXTENDED = (1107, "269fca7fb4078ac367975781174f06cd22afbf383874017de6ab30f24f06b949")


def test_catalog_export_extended_output_is_pinned(capsys):
    assert main(["catalog", "export-extended"]) == 0
    out = capsys.readouterr().out
    assert (out.count("\n"), hashlib.sha256(out.encode("utf-8")).hexdigest()) == EXPORT_EXTENDED


def test_catalog_export_unknown_question(capsys):
    assert main(["catalog", "export-extended", "--question", "nope"]) == 1
    assert "no question" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the cyclic garbage collector: paused for file commands only


@pytest.fixture()
def collector():
    """The collector on for the test, and as it was afterwards."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _seen_by(monkeypatch, name: str, seen: list) -> None:
    """Record ``gc.isenabled()`` at each call of ``cli.<name>``."""
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append((name, gc.isenabled()))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)


def test_evaluate_file_runs_with_the_collector_paused(tmp_path, monkeypatch, capsys, collector):
    seen = []
    _seen_by(monkeypatch, "load_rdf", seen)
    _seen_by(monkeypatch, "to_json", seen)
    argv = ["evaluate", "--file", str(FIXTURES / "accountable.nt"), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert seen == [("load_rdf", False), ("to_json", False)]
    assert gc.isenabled()
    assert main(["discover", "--file", str(FIXTURES / "accountable.nt")]) == 0
    assert seen[2:] == [("load_rdf", False)]
    assert gc.isenabled()


def test_a_malformed_file_resumes_the_collector(tmp_path, capsys, collector):
    bad = tmp_path / "bad.nt"
    bad.write_text("not a triple\n")
    for command in ("discover", "evaluate"):
        assert main([command, "--file", str(bad)]) == 2
        assert gc.isenabled()


def test_an_error_out_of_a_file_command_resumes_the_collector(monkeypatch, collector):
    def score_datasets(*args, **kwargs):
        raise RuntimeError("scripted bug")

    monkeypatch.setattr(cli, "score_datasets", score_datasets)
    with pytest.raises(RuntimeError, match="scripted bug"):
        main(["evaluate", "--file", str(FIXTURES / "accountable.nt")])
    assert gc.isenabled()


def test_a_file_command_leaves_a_paused_collector_paused(tmp_path, capsys, collector):
    gc.disable()
    argv = ["evaluate", "--file", str(FIXTURES / "accountable.nt"), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert not gc.isenabled()
    assert main(["discover", "--file", str(FIXTURES / "accountable.nt")]) == 0
    assert not gc.isenabled()


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", *ENDPOINTS, "--delay", "0", "--workers", "2"],
        ["evaluate", "--endpoint", ENDPOINTS[0]],
        ["discover", "--endpoint", ENDPOINTS[0]],
    ],
    ids=["campaign", "evaluate", "discover"],
)
def test_commands_that_send_requests_keep_the_collector_running(
    monkeypatch, capsys, collector, argv
):
    # a failed HTTP request leaves the HTTP library's exceptions in cycles
    seen = []

    class Watched(TranscriptTransport):
        def query(self, url, query, **kwargs):
            seen.append(gc.isenabled())
            return super().query(url, query, **kwargs)

    monkeypatch.setattr(cli, "TranscriptTransport", Watched)
    assert main([*argv, "--transcript", TRANSCRIPT]) == 0
    assert seen and all(seen)
    assert gc.isenabled()


def _default_catalog_text() -> str:
    return (Path(kgaudit.__file__).parent / "data" / "default_catalog.yaml").read_text("utf-8")


@pytest.mark.parametrize("name", ["lf", "cr", "crlf", "bom", "ttl", "random"])
def test_the_file_route_builds_no_reference_cycle(tmp_path, collector, name):
    # what lets file commands pause the collector: with it off, reading,
    # discovery, scoring, the report and every export leave nothing for it
    path = tmp_path / "metadata.nt"
    if name == "ttl":
        path = FIXTURES / "dataset_pair.ttl"
    elif name == "random":
        predicates, constants = catalog_vocabulary(default_catalog())
        graph = random_metadata_graph(random.Random(2929), predicates, constants, 400)
        path.write_text(serialize_ntriples(graph), encoding="utf-8")
    else:
        text = (FIXTURES / "accountable.nt").read_text()
        newline = {"lf": "\n", "cr": "\r", "crlf": "\r\n", "bom": "\n"}[name]
        bom = "\ufeff" if name == "bom" else ""
        path.write_bytes((bom + text.replace("\n", newline)).encode("utf-8"))
    catalog_text = _default_catalog_text()
    gc.collect()
    gc.disable()
    catalog = parse_catalog(catalog_text)
    graph = load_rdf(str(path))
    datasets = discover_in_graph(graph) or [Iri("http://example.org/kg/main")]
    results = score_datasets(catalog, graph, datasets)
    report = build_report(catalog, {"file:metadata.nt": results}, "")
    exports = [to_json(report, catalog), to_csv(report, catalog), *dqv_blocks(report, catalog)]
    figures = figure_files(report, catalog)
    assert gc.collect() == 0
    assert len(graph) >= 8 and len(results) == len(datasets)
    assert all(exports) and figures


@pytest.mark.parametrize("which", ["default", "custom"])
def test_parsing_a_catalog_builds_no_reference_cycle(collector, which):
    text = _default_catalog_text() if which == "default" else three_hop_catalog_text()
    gc.collect()
    gc.disable()
    catalog = parse_catalog(text)
    assert gc.collect() == 0
    assert len(list(catalog.queries())) == 33


def test_a_dump_scores_like_its_metadata_alone(tmp_path, capsys):
    # a dump is mostly instance data around a small dataset description;
    # no dataset reaches the instance data, so it changes no score
    names = ("accountable.nt", "dataset_pair.nt", "publisher_only.nt")
    metadata = "".join((FIXTURES / name).read_text() for name in names)
    (tmp_path / "metadata.nt").write_text(metadata)
    (tmp_path / "dump.nt").write_text(dump_text(metadata, 50_000, seed=5050))
    assert len(load_rdf(str(tmp_path / "dump.nt"))) == 50_000 + len(metadata.splitlines())
    printed, scores = {}, {}
    for name in ("metadata", "dump"):
        path = str(tmp_path / f"{name}.nt")
        assert main(["discover", "--file", path]) == 0
        assert main(["evaluate", "--file", path, "--out", str(tmp_path / name)]) == 0
        printed[name] = capsys.readouterr().out
        rows = (tmp_path / name / "report.csv").read_text().splitlines()
        scores[name] = [row.split(",", 1)[1] for row in rows[1:]]  # without the source
    assert printed["dump"] == printed["metadata"]
    assert scores["dump"] == scores["metadata"]
    assert len(scores["metadata"]) == 3


# ---------------------------------------------------------------------------
# installed script


def test_console_script_runs():
    src = Path(kgaudit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "kgaudit.cli", "catalog", "validate"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_local_commands_do_not_import_requests(tmp_path):
    # only a live HttpTransport needs requests; file scoring and transcript
    # replays run without loading it
    src = Path(kgaudit.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from kgaudit.cli import main\n"
        "codes = [main(['evaluate', '--file', sys.argv[1]]),\n"
        "         main(['campaign', sys.argv[2], '--transcript', sys.argv[3],\n"
        "               '--delay', '0', '--out', sys.argv[4]])]\n"
        "print(codes, 'requests' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "accountable.nt"),
         ENDPOINTS[0], TRANSCRIPT, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_commands_start_without_dataclasses_or_inspect():
    # importing dataclasses, and the inspect it loads, and building classes
    # with it cost every command tens of milliseconds before any work began
    src = Path(kgaudit.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import kgaudit.cli\n"
        "from kgaudit.catalog import default_catalog\n"
        "default_catalog()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_commands_start_without_the_thread_pool_or_logging():
    # a campaign's workers are threads of its own: the thread pool loaded
    # logging, traceback and four more modules into every command
    src = Path(kgaudit.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import kgaudit.cli\n"
        "from kgaudit.catalog import default_catalog\n"
        "default_catalog()\n"
        "code = kgaudit.cli.main(['campaign', *sys.argv[1:], '--delay', '0', '--workers', '2'])\n"
        "print(code, sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *ENDPOINTS, "--transcript", TRANSCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
