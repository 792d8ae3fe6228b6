"""CLI tests: every subcommand, exit codes, and the written report files."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import kgaudit
from kgaudit.catalog import default_catalog, dump_catalog
from kgaudit.cli import main

from helpers import FIXTURES, THREE_HOP_RULE

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


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_file_single_dataset_prints_bare_percent(capsys):
    assert main(["evaluate", "--file", str(FIXTURES / "publisher_only.nt")]) == 0
    assert capsys.readouterr().out == "3.3%\n"


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


def test_evaluate_endpoint_remote_route(capsys):
    code = main(
        ["evaluate", "--endpoint", ENDPOINTS[0], "--transcript", TRANSCRIPT]
    )
    assert code == 0
    assert capsys.readouterr().out == "100.0%\n"


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
    datasets = doc["endpoints"][path.resolve().as_uri()]["datasets"]
    assert datasets["http://example.org/kg/sparse"]["score"]["percent"] == "3.3%"
    assert (out / "report.csv").read_bytes().count(b"\r\n") == 2  # header + one row


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


def test_campaign_requires_endpoints(capsys):
    # validation fires before the transport is built: the transcript path
    # does not exist, yet the complaint is about the missing endpoints
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


def test_catalog_validate_rejects_unfetchable_rule(tmp_path, capsys):
    doc = yaml.safe_load(dump_catalog(default_catalog()))
    doc["rules"].append(THREE_HOP_RULE)
    reaching = tmp_path / "reaching.yaml"
    reaching.write_text(yaml.safe_dump(doc))
    assert main(["catalog", "validate", "--catalog", str(reaching)]) == 1
    err = capsys.readouterr().err
    assert "query access-url.1 pattern" in err
    assert "dcat:downloadURL ?url" in err
    assert "beyond what a campaign fetches" in err


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


def test_catalog_export_unknown_question(capsys):
    assert main(["catalog", "export-extended", "--question", "nope"]) == 1
    assert "no question" in capsys.readouterr().err


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
