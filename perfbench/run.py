"""Offline benchmark of kgaudit: replays generated transcripts through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (why each exists is in perfbench/README.md): campaign,
campaign-polite, campaign-resume, evaluate-file, evaluate-remote.

The inputs are generated from the workload name and the seed and cached
under .perfbench-work/, keyed by the generator's source.  What the program
produces from them (the campaign-resume journal, the reference report
digests and per-layer counts) is cached under a key that also holds a
digest of the program's source tree, so a changed program is compared
only with itself.  Each repetition runs one ``kgaudit.cli.main``
call in a fresh child process, one at a time (a closed loop), until the
measuring time is spent.  Every repetition is checked: exit code 0,
printed scores agree with report.json, report files byte-identical across
repetitions, scores equal to the oracle wherever the two routes must
agree.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate and it holds the per-layer metrics, taken from the
traced ones, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("campaign", "campaign-polite", "campaign-resume", "evaluate-file", "evaluate-remote")
# campaign-resume replays the campaign's inputs against a full journal
INPUTS = {"campaign-resume": "campaign"}
POLITE_DELAY = "0.01"
MIN_REPS = 3
# What child.calibrate() takes on the reference host (2 vCPUs, Python 3.11)
# when it is quiet; scaled times are in seconds at that speed.
REFERENCE_CALIBRATION_S = 0.075
MAX_MEASURE_S = 150
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


def declared_units(root: str) -> tuple[dict, dict]:
    """The units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def tree_digest(directory: str) -> str:
    """A digest of every source file under a directory, names included."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgaudit offline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kgaudit", "cli.py")):
        print("perfbench: no kgaudit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, src, declared_units(root))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        try:
            outcome = bench.run(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        outcomes.append((name, outcome))
        if len(names) > 1:
            print(json.dumps(outcome, sort_keys=True))
    if len(names) == 1:
        final = outcomes[0][1]
    else:
        final = {
            "correct": all(o["correct"] for _, o in outcomes),
            "attempted": sum(o["attempted"] for _, o in outcomes),
            "failed": sum(o["failed"] for _, o in outcomes),
            "metrics": {f"{n}/{m}": v for n, o in outcomes for m, v in o["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


class Bench:
    def __init__(self, root: str, src: str, units: tuple[dict, dict]):
        self.src = src
        self.work = os.path.join(root, ".perfbench-work")
        self.workers = len(os.sched_getaffinity(0))
        self.program_version = tree_digest(os.path.join(src, "kgaudit"))
        self.end_to_end_units, self.per_layer_units = units
        self._kgaudit = None

    def program(self):
        """The program's modules, imported from the checkout for input generation."""
        if self._kgaudit is None:
            sys.path.insert(0, self.src)
            import kgaudit.catalog
            import kgaudit.rdf
            import kgaudit.scoring
            import kgaudit.sparql

            self._kgaudit = types.SimpleNamespace(
                rdf=kgaudit.rdf, sparql=kgaudit.sparql,
                catalog=kgaudit.catalog, scoring=kgaudit.scoring,
            )
        return self._kgaudit

    # ------------------------------------------------------------------ setup

    def inputs(self, name: str, seed: int) -> tuple[str, dict]:
        """Generate (or reuse) a workload's inputs; returns (directory, manifest)."""
        with open(workloads.__file__, "rb") as handle:
            version = hashlib.sha256(handle.read()).hexdigest()[:12]
        directory = os.path.join(self.work, "inputs", f"{INPUTS.get(name, name)}-{seed}-{version}")
        path = os.path.join(directory, "manifest.json")
        if not os.path.exists(path):
            manifest = workloads.generate(INPUTS.get(name, name), seed, directory, self.program())
            workloads.save_manifest(directory, manifest)
        with open(path, "r", encoding="utf-8") as handle:
            return directory, json.load(handle)

    def argv(self, name: str, manifest: dict, out: str, journal: str) -> list[str]:
        inputs = manifest["inputs"]
        if name == "evaluate-file":
            return ["evaluate", "--file", inputs["file"], "--out", out]
        if name == "evaluate-remote":
            (url,) = manifest["expected"]
            return ["evaluate", "--endpoint", url, "--transcript", inputs["transcript"], "--out", out]
        argv = [
            "campaign", "--endpoints-file", inputs["endpoints"],
            "--transcript", inputs["transcript"], "--runs", str(manifest["runs"]),
            "--workers", str(self.workers), "--out", out,
        ]
        if name == "campaign-polite":
            return argv + ["--delay", POLITE_DELAY]
        return argv + ["--delay", "0", "--journal", journal]

    def full_journal(self, results: str, manifest: dict, scratch: str) -> str:
        """A journal holding every cell of the campaign, made once per seed and program."""
        path = os.path.join(results, "journal.jsonl")
        if not os.path.exists(path):
            tmp = path + ".tmp"
            if os.path.exists(tmp):
                os.remove(tmp)
            argv = self.argv("campaign", manifest, os.path.join(scratch, "out"), tmp)
            result = self.child(argv, scratch, False, 0)
            if result.get("code") != 0:
                raise SetupError(f"could not fill the journal: {result.get('error')}")
            os.replace(tmp, path)
        return path

    # --------------------------------------------------------------- measuring

    def child(self, argv, scratch, trace, datasets) -> dict:
        spec_path = os.path.join(scratch, "spec.json")
        result_path = os.path.join(scratch, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {
            "src": self.src, "argv": argv, "trace": trace, "datasets": datasets,
            "result": result_path, "spans": os.path.join(scratch, "spans.jsonl"),
        }
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=scratch,
            )
        except subprocess.TimeoutExpired:
            return {"code": None, "error": "timed out"}
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"code": None, "error": proc.stderr.strip()[-2000:]}
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        # Time on the CPU is rescaled to the reference host speed; time off it
        # (politeness sleeps) is kept as measured.
        speed = REFERENCE_CALIBRATION_S / statistics.mean(result["calibration"])
        cpu = min(result["cpu_s"], result["wall_s"])
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] = result["wall_s"] - cpu + cpu * speed
        result["raw_setup_s"] = result["ready"] - started - result["calibration_s"]
        result["setup_s"] = result["raw_setup_s"] * speed
        if result["code"] != 0:
            result["error"] = proc.stderr.strip()[-2000:]
        return result

    def run(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        scratch = os.path.join(self.work, "reps", f"{name}-{seed}")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        directory, manifest = self.inputs(name, seed)
        results = os.path.join(directory, f"program-{self.program_version}")
        os.makedirs(results, exist_ok=True)
        full_journal = None
        if name == "campaign-resume":
            full_journal = self.full_journal(results, manifest, scratch)
        expected = manifest["expected"]
        datasets = sum(len(per) for per in expected.values())
        out = os.path.join(scratch, "out")
        journal = os.path.join(scratch, "journal.jsonl")
        argv = self.argv(name, manifest, out, journal)
        checker = Checker(name, manifest, os.path.join(results, f"reference-{name}.json"))

        plain, traced, failed, attempted = [], [], 0, 0
        began = time.monotonic()
        while True:
            tracing_turn = trace and attempted % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            if os.path.exists(journal):
                os.remove(journal)
            if full_journal:
                shutil.copyfile(full_journal, journal)
            result = self.child(argv, scratch, tracing_turn, datasets)
            attempted += 1
            problems = checker.check(result, out)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"  rep {attempted}: {problem}", file=sys.stderr)
            if tracing_turn:
                if "layers" in result:
                    result["layers"]["reporting.bytes"] = _tree_bytes(out)
                    result["layers"]["client.journal_bytes"] = (
                        os.path.getsize(journal) if os.path.exists(journal) else 0
                    )
                    result["layers"]["wrong_score_share"] = 1 - result["exact_score_share"]
                traced.append(result)
            else:
                plain.append(result)
            elapsed = time.monotonic() - began
            enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
            if enough and elapsed * (attempted + 1) / attempted > seconds:
                break
            if elapsed > MAX_MEASURE_S:
                break

        ok = [r for r in plain if r.get("code") == 0]
        print(f"{name} seed {seed}: {attempted} repetitions ({len(traced)} traced), "
              f"{failed} failed, {datasets} datasets, {manifest['triples']} triples served")
        if trace:
            metrics, problems = self.per_layer(checker, ok, traced)
            units = self.per_layer_units
        else:
            metrics, problems = self.end_to_end(plain, ok, datasets), []
            units = self.end_to_end_units
        if metrics and set(metrics) != set(units):
            raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                             "are not both measured and declared in BENCHMARK.json")
        correct = failed == 0 and not problems
        if correct:
            checker.save()
        for key in sorted(metrics):
            print(f"  {key} {metrics[key]:.6g} {units[key]}")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in sorted(metrics)},
        }

    @staticmethod
    def end_to_end(plain: list, ok: list, datasets: int) -> dict:
        metrics = {
            "wall_s": _median(r["wall_s"] for r in ok),
            "datasets_per_s": _median(datasets / r["wall_s"] for r in ok),
            "peak_rss_mb": _median(r["rss_mb"] for r in ok),
            "exact_score_share": _median(r["exact_score_share"] for r in plain),
            "setup_s": _median(r["setup_s"] for r in ok),
        }
        if ok:
            walls = sorted(r["wall_s"] for r in ok)
            print(f"  wall_s over {len(walls)} repetitions: min {walls[0]:.4f} "
                  f"median {metrics['wall_s']:.4f} max {walls[-1]:.4f}")
            for key in ("raw_wall_s", "raw_setup_s"):
                print(f"  {key} (unscaled) {_median(r[key] for r in ok):.6g} s")
        print(f"  wrong_score_share {1 - metrics['exact_score_share']:.4f} ratio")
        return metrics

    @staticmethod
    def per_layer(checker, ok: list, traced: list) -> tuple[dict, list]:
        ok_traced = [r for r in traced if "layers" in r]
        if not ok_traced:
            return {}, ["no traced repetition succeeded"]
        problems = checker.repeatable_counts([r["layers"] for r in ok_traced])
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        metrics = {
            key: statistics.median(r["layers"][key] for r in ok_traced)
            for key in ok_traced[0]["layers"]
        }
        absent = sorted({a for r in ok_traced for a in r["absent"]})
        if absent:
            print("  absent wrap points: " + ", ".join(absent))
        metrics["trace.overhead_s"] = _median(r["wall_s"] for r in ok_traced) - _median(
            r["wall_s"] for r in ok
        )
        return metrics, problems


class Checker:
    """Correctness checks for the repetitions of one workload and seed.

    The first repetition sets the report digests and the exact per-layer
    counts the others must reproduce.  A run without failures saves them
    under the program's digest, so later runs of the same program and seed
    must reproduce them too; a changed program starts afresh.
    """

    _GENERATED_JSON = re.compile(r'"generated_at": "[^"]*"')
    _GENERATED_NT = re.compile(r'(generatedAt> )"[^"]*"')

    def __init__(self, name: str, manifest: dict, reference: str):
        self.name = name
        self.expected = manifest["expected"]
        self.blank = set(manifest["blank"])
        self.reference = reference
        self.digests = self.counts = None
        if os.path.exists(reference):
            with open(reference, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            self.digests, self.counts = stored["digests"], stored["counts"]

    def save(self) -> None:
        if self.digests is not None:
            with open(self.reference, "w", encoding="utf-8") as handle:
                json.dump({"digests": self.digests, "counts": self.counts}, handle)

    def check(self, result: dict, out: str) -> list[str]:
        datasets = sum(len(per) for per in self.expected.values())
        result["exact_score_share"] = 0.0
        if result.get("code") != 0:
            return [f"command failed: {result.get('error')}"]
        try:
            with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            return [f"no readable report.json: {exc}"]
        problems = self._printed(result["stdout"], report)
        wrong, unexpected = self._scores(report)
        result["exact_score_share"] = (datasets - len(wrong)) / datasets
        if unexpected:
            problems.append(f"scores differ from the oracle where the routes must agree: "
                            f"{sorted(unexpected)[:3]}")
        digests = self._digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("report files differ from an earlier repetition's")
        return problems

    def _printed(self, stdout: str, report: dict) -> list[str]:
        """The percent lines the command printed must match report.json."""
        lines = [line.split("\t") for line in stdout.splitlines() if line]
        endpoints = report["endpoints"]
        if self.name.startswith("campaign"):
            want = sorted(
                [entry["datasets"][entry["best"]]["score"]["percent"], entry["best"], ep]
                for ep, entry in endpoints.items()
            )
        else:
            results = [(ds, d["score"]["percent"]) for e in endpoints.values()
                       for ds, d in e["datasets"].items()]
            want = sorted([pct, ds] for ds, pct in results)
            if len(results) == 1:
                want = [[results[0][1]]]
        if sorted(lines) != want:
            return ["printed scores disagree with report.json"]
        return []

    def _scores(self, report: dict) -> tuple[set, set]:
        """Datasets scored differently from the oracle, and those of them
        where no known gap excuses it: campaigns may miss blank-node metadata."""
        got = {
            (ep, ds): d["score"]["fraction"]
            for ep, entry in report["endpoints"].items()
            for ds, d in entry["datasets"].items()
        }
        wrong, unexpected = set(), set()
        for endpoint, per in self.expected.items():
            for dataset, fraction in per.items():
                key = (endpoint, dataset) if endpoint else next(
                    (k for k in got if k[1] == dataset), None)
                if got.get(key) != fraction:
                    wrong.add(dataset)
                    if not (self.name.startswith("campaign") and dataset in self.blank):
                        unexpected.add(dataset)
        return wrong, unexpected

    def _digests(self, out: str) -> dict:
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "r", encoding="utf-8") as handle:
                text = handle.read()
            if self.name.startswith("evaluate"):
                # evaluate --file stamps wall-clock time into the report
                text = self._GENERATED_JSON.sub('"generated_at": "*"', text)
                text = self._GENERATED_NT.sub(r'\1"*"', text)
            digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return digests

    def repeatable_counts(self, layers: list[dict]) -> list[str]:
        keys = tracing.COUNT_METRICS + ["reporting.bytes", "client.journal_bytes", "wrong_score_share"]
        problems = []
        for summary in layers:
            counts = {key: summary[key] for key in keys}
            if self.counts is None:
                self.counts = counts
            for key in keys:
                if counts[key] != self.counts[key]:
                    problems.append(f"{key} differs between repetitions: "
                                    f"{counts[key]} against {self.counts[key]}")
        return problems


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tree_bytes(directory: str) -> int:
    if not os.path.isdir(directory):
        return 0
    return sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))


if __name__ == "__main__":
    sys.exit(main())
