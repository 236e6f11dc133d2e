"""Pipeline benchmark for eventframes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed (generate.py), then runs samples until S
seconds have passed.  Each sample is a fresh process (worker.py) that sets up,
runs the workload's run_stage calls and reports its timings; run_s and
rerun_s are upper quartiles over samples (see `timing_of`), setup_s and
peak_rss_mb medians.  Every sample's outputs are checked.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 half of the samples run traced (tracer.py) and the metrics
are per-layer ones; `trace.overhead_s` is the traced run_s minus the
untraced one.

Workloads (see WORKLOADS.md for what each one loads and bypasses):
  graph-large     many expressions, short slot sets, lexical ensemble, replay
  record-iterate  record mode against a loopback stub, then config edits,
                  three-backend ensemble
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_SAMPLES = 4
SAMPLE_TIMEOUT_S = 150
STUB_DELAY_S = 0.015
STAGE_FILES = (
    "expressions.jsonl", "conceptualized.jsonl", "structured.jsonl", "schemas.jsonl",
    "metrics.json",
)

# Config edits made between run_stage("all") calls; None is a no-op rerun.
# On graph-large rerun_s is only a guard on the up-to-date check: a no-op
# rerun takes about 2 ms, so sixteen of them are summed to keep it above
# timer and scheduling noise.
EDITS = {
    "graph-large": [None] * 16,
    "record-iterate": [
        ["evaluation", "top_k", 10],
        ["scoring", "threshold", 0.3],
        ["graph", "lambda3", 2.5],
        None,
    ],
}

END_TO_END_UNITS = {
    "run_s": "s",
    "rerun_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ari": "score",
    "nmi": "score",
    "bcubed_f1": "score",
    "failed_frac": "ratio",
}
ENDPOINT_METRICS = (
    "endpoint.requests", "endpoint.requests_per_prompt", "endpoint.retries",
    "endpoint.inflight_max", "endpoint.connections_max",
)


class CheckFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_prompt") or name.startswith("self_share."):
        return "ratio"
    return "count"


def digest(path: Path, skip_header: bool = False) -> str:
    """sha256 of a stage file; with skip_header, of what does not depend on the
    config hash (the header line, or the metrics file's config_hash key)."""
    data = path.read_bytes()
    if skip_header:
        if path.suffix == ".json":
            record = json.loads(data)
            record.pop("config_hash", None)
            data = json.dumps(record, sort_keys=True).encode("utf-8")
        else:
            data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Run:
    """One benchmark run: a generated workspace, an optional stub, samples."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        from generate import generate

        self.workspace = WORK / f"{workload}-{seed}{'-tiny' if tiny else ''}"
        shutil.rmtree(self.workspace, ignore_errors=True)
        self.planted = generate(workload, seed, self.workspace, tiny)
        self.edits = EDITS[workload]
        self.raw_digests: dict[str, str] | None = None
        self.quality: dict[str, float] = {}
        self.stub = None
        if workload == "record-iterate":
            from stub import StubServer

            table = {r["hash"]: r["completions"] for r in read_jsonl(self.workspace / "table.jsonl")}
            unavailable = set(self.planted["unavailable_once"])
            self.stub = StubServer(table, unavailable, STUB_DELAY_S).start()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def _worker(self, trace: bool, fresh: bool = False) -> dict:
        spec = {
            "src": str(SRC),
            "workspace": str(self.workspace),
            "edits": self.edits,
            "trace": trace,
            "fresh": fresh,
            "trace_path": str(self.workspace / "trace.json"),
            "endpoint": self.stub.url if self.stub else None,
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=self.workspace,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"worker printed no result: {proc.stdout[-500:]!r}") from exc

    def sample(self, trace: bool) -> dict:
        shutil.rmtree(self.workspace / "out", ignore_errors=True)
        if self.stub is not None:
            self.stub.counters.reset()
        result = self._worker(trace)
        self.check_outputs()
        if self.stub is not None:
            result["endpoint"] = self.check_endpoint()
        return result

    def check_outputs(self) -> None:
        out = self.workspace / "out"
        names = STAGE_FILES + (("replay.jsonl",) if self.stub else ())
        raw = {name: digest(out / name) for name in names}
        if self.raw_digests is None:
            self.raw_digests = raw
            self.check_first(out)
        elif raw != self.raw_digests:
            changed = sorted(n for n in raw if raw[n] != self.raw_digests[n])
            raise CheckFailed(f"stage files differ between samples: {changed}")

    def check_first(self, out: Path) -> None:
        """Checks made once per run, on the first sample's outputs."""
        from eventframes.evaluation import load_gold_mentions, mention_harness

        # Stage files of one program and (workload, seed) are the same bytes on
        # every run.
        bodies = {name: digest(out / name, skip_header=True) for name in STAGE_FILES}
        record = WORK / "digests" / f"{self.workspace.name}-{self.inputs_key()}.json"
        if record.exists():
            previous = json.loads(record.read_text(encoding="utf-8"))
            if previous != bodies:
                changed = sorted(n for n in bodies if bodies[n] != previous.get(n))
                raise CheckFailed(f"stage files differ from an earlier run of this seed: {changed}")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(bodies, sort_keys=True) + "\n", encoding="utf-8")

        # metrics.json equals the harness recomputed from schemas.jsonl and gold.
        schemas = read_jsonl(out / "schemas.jsonl")[1:]
        predicted = {m: label for label, s in enumerate(schemas) for m in s["members"]}
        base = json.loads((self.workspace / "config.json").read_text(encoding="utf-8"))
        top_k = configs(base, self.edits)[-1]["evaluation"]["top_k"]
        gold = load_gold_mentions(self.workspace / "gold.jsonl")
        expected = mention_harness(gold, predicted, top_k).as_dict()
        reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["metrics"]
        if reported != expected:
            raise CheckFailed(f"metrics.json {reported} != recomputed {expected}")
        self.quality = expected

        # The expressions lost are exactly the planted ones.
        corpus_ids = {r["id"] for r in read_jsonl(self.workspace / "corpus.jsonl")}
        lost = sorted(corpus_ids - set(predicted))
        if lost != self.planted["lost"]:
            raise CheckFailed(f"lost {lost}, planted {self.planted['lost']}")

    def inputs_key(self) -> str:
        """Hash of the program source, the generated inputs and the edits."""
        files = sorted(SRC.rglob("*.py")) + sorted(
            p for p in self.workspace.iterdir() if p.is_file() and p.name != "trace.json"
        )
        hasher = hashlib.sha256(json.dumps(self.edits).encode("utf-8"))
        for path in files:
            hasher.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        return hasher.hexdigest()[:16]

    def check_endpoint(self) -> dict:
        """Every planted 503 was retried and then served."""
        counts = self.stub.counters.snapshot()
        for key in self.planted["unavailable_once"]:
            if counts["refused"].get(key) != 1 or not counts["served"].get(key):
                raise CheckFailed(f"planted 503 for prompt {key[:12]} was not retried")
        return counts

    def check_fresh(self) -> None:
        """The final outputs equal a fresh force=True run of the final config."""
        shutil.rmtree(self.workspace / "fresh", ignore_errors=True)
        self.stub.counters.reset()
        self._worker(trace=False, fresh=True)
        for name in STAGE_FILES:
            if digest(self.workspace / "fresh" / name) != self.raw_digests[name]:
                raise CheckFailed(f"{name} differs from a fresh run of the final config")
        if self.stub.counters.snapshot()["requests"]:
            raise CheckFailed("a fresh run of a recorded config called the endpoint")


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def timing_of(samples: list[dict], key: str) -> float:
    """Upper quartile of a wall time over samples.

    The host speed moves in phases of seconds to minutes, and the phases away
    from its usual speed are mostly faster ones.  How many samples of a run
    fall in such a phase decides its median, while the upper quartile stays
    on the usual speed.  On a 2-vCPU VM, eight sets of ten runs of graph-large
    spread (IQR / median) 0.05-0.11 in the upper quartile of run_s and
    0.06-0.20 in its median; see WORKLOADS.md.
    """
    values = [s[key] for s in samples]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def endpoint_metrics(counts: dict | None) -> dict:
    if counts is None:
        return {name: 0 for name in ENDPOINT_METRICS}
    prompts = counts["prompts"]
    return {
        "endpoint.requests": counts["requests"],
        "endpoint.requests_per_prompt": counts["requests"] / prompts if prompts else 0.0,
        "endpoint.retries": counts["unavailable"],
        "endpoint.inflight_max": counts["inflight_max"],
        "endpoint.connections_max": counts["connections_max"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    started = time.monotonic()
    min_samples = 1 if tiny else MIN_SAMPLES
    run = Run(workload, seed, tiny)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while (
            len(plain) < min_samples
            or (trace and len(traced) < min_samples)
            or time.monotonic() - started < seconds
        ):
            # A traced run alternates traced and untraced samples.
            trace_this = trace and len(traced) < len(plain)
            (traced if trace_this else plain).append(run.sample(trace_this))
        if run.stub is not None:
            run.check_fresh()
    finally:
        run.close()

    samples = len(plain) + len(traced)
    lost = len(run.planted["lost"])
    for key in ("run_s", "rerun_s"):
        print(f"{key} per sample: " + " ".join(f"{s[key]:.3f}" for s in plain), file=sys.stderr)
    if trace:
        layers = {
            name: statistics.median(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]
        }
        endpoint = [endpoint_metrics(s.get("endpoint")) for s in traced]
        for name in ENDPOINT_METRICS:
            layers[name] = statistics.median(e[name] for e in endpoint)
        layers["trace.overhead_s"] = timing_of(traced, "run_s") - timing_of(plain, "run_s")
        values = layers
    else:
        values = {name: timing_of(plain, name) for name in ("run_s", "rerun_s")}
        values.update({name: median_of(plain, name) for name in ("setup_s", "peak_rss_mb")})
        values.update({name: run.quality[name] for name in ("ari", "nmi", "bcubed_f1")})
        values["failed_frac"] = lost / run.planted["attempted"]
    return {
        "correct": True,
        "attempted": run.planted["attempted"] * samples,
        "failed": lost * samples,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EDITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one sample of each kind, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "eventframes" / "__init__.py").is_file():
        print(f"error: no eventframes source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        # A run that fails a check, or whose stage files are missing or
        # malformed, loses every expression it attempted.
        print(f"check failed: {exc}", file=sys.stderr)
        lost = {"failed_frac": {"value": 1.0, "unit": "ratio"}}
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": lost}))
        return 1
    samples = result.pop("samples")
    print(f"{args.workload} seed={args.seed} samples={samples}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
