"""One benchmark sample, run in a fresh process.

    python3 worker.py SPEC_JSON

The spec names the source tree, the workspace (cwd for the run; its config
uses paths relative to it), the config edits to apply between run_stage
calls, and whether to trace.  The worker sets up (imports eventframes, loads
the config, builds the ensemble and the client), runs the calls and prints
one JSON line of results.  With "fresh" set it instead runs the final config
once with force=True into `fresh/`, as a reference for the outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def configs(data: dict, edits: list[list]) -> list[dict]:
    """The config of each run_stage call: the base, then one call per edit.
    An edit of None repeats the previous config (a no-op rerun)."""
    out = [data]
    for edit in edits:
        data = json.loads(json.dumps(data))
        if edit is not None:
            section, key, value = edit
            data.setdefault(section, {})[key] = value
        out.append(data)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    os.chdir(spec["workspace"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    started = time.perf_counter()
    import eventframes.pipeline as pipeline

    if tracer is not None:
        tracer.install()
    with open("config.json", encoding="utf-8") as handle:
        data = json.load(handle)
    if spec.get("endpoint"):
        data["generation"]["endpoint"] = spec["endpoint"]
    cfg = pipeline.PipelineConfig.from_dict(data)
    pipeline.build_ensemble(cfg.similarity)
    pipeline.build_client(cfg)
    setup_s = time.perf_counter() - started

    all_configs = [pipeline.PipelineConfig.from_dict(d) for d in configs(data, spec["edits"])]
    if spec.get("fresh"):
        pipeline.run_stage("all", all_configs[-1], "fresh", input_path="corpus.jsonl", force=True)
        print(json.dumps({"fresh": True}))
        return 0

    times = []
    for call_cfg in all_configs:
        call_started = time.perf_counter()
        pipeline.run_stage("all", call_cfg, "out", input_path="corpus.jsonl")
        times.append(time.perf_counter() - call_started)

    result = {
        "setup_s": setup_s,
        "run_s": sum(times),
        "rerun_s": sum(times[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.metrics()
        tracer.write(spec["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
