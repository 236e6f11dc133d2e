"""Command-line entry point: run pipeline stages over line-oriented files."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .endpoint import ReplayMissError
from .evaluation import ClusteringMetrics, metrics_table
from .pipeline import STAGES, ConfigError, PipelineConfig, StageInputError, read_config, run_stage
from .similarity import EmbeddingServiceError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventframes",
        description="Induce event schemas (Type + Slots) from an unlabeled corpus.",
    )
    parser.add_argument("stage", choices=[*STAGES, "all"])
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--input", help="corpus file (ingest / all)")
    parser.add_argument("--output", required=True, help="output directory for stage files")
    parser.add_argument("--endpoint", help="generation endpoint URL")
    parser.add_argument("--replay", help="replay store path")
    parser.add_argument("--record", action="store_true",
                        help="record live completions into the replay store")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--workers", type=int, help="max in-flight generation requests")
    parser.add_argument("--threshold", type=float, help="slot confidence threshold")
    parser.add_argument("--report", choices=["json", "text"], default="json")
    parser.add_argument("--force", action="store_true", help="rerun even if up-to-date")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    """Every CLI flag overrides the corresponding config key.  A config or
    section that is not an object is left for PipelineConfig.from_dict to
    report."""
    if not isinstance(data, dict):
        return data

    def section(name: str) -> dict:
        value = data.setdefault(name, {})
        return value if isinstance(value, dict) else {}

    if args.seed is not None:
        data["seed"] = args.seed
    if args.endpoint is not None:
        section("generation")["endpoint"] = args.endpoint
    if args.replay is not None:
        section("generation")["replay"] = args.replay
    if args.record:
        section("generation")["record"] = True
    if args.workers is not None:
        section("generation")["workers"] = args.workers
    if args.threshold is not None:
        section("scoring")["threshold"] = args.threshold
    return data


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if key == "metrics" and isinstance(value, dict):
            metrics = ClusteringMetrics(**value)
            lines.append(f"{indent}{key}:")
            lines.extend(f"{indent}  {row}" for row in metrics_table(metrics).splitlines())
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        data = read_config(args.config) if args.config else {}
        cfg = PipelineConfig.from_dict(apply_overrides(data, args))
        report = run_stage(
            args.stage, cfg, Path(args.output), input_path=args.input, force=args.force
        )
    except (ConfigError, StageInputError, ReplayMissError, EmbeddingServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.report == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
