"""Command-line surface for the pipeline.

Exit codes: 0 success, 1 validation, usage or out-of-memory error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from itertools import chain

from . import __version__
from .checkpoint import check_out_dir, check_out_path
from .clustering import ClusterParams, detect_salient_regions
from .document import DocumentParseError, load_document
from .graph import build_graph, graph_to_json
from .model import Model, ModelConfig, finite_difference_check, gradcheck_config, load_model, stage_summary
from .render import render_page_svg
from .synth import SynthParams, iter_corpus, load_corpus, probe_page, save_corpus, synth_generate
from .tensor import no_grad
from .training import (
    ABLATIONS,
    TrainConfig,
    ablate,
    evaluate_model,
    load_config_file,
    seed_averages,
    split_corpus,
    train,
    write_ablation_csv,
)
from .vocab import build_vocab


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A negative float literal (exponent form, -inf and -nan included)
        # is a value, so `--threshold -1e-4` reaches the range check instead
        # of reading as an option; argparse's own pattern knows only `-1` and `-.5`.
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_grid(value: str) -> tuple[int, int]:
    parts = value.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"grid must look like 7x7, got '{value}'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"grid must look like 7x7, got '{value}'") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="docgrain", description="Multi-grained multimodal document understanding toolkit")
    parser.add_argument("--version", action="version", version=f"docgrain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="cluster regions and emit the document graph JSON")
    p.add_argument("--input", required=True, help="document JSON path")
    p.add_argument("--radius", type=float, default=30.0, help="clustering radius in page pixels (default 30)")
    p.add_argument("--min-pts", type=int, default=1, help="neighbors required for core status (default 1)")
    p.add_argument("--grid", type=str, default="7x7", help="patch grid as WxH (default 7x7)")
    p.add_argument("--output", required=True, help="graph JSON output path")

    p = sub.add_parser("render", help="draw segments and salient regions as SVG")
    p.add_argument("--input", required=True, help="document JSON path")
    p.add_argument("--radius", type=float, default=30.0, help="clustering radius in page pixels (default 30)")
    p.add_argument("--min-pts", type=int, default=1, help="neighbors required for core status (default 1)")
    p.add_argument("--svg-out", required=True, help="SVG output path")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    p.add_argument("--count", type=int, required=True, help="number of documents")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument(
        "--variant", choices=("plain", "region_cue"), default="plain",
        help="plain forms or the region-dependent labeling task (default plain)",
    )

    p = sub.add_parser("train", help="train on a corpus directory")
    p.add_argument("--corpus", required=True, help="corpus directory from synth")
    p.add_argument("--config", default=None, help="JSON config with model/train sections")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--holdout", type=float, default=0.1, help="held-out eval fraction (default 0.1)")
    p.add_argument("--log-out", default=None, help="optional metric log path (JSON lines)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True, help="checkpoint path")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--dump-intermediates", default=None, help="write stage shapes/norms for the first doc")

    p = sub.add_parser("ablate", help="run one ablation axis and write a CSV")
    p.add_argument("--axis", choices=tuple(ABLATIONS), required=True)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--config", default=None, help="JSON config with model/train sections")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="seeds to average (default 0 1 2)")
    p.add_argument("--holdout", type=float, default=0.1, help="held-out eval fraction (default 0.1)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=int, default=0, help="seed for the probe document and sampling (default 0)")
    p.add_argument("--threshold", type=float, default=1e-4, help="max relative error to accept (default 1e-4)")
    return parser


def _cmd_build_graph(args) -> int:
    check_out_path("--output", args.output)
    page = load_document(args.input)
    graph = build_graph(page, ClusterParams(args.radius, args.min_pts), _parse_grid(args.grid))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(graph))
    print(f"wrote graph with {graph.n_coarse_visual} regions to {args.output}")
    return 0


def _cmd_render(args) -> int:
    check_out_path("--svg-out", args.svg_out)
    page = load_document(args.input)
    regions = detect_salient_regions(page.segments, ClusterParams(args.radius, args.min_pts))
    svg = render_page_svg(page, regions)
    with open(args.svg_out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {len(regions)} regions to {args.svg_out}")
    return 0


def _cmd_synth(args) -> int:
    check_out_dir("--out", args.out)
    bundle = synth_generate(args.seed, args.count, SynthParams(variant=args.variant))
    save_corpus(bundle, args.out)
    print(f"wrote {len(bundle.pages)} documents to {args.out}")
    return 0


def _load_configs(path: str | None) -> tuple[ModelConfig, TrainConfig]:
    if path is None:
        return ModelConfig(), TrainConfig()
    return load_config_file(path)


def _cmd_train(args) -> int:
    check_out_path("--out", args.out)
    check_out_path("--log-out", args.log_out)
    model_cfg, train_cfg = _load_configs(args.config)
    train_pages, eval_pages = split_corpus(load_corpus(args.corpus), args.holdout)
    result = train(train_pages, eval_pages, model_cfg, train_cfg, checkpoint_path=args.out)
    if args.log_out:
        result.write_log(args.log_out)
    print(f"best held-out micro F1 {result.best_f1:.4f}; checkpoint at {args.out}")
    return 0


def _cmd_eval(args) -> int:
    check_out_path("--dump-intermediates", args.dump_intermediates)
    model = load_model(args.checkpoint)
    docs = map(model.encode_page, iter_corpus(args.corpus))
    first = next(docs)  # kept for the dump; every later page is dropped once scored
    report = evaluate_model(model, chain([first], docs))
    if args.dump_intermediates:
        with no_grad():
            _, stages = model.forward_encoded(first)
        with open(args.dump_intermediates, "w", encoding="utf-8") as fh:
            json.dump(stage_summary(stages), fh, indent=2, sort_keys=True)
    print(f"micro: P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}")
    for etype, (p, r, f1) in sorted(report.per_type.items()):
        print(f"{etype}: P={p:.4f} R={r:.4f} F1={f1:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    check_out_path("--out", args.out)
    model_cfg, train_cfg = _load_configs(args.config)
    train_pages, eval_pages = split_corpus(load_corpus(args.corpus), args.holdout)
    rows = ablate(train_pages, eval_pages, model_cfg, train_cfg, args.axis, seeds=tuple(args.seeds))
    write_ablation_csv(rows, args.out)
    for run, f1 in seed_averages(rows).items():
        print(f"{run}: mean F1 {f1:.4f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    if not 0 < args.threshold < math.inf:
        raise UsageError(f"--threshold must be a finite number > 0, got {args.threshold}")
    probe = probe_page()
    cfg = gradcheck_config(seed=args.seed)
    model = Model(cfg, build_vocab([probe], size=cfg.vocab_size))
    max_err, _ = finite_difference_check(model, probe)
    print(f"max relative error: {max_err:.3e}")
    if not max_err < args.threshold:
        print(f"gradient check FAILED (threshold {args.threshold:g})", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "build-graph": _cmd_build_graph,
    "render": _cmd_render,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, DocumentParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
