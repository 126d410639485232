#!/usr/bin/env python3
"""Run the three ablation axes (components, coarse layers, radius) on a
synthetic corpus and write one CSV per axis plus seed-averaged summaries.

The components axis runs on the region-dependent labeling task, where
removing the coarse path actually hurts; the other axes use plain forms.
"""

import argparse
import os
import sys
from dataclasses import replace

from docgrain.synth import SynthParams, synth_generate
from docgrain.training import (
    ABLATIONS,
    ablate,
    reference_model_config,
    reference_train_config,
    seed_averages,
    split_corpus,
    write_ablation_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=220)
    parser.add_argument("--epochs", type=int, default=16)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--out", default="runs/ablations")
    parser.add_argument("--axes", nargs="+", choices=tuple(ABLATIONS), default=tuple(ABLATIONS))
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    model_cfg = replace(reference_model_config(), max_len=256)
    train_cfg = replace(reference_train_config(epochs=args.epochs), warmup_steps=50)

    for axis in args.axes:
        variant = "region_cue" if axis == "components" else "plain"
        bundle = synth_generate(7, args.count, SynthParams(variant=variant))
        train_pages, eval_pages = split_corpus(bundle.pages, 0.12)
        rows = ablate(train_pages, eval_pages, model_cfg, train_cfg, axis, seeds=tuple(args.seeds))
        path = os.path.join(args.out, f"{axis}.csv")
        write_ablation_csv(rows, path)
        print(f"== {axis} ({variant} corpus) -> {path}")
        for run, f1 in seed_averages(rows).items():
            print(f"   {run}: mean F1 {f1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
