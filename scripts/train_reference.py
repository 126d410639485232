#!/usr/bin/env python3
"""Train the reference configuration on a fresh synthetic corpus.

Generates the corpus, trains one seed, reports held-out entity metrics,
and leaves a checkpoint plus a metric log in the output directory.
"""

import argparse
import os
import sys

from docgrain.synth import SynthParams, save_corpus, synth_generate
from docgrain.training import (
    reference_model_config,
    reference_train_config,
    split_corpus,
    train,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--out", default="runs/reference")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    bundle = synth_generate(args.seed + 1000, args.count, SynthParams())
    save_corpus(bundle, os.path.join(args.out, "corpus"))
    train_pages, eval_pages = split_corpus(bundle.pages, 0.1)

    result = train(
        train_pages,
        eval_pages,
        reference_model_config(seed=args.seed),
        reference_train_config(seed=args.seed, epochs=args.epochs),
        checkpoint_path=os.path.join(args.out, "model.ckpt"),
    )
    result.write_log(os.path.join(args.out, "metrics.jsonl"))

    report = result.report
    print(f"held-out micro: P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}")
    for etype, (p, r, f1) in sorted(report.per_type.items()):
        print(f"  {etype}: P={p:.4f} R={r:.4f} F1={f1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
