"""Fine-tuning loop, schedule, evaluation, and the ablation harness.

Batches are whole documents: each document runs its own forward/backward
pass and gradients accumulate across the batch before one optimizer step,
so no padding or masking is ever needed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .labeling import F1Accumulator, bio_decode
from .model import Model, ModelConfig, check_field_types, config_from_dict, load_model
from .optim import Adam
from .synth import load_corpus
from .vocab import build_vocab

RADIUS_GRID = (5.0, 10.0, 30.0, 50.0, 100.0)

COMPONENT_RUNS = (
    "full",
    "w/o Coarse-grained Encoder",
    "w/o Common Sense Enhancement",
    "w/o Aggregation with Cross-grained Edges",
)


# Keys older config files may carry; unset (null) is the only value the
# loop implements: the schedule spans every epoch and nothing is clipped.
_RETIRED_FIELDS = {"total_steps": None, "grad_clip": None}


@dataclass
class TrainConfig:
    """Optimization hyperparameters; JSON configs mirror these names."""

    lr: float = 5e-5
    warmup_steps: int = 100
    weight_decay: float = 0.01
    batch_size: int = 8
    epochs: int = 20
    seed: int = 0
    eval_every: int = 2  # epochs between held-out evaluations

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1 or self.eval_every < 1:
            raise ValueError("lr, batch_size, epochs, and eval_every must be positive")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return config_from_dict(cls, data, _RETIRED_FIELDS, "train")


def lr_schedule(step: int, lr: float, warmup: int, total: int) -> float:
    """Linear warmup to ``lr`` over ``warmup`` steps, then linear decay to
    zero at step ``total``; ``warmup`` must not exceed ``total``."""
    if step >= total:
        return 0.0
    if step <= warmup:
        return lr * step / max(warmup, 1)
    return lr * (total - step) / (total - warmup)


@dataclass
class EvalReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    per_type: dict[str, tuple[float, float, float]]
    n_docs: int


def evaluate_model(model: Model, pages: list) -> EvalReport:
    """Entity-level scores of argmax predictions against gold labels."""
    micro = F1Accumulator()
    per_type: dict[str, F1Accumulator] = {t: F1Accumulator() for t in model.tag_set.types}
    for page in pages:
        if page.labels is None:
            raise ValueError("evaluation corpus must carry gold labels")
        for tag in page.labels:
            if tag != "O" and tag[2:] not in model.tag_set.types:
                raise ValueError(
                    f"corpus label '{tag}' not covered by checkpoint tag set {model.tag_set.types}"
                )
        enc = model.encode_page(page)
        pred = bio_decode(model.predict_word_tags(enc))
        gold = bio_decode(page.labels)
        micro.add(pred, gold)
        for t in per_type:
            per_type[t].add([e for e in pred if e.type == t], [e for e in gold if e.type == t])
    p, r, f1 = micro.scores()
    return EvalReport(
        micro_precision=p,
        micro_recall=r,
        micro_f1=f1,
        per_type={t: acc.scores() for t, acc in per_type.items()},
        n_docs=len(pages),
    )


@dataclass
class TrainResult:
    model: Model
    best_f1: float
    metric_log: list[dict] = field(default_factory=list)

    def write_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.metric_log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def train(
    train_pages: list,
    eval_pages: list,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    checkpoint_path: str | None = None,
) -> TrainResult:
    """Train from scratch on labeled pages; keeps the best-F1 parameters."""
    if not train_pages:
        raise ValueError("training corpus is empty")
    for page in train_pages:
        if page.labels is None:
            raise ValueError("training corpus must carry gold labels")

    vocab = build_vocab(train_pages, size=model_cfg.vocab_size)
    model = Model(model_cfg, vocab)
    encoded = [model.encode_page(p) for p in train_pages]

    steps_per_epoch = (len(encoded) + train_cfg.batch_size - 1) // train_cfg.batch_size
    total = steps_per_epoch * train_cfg.epochs
    warmup = min(train_cfg.warmup_steps, total)
    optimizer = Adam(model.params, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed)

    log: list[dict] = []
    best_f1 = -1.0
    best_state: dict[str, np.ndarray] | None = None
    step = 0
    last_loss = float("nan")
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            optimizer.zero_grad()
            batch_loss = 0.0
            for i in batch:
                loss = model.loss_encoded(encoded[i]) * (1.0 / len(batch))
                if not np.isfinite(loss.data):
                    raise RuntimeError(
                        f"NaN/inf loss at step {step}; batch docs {sorted(int(j) for j in batch)}"
                    )
                loss.backward()
                batch_loss += loss.item()
            step += 1
            optimizer.step(lr=lr_schedule(step, train_cfg.lr, warmup, total))
            last_loss = batch_loss
        if (epoch + 1) % train_cfg.eval_every == 0 or epoch + 1 == train_cfg.epochs:
            report = evaluate_model(model, eval_pages) if eval_pages else None
            f1 = report.micro_f1 if report else 0.0
            lr = lr_schedule(step, train_cfg.lr, warmup, total)
            log.append({"step": step, "loss": round(last_loss, 6), "f1": round(f1, 6), "lr": lr})
            if report and f1 > best_f1:
                best_f1 = f1
                best_state = {name: p.data.copy() for name, p in model.params.items()}
    if best_state is not None:
        for name, p in model.params.items():
            p.data = best_state[name]
    else:
        best_f1 = 0.0
    if checkpoint_path is not None:
        model.save(checkpoint_path)
    return TrainResult(model=model, best_f1=max(best_f1, 0.0), metric_log=log)


def evaluate_checkpoint(checkpoint_path: str, corpus_dir: str) -> EvalReport:
    model = load_model(checkpoint_path)
    return evaluate_model(model, load_corpus(corpus_dir))


def reference_model_config(seed: int = 0) -> ModelConfig:
    """Desk-scale reference architecture: trains in minutes on a CPU."""
    return ModelConfig(
        d=64,
        heads=4,
        fine_layers=2,
        coarse_layers=1,
        grid=(4, 4),
        commonsense_k=8,
        vocab_size=2048,
        radius=30.0,
        seed=seed,
    )


def reference_train_config(seed: int = 0, epochs: int = 20) -> TrainConfig:
    """From-scratch training needs a far higher peak rate than fine-tuning
    a pretrained model, so the reference run overrides the 5e-5 default."""
    return TrainConfig(
        lr=1e-3,
        warmup_steps=100,
        epochs=epochs,
        batch_size=8,
        eval_every=4,
        seed=seed,
    )


ABLATION_AXES = ("components", "coarse_layers", "radius")


def _component_config(base: ModelConfig, run: str) -> ModelConfig:
    if run == "full":
        return base
    if run == "w/o Coarse-grained Encoder":
        return replace(base, coarse_layers=0)
    if run == "w/o Common Sense Enhancement":
        return replace(base, commonsense_k=0)
    if run == "w/o Aggregation with Cross-grained Edges":
        return replace(base, use_cross_grained=False)
    raise ValueError(f"unknown component run '{run}'")


def ablate(
    train_pages: list,
    eval_pages: list,
    base_model_cfg: ModelConfig,
    base_train_cfg: TrainConfig,
    axis: str,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[dict]:
    """Grid of training runs along one ablation axis.

    Rows are dicts with run/seed/f1/precision/recall, one per (run, seed);
    callers aggregate the seed average.
    """
    if axis not in ABLATION_AXES:
        raise ValueError(f"axis must be one of {ABLATION_AXES}, got '{axis}'")
    if axis == "components":
        variants = [(run, _component_config(base_model_cfg, run)) for run in COMPONENT_RUNS]
    elif axis == "coarse_layers":
        variants = [(f"M={m}", replace(base_model_cfg, coarse_layers=m)) for m in range(0, 6)]
    else:
        variants = [(f"r={r:g}", replace(base_model_cfg, radius=r)) for r in RADIUS_GRID]

    rows = []
    for run, model_cfg in variants:
        for seed in seeds:
            cfg = replace(model_cfg, seed=seed)
            result = train(train_pages, eval_pages, cfg, replace(base_train_cfg, seed=seed))
            report = evaluate_model(result.model, eval_pages)
            rows.append(
                {
                    "run": run,
                    "seed": seed,
                    "f1": report.micro_f1,
                    "precision": report.micro_precision,
                    "recall": report.micro_recall,
                }
            )
    return rows


def seed_averages(rows: list[dict]) -> dict[str, float]:
    by_run: dict[str, list[float]] = {}
    for row in rows:
        by_run.setdefault(row["run"], []).append(row["f1"])
    return {run: float(np.mean(scores)) for run, scores in by_run.items()}


def write_ablation_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["run", "seed", "f1", "precision", "recall"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def load_config_file(path: str) -> tuple[ModelConfig, TrainConfig]:
    """JSON config with optional "model" and "train" sections."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and all(isinstance(data.get(k, {}), dict) for k in ("model", "train"))):
        raise ValueError(f"{path}: the config and its 'model' and 'train' sections must be JSON objects")
    unknown = set(data) - {"model", "train"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    return (
        ModelConfig.from_dict(data.get("model", {})),
        TrainConfig.from_dict(data.get("train", {})),
    )


def split_corpus(pages: list, holdout: float = 0.1) -> tuple[list, list]:
    """Deterministic train/eval split: the trailing fraction is held out."""
    if not 0.0 < holdout < 1.0:
        raise ValueError("holdout must be in (0, 1)")
    n_eval = max(1, int(round(len(pages) * holdout)))
    if n_eval >= len(pages):
        raise ValueError("corpus too small to split")
    return pages[:-n_eval], pages[-n_eval:]
