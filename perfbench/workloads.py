"""One process of the docgrain benchmark: set up a workload, or measure it.

    python3 perfbench/workloads.py setup   --workload W --seed N --dir D [--size tiny]
    python3 perfbench/workloads.py measure --workload W --seed N --dir D --seconds S --trace 0|1
    python3 perfbench/workloads.py refs    --seeds 0-19 [--workload W]

``setup`` synthesizes the corpora from the seed, writes them to D and, for
the eval workloads, trains the checkpoint there with ``train()``. It prints
its own wall time, and that time scaled to the reference host speed.
``measure`` calls ``train()`` or ``evaluate_checkpoint()`` exactly as a
user does, again and again for S seconds, then checks the outputs and
prints one JSON line. ``refs``
rewrites refs.json, the per-seed references the checks compare against, for
every workload or only for W.
run.py drives the first two; see NOTES.md for why each workload exists.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported: OpenBLAS sizes its pool at load time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"
# train_loss_end must match the stored reference to this relative error;
# reordered float64 sums move it by far less.
LOSS_REL_TOL = 1e-6
GRAD_SAMPLE = 4  # documents whose no_grad tags are checked against a grad-on pass
CAL_REPEATS = 2  # host-speed calibration samples between two timed calls

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import docgrain  # noqa: E402

if Path(docgrain.__file__).resolve().parent != SRC / "docgrain":
    raise ImportError(f"docgrain imported from {docgrain.__file__}, not from {SRC}")

from docgrain.labeling import F1Accumulator, bio_decode  # noqa: E402
from docgrain.model import load_model  # noqa: E402
from docgrain.synth import SynthParams, load_corpus, save_corpus, synth_generate  # noqa: E402
from docgrain.tensor import no_grad  # noqa: E402
from docgrain.training import (  # noqa: E402
    evaluate_checkpoint,
    reference_model_config,
    reference_train_config,
    train,
)

import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": train() is timed; "eval": evaluate_checkpoint() is timed
    synth: SynthParams
    grid: tuple[int, int]
    n_train: int  # pages given to train(): timed for "train", set-up for "eval"
    epochs: int
    n_eval: int  # pages in the on-disk eval corpus (eval workloads only)


DENSE = SynthParams(page_height=2600, min_kv_pairs=12, max_kv_pairs=24, max_list_blocks=6, max_noise_lines=6)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-forms", "train", SynthParams(), (4, 4), n_train=128, epochs=2, n_eval=0),
        Workload("eval-forms", "eval", SynthParams(), (4, 4), n_train=32, epochs=2, n_eval=192),
        Workload("eval-dense", "eval", DENSE, (7, 7), n_train=24, epochs=1, n_eval=128),
    )
}


def sized(wl: Workload, size: str) -> Workload:
    """The full workload, or a seconds-long miniature of it for the self test."""
    if size == "full":
        return wl
    return replace(wl, n_train=6, epochs=1, n_eval=4 if wl.kind == "eval" else 0)


def corpus_seed(seed: int, stream: int) -> int:
    # Training and eval corpora come from separate streams of one seed.
    return seed * 16 + stream


def model_config(wl: Workload):
    # The reference configurations at their own fixed seed: --seed picks the
    # corpora only, so train_loss_end varies with the data, not the init.
    return replace(reference_model_config(), grid=wl.grid)


# -- host speed ----------------------------------------------------------------


class _Node:
    __slots__ = ("data", "parent")

    def __init__(self, data, parent=None):
        self.data = data
        self.parent = parent


_CAL_RNG = np.random.default_rng(0)
_CAL_W = _CAL_RNG.standard_normal((32, 32)) * 0.1
_CAL_X = _CAL_RNG.standard_normal((32, 32))


def _cal_interpreter() -> None:
    acc = 0
    for i in range(300_000):
        acc += i * i % 7


def _cal_tape() -> None:
    # Small numpy calls on a chain of slotted objects, forward then back:
    # the autodiff tape's mix of interpreter and numpy dispatch.
    x = _Node(_CAL_X)
    for _ in range(450):
        x = _Node(np.tanh(x.data @ _CAL_W), x)
    g = np.ones_like(x.data)
    while x.parent is not None:
        g = (g * (1.0 - x.data * x.data)) @ _CAL_W.T
        x = x.parent


# Each kernel with its time on the reference host (see NOTES.md, Noise).
CAL_KERNELS = ((_cal_interpreter, 0.031), (_cal_tape, 0.0095))


def calibration_sample() -> float:
    """How slow the host is now, relative to the reference host (1.0).

    Two fixed kernels that use no docgrain code, each timed against its
    time on the reference host; the sample is the geometric mean of the
    two ratios. The host's speed drifts by 10-40 % over seconds to
    minutes, and docgrain's calls follow it (see NOTES.md, Noise)."""
    product = 1.0
    for kernel, ref_s in CAL_KERNELS:
        t0 = time.perf_counter()
        kernel()
        product *= (time.perf_counter() - t0) / ref_s
    return math.sqrt(product)


def calibrations(n: int = CAL_REPEATS) -> list[float]:
    return [calibration_sample() for _ in range(n)]


def host_scale(cals: list[float]) -> float:
    """Factor from this host's current speed to the reference speed: below 1
    when the host is faster than the reference."""
    return statistics.median(cals)


# -- set-up --------------------------------------------------------------------


def setup(wl: Workload, seed: int, out: Path) -> float:
    """Write the corpora (and the eval checkpoint) into ``out``; returns the
    seconds this took, not counting the removal of an earlier ``out``."""
    if out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    out.mkdir(parents=True)
    save_corpus(synth_generate(corpus_seed(seed, 0), wl.n_train, wl.synth), str(out / "train_corpus"))
    pages = load_corpus(str(out / "train_corpus"))
    if wl.kind == "eval":
        save_corpus(synth_generate(corpus_seed(seed, 1), wl.n_eval, wl.synth), str(out / "eval_corpus"))
        train(pages, [], model_config(wl), reference_train_config(epochs=wl.epochs), str(out / "model.ckpt"))
    return time.perf_counter() - start


# -- checks --------------------------------------------------------------------


def tag_digest(tags: list[str]) -> str:
    return hashlib.sha256("\n".join(tags).encode("utf-8")).hexdigest()[:8]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Failure accounting: a failing document is counted, never fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.run_errors: list[str] = []

    def doc_failed(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)

    def run_failed(self, what: str) -> None:
        self.run_errors.append(what)
        print(f"check failed: {what}", file=sys.stderr)


def word_tags_with_grad(model, enc) -> list[str]:
    """predict_word_tags recomputed with the tape on: same ops, recorded."""
    logits = model.logits_encoded(enc).data
    return [
        model.tag_set.id_tag(int(logits[t].argmax()))
        for t in range(enc.n_text)
        if enc.tokens.first_subtoken[t]
    ]


def check_tags(model, pages, ref_digests, checks: Checks) -> tuple[list, F1Accumulator]:
    """One valid BIO tag per word, no_grad == grad-on on a sample, and the
    stored per-document digests when the seed has references."""
    valid = set(model.tag_set.tags)
    sample = set(range(0, len(pages), max(1, len(pages) // GRAD_SAMPLE)))
    digests: list[str | None] = []
    micro = F1Accumulator()
    for i, page in enumerate(pages):
        checks.attempted += 1
        digest = None
        try:
            enc = model.encode_page(page)
            tags = model.predict_word_tags(enc)
            micro.add(bio_decode(tags), bio_decode(page.labels))
            digest = tag_digest(tags)
            if len(tags) != page.n_words or not set(tags) <= valid:
                checks.doc_failed(f"doc {i}: {len(tags)} tags for {page.n_words} words, or an invalid tag")
            elif i in sample and word_tags_with_grad(model, enc) != tags:
                checks.doc_failed(f"doc {i}: no_grad tags differ from the grad-on argmax")
            elif ref_digests is not None and digest != ref_digests[i]:
                checks.doc_failed(f"doc {i}: predicted tags differ from the stored reference")
        except Exception as exc:  # a raising document is counted, not fatal
            checks.doc_failed(f"doc {i}: {type(exc).__name__}: {exc}")
        digests.append(digest)
    return digests, micro


def mean_loss(model, pages, checks: Checks) -> float:
    """Mean per-document loss of the trained model over its training pages."""
    losses = []
    with no_grad():
        for i, page in enumerate(pages):
            checks.attempted += 1
            try:
                loss = model.loss_encoded(model.encode_page(page)).item()
            except Exception as exc:  # a raising document is counted, not fatal
                checks.doc_failed(f"train doc {i}: {type(exc).__name__}: {exc}")
                continue
            if not math.isfinite(loss):
                checks.doc_failed(f"train doc {i}: loss {loss}")
                continue
            losses.append(loss)
    return statistics.fmean(losses) if losses else float("nan")


# -- measurement ---------------------------------------------------------------


def timed(call, seconds: float, min_calls: int = 1, recorder=None, cals: list | None = None):
    """Run ``call`` until ``seconds`` have passed; returns (walls, outputs).

    ``call`` is a pair: the timed function, and an untimed one that turns
    its result into the output kept for the checks. When ``cals`` is a
    list, calibration samples are appended to it before every call and
    after the last one, outside the calls' times."""
    fn, keep = call
    walls, outs = [], []
    start = time.perf_counter()
    while len(walls) < min_calls or time.perf_counter() - start < seconds:
        if cals is not None:
            cals += calibrations()
        if recorder is not None:
            recorder.begin_call()
            root = recorder.open("benchmark.timed_call")
        t0 = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.close(root)
        outs.append(keep(result))
    if cals is not None:
        cals += calibrations()
    return walls, outs


def load_refs() -> dict:
    """Stored references keyed "<workload>/<seed>", for full-size runs."""
    if not REFS_PATH.exists():
        return {}
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def measure(wl: Workload, work: Path, seconds: float, trace: bool, ref: dict | None) -> dict:
    """Time the workload's call for ``seconds``, then check its outputs,
    against ``ref`` (this seed's stored references) when given."""
    train_pages = load_corpus(str(work / "train_corpus"))
    mcfg, tcfg = model_config(wl), reference_train_config(epochs=wl.epochs)
    if wl.kind == "train":
        ckpt = work / "trained.ckpt"
        docs_per_call = wl.epochs * wl.n_train

        call = (
            lambda: train(train_pages, [], mcfg, tcfg, str(ckpt)),
            lambda result: (result.metric_log, file_digest(ckpt)),
        )
    else:
        ckpt = work / "model.ckpt"
        docs_per_call = wl.n_eval
        call = (
            lambda: evaluate_checkpoint(str(ckpt), str(work / "eval_corpus")),
            lambda report: report.micro_f1,
        )

    if trace:
        # The untraced half gives the baseline for the tracing overhead.
        base_walls, outs = timed(call, seconds / 2)
        recorder = tracer.Recorder()
        recorder.install()
        if recorder.absent:
            print(f"trace hooks absent: {', '.join(recorder.absent)}", file=sys.stderr)
        recorder.active = True
        walls, traced_outs = timed(call, 0.0, min_calls=len(base_walls), recorder=recorder)
        recorder.active = False
        outs += traced_outs
    else:
        cals: list[float] = []
        walls, outs = timed(call, seconds, cals=cals)
    # Peak memory of the timed calls, before the checks add their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = Checks()
    if len(set(map(repr, outs))) != 1:
        checks.run_failed("repeated calls with one seed gave different outputs")
    if wl.kind == "train":
        for record in outs[0][0]:
            if not math.isfinite(record["loss"]):
                checks.run_failed(f"non-finite training loss in log: {record}")
    model = load_model(str(ckpt))
    train_loss_end = mean_loss(model, train_pages, checks)
    if ref is not None and not math.isclose(train_loss_end, ref["train_loss_end"], rel_tol=LOSS_REL_TOL):
        checks.run_failed(f"train_loss_end {train_loss_end!r} != reference {ref['train_loss_end']!r}")
    checked_pages = train_pages if wl.kind == "train" else load_corpus(str(work / "eval_corpus"))
    if ref is not None and len(ref["doc_tags"]) != len(checked_pages):
        checks.run_failed(f"refs.json holds {len(ref['doc_tags'])} documents, the workload {len(checked_pages)}")
        ref = None
    digests, micro = check_tags(model, checked_pages, ref and ref["doc_tags"], checks)
    if wl.kind == "eval" and micro.scores()[2] != outs[0]:
        checks.run_failed(f"evaluate_checkpoint F1 {outs[0]!r} != F1 of checked tags {micro.scores()[2]!r}")

    if trace:
        recorder.dump(work / "spans.jsonl")
        overhead = statistics.median(walls) / statistics.median(base_walls)
        metrics = recorder.metrics(sum(walls), len(walls), docs_per_call, overhead)
    else:
        # The median wall-time rate, scaled to the reference host speed.
        rates = [docs_per_call / w for w in walls]
        metrics = {
            "docs_per_s": {"value": statistics.median(rates) * host_scale(cals), "unit": "docs/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "train_loss_end": {"value": train_loss_end, "unit": "nats"},
        }
    return {
        "correct": checks.failed == 0 and not checks.run_errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "calls": len(walls),
        "call_s": [round(w, 6) for w in walls],
        "wall_docs_per_s": statistics.median(docs_per_call / w for w in walls),
        "host_scale": None if trace else host_scale(cals),
        "train_loss_end": train_loss_end,
        "doc_tags": digests,
        "env": environment(),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
    }


def write_refs(names: list[str], seeds: list[int], work: Path) -> None:
    refs = load_refs()
    for name in names:
        wl = WORKLOADS[name]
        for seed in seeds:
            setup(wl, seed, work)
            out = measure(wl, work, 0.0, False, None)
            if not out["correct"]:
                raise RuntimeError(f"{name} seed {seed} failed its own checks")
            refs[f"{name}/{seed}"] = {"train_loss_end": out["train_loss_end"], "doc_tags": out["doc_tags"]}
            print(f"{name} seed {seed}: train_loss_end {out['train_loss_end']:.6f}", flush=True)
    shutil.rmtree(work)
    # One line per workload and seed keeps the file short and diffable.
    order = sorted(refs, key=lambda key: (key.split("/")[0], int(key.split("/")[1])))
    lines = [f"  {json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in order]
    REFS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=("setup", "measure", "refs"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", default="0-19", help="refs: inclusive seed range, e.g. 0-19")
    args = parser.parse_args(argv)

    if args.role == "refs":
        lo, _, hi = args.seeds.partition("-")
        names = [args.workload] if args.workload else list(WORKLOADS)
        write_refs(names, list(range(int(lo), int(hi or lo) + 1)), ROOT / ".perfbench_work" / "refs")
        return 0
    wl = sized(WORKLOADS[args.workload], args.size)
    if args.role == "setup":
        # Scaled like docs_per_s, by calibrations taken just before and after.
        cals = calibrations(3)
        wall = setup(wl, args.seed, args.dir)
        cals += calibrations(3)
        print(json.dumps({"setup_s": wall / host_scale(cals), "setup_wall_s": wall}))
    else:
        ref = load_refs().get(f"{wl.name}/{args.seed}") if args.size == "full" else None
        print(json.dumps(measure(wl, args.dir, args.seconds, bool(args.trace), ref)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
