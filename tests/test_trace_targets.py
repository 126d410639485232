"""Every binding that ``perfbench/tracer.py`` wraps still exists.

A renamed or moved function makes the tracer report an absent hook and
drop its span; this catches that in the unit suite. The tracer is read
from its file and executed here, without importing the ``perfbench``
directory or writing anything into it.
"""

import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = load_tracer()

# Counter hooks the tracer still names but the package no longer has:
# page encoding replaced ``graph.iou`` with one IOU matrix per page, and
# dropping the counter is a change to the benchmark itself.
KNOWN_ABSENT = ("docgrain.graph:iou",)

SPAN_TARGETS = [(span, target) for span, targets in tracer.SPANS.items() for target in targets]
COUNTER_TARGETS = [
    (counter, target)
    for counter, targets in tracer.COUNTERS.items()
    for target in targets
    if target not in KNOWN_ABSENT
]


@pytest.mark.parametrize("span, target", SPAN_TARGETS, ids=[t for _, t in SPAN_TARGETS])
def test_span_target_resolves(span, target):
    assert tracer._resolve(target) is not None, f"span {span}: {target} does not resolve"


def test_every_span_has_a_target():
    assert tracer.SPANS and all(tracer.SPANS.values())


@pytest.mark.parametrize("counter, target", COUNTER_TARGETS, ids=[t for _, t in COUNTER_TARGETS])
def test_counter_target_resolves(counter, target):
    assert tracer._resolve(target) is not None, f"counter {counter}: {target} does not resolve"


@pytest.mark.parametrize("target", KNOWN_ABSENT)
def test_known_absent_target_is_named_and_absent(target):
    # Fails once the tracer drops the hook or the package grows it back:
    # either way the exemption has to go.
    assert any(target in targets for targets in tracer.COUNTERS.values()), f"{target} is no longer a counter"
    assert tracer._resolve(target) is None, f"{target} resolves again"
