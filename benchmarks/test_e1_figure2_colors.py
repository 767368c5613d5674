"""E1 — Figure 2: the collision-pattern -> colour -> output table.

Reproduces the paper's Figure 2 by injecting collisions into exactly one
phase combination per row (via scripted false-collision indications at a
single victim node) and reading back the victim's colour and output.

Each row is one declarative :class:`~repro.experiment.ExperimentSpec`:
the scripted adversary is the only thing that varies across rows.
"""

from repro import scenario
from repro.detectors import EventuallyAccurateDetector
from repro.net import ScriptedAdversary
from repro.types import BOTTOM

#: Figure 2 rows: (ballot ok, veto-1 ok, veto-2 ok) -> expected colour.
ROWS = [
    ((True, True, True), "GREEN", "history"),
    ((True, True, False), "YELLOW", "⊥"),
    ((True, False, False), "ORANGE", "⊥"),
    ((False, False, False), "RED", "⊥"),
]

VICTIM = 1  # a non-leader node experiences the collisions


def run_pattern(pattern):
    """One ensemble where instance 2 shows ``pattern`` at the victim."""
    ballot_ok, v1_ok, v2_ok = pattern
    # Instance 2 occupies rounds 3,4,5.
    script = []
    if not ballot_ok:
        script.append((3, VICTIM))
    if not v1_ok:
        script.append((4, VICTIM))
    if not v2_ok:
        script.append((5, VICTIM))
    run = (
        scenario()
        .nodes(3).instances(4)
        .cha()
        .adversary(ScriptedAdversary(false_script=script))
        .detector(EventuallyAccurateDetector(racc=100))
        .run()
    )
    color = run.colors_at(2)[VICTIM]
    output = dict(run.outputs[VICTIM])[2]
    return color, output, run


def test_e1_figure2_table(benchmark, report):
    results = benchmark.pedantic(
        lambda: [run_pattern(p) for p, _, _ in ROWS],
        rounds=1, iterations=1,
    )
    rows = []
    for (pattern, want_color, want_output), (color, output, run) in zip(ROWS, results):
        marks = "".join("✓" if ok else "X" for ok in pattern)
        out_text = "⊥" if output is BOTTOM else "history"
        rows.append([marks[0], marks[1], marks[2], color.name, out_text,
                     f"paper: {want_color}/{want_output}"])
        assert color.name == want_color
        assert out_text == ("history" if want_output == "history" else "⊥")
        if output is not BOTTOM:
            assert output.length == 2
    report(
        ["ballot", "veto-1", "veto-2", "colour", "output", "expected"],
        rows,
        title="E1 / Figure 2 — collision pattern vs replica colour and output",
    )
