#!/usr/bin/env python3
"""CHAP under fire: watch convergent history agreement ride out a storm.

Runs a 6-node CHAP ensemble through a hostile phase — adversarial message
loss, false collision indications, an unconverged contention manager —
followed by stabilisation, and prints the per-instance colour spread and
output behaviour.  Safety (agreement, validity) holds throughout; the
moment the environment stabilises, every instance turns green
(Theorems 10, 12, 13 of the paper).

The hostile world is one declarative scenario; the spec checkers run as
invariants of the experiment itself and come back as verdicts.

Run:  python examples/cha_under_fire.py
"""

from repro import scenario
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary
from repro.types import BOTTOM

STABILIZE_AT = 60  # real round: instance 20


def main() -> None:
    result = (
        scenario()
        .nodes(6).instances(40)
        .cha()
        .adversary(RandomLossAdversary(p_drop=0.45, p_false=0.3, seed=2008))
        .detector(EventuallyAccurateDetector(racc=STABILIZE_AT))
        .contention(LeaderElectionCM(stable_round=STABILIZE_AT,
                                     chaos="random", seed=7))
        .radio(rcf=STABILIZE_AT)
        .metrics("color_divergence", "convergence_instance",
                 "max_message_size")
        .invariants("validity", "agreement")
        .run()
    )
    result.assert_ok()
    print("safety: validity ✓  agreement ✓ (checked over every output)")

    print("\ninstance | colours (6 nodes)            | node-0 output")
    for k in range(1, 41):
        colors = result.colors_at(k)
        cell = " ".join(c.name[0] for _, c in sorted(colors.items()))
        out = dict(result.outputs[0]).get(k, BOTTOM)
        out_text = "⊥" if out is BOTTOM else f"history(len={out.length})"
        marker = "  <- stabilised" if k == 21 else ""
        print(f"  {k:6d} | {cell:28s} | {out_text}{marker}")

    print("\ncolour divergence histogram (Property 4 says support ⊆ {0,1}):",
          result.metrics["color_divergence"])
    print("liveness convergence instance:",
          result.metrics["convergence_instance"])
    print("max message size over the whole run:",
          result.metrics["max_message_size"], "bytes (constant, Theorem 14)")


if __name__ == "__main__":
    main()
