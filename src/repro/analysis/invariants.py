"""Runtime invariant checkers for the paper's lemmas (Section 3.6).

These complement :mod:`repro.core.spec` (the black-box CHA requirements)
with glass-box checks against protocol internals: colours, prev-instance
pointers, and detector behaviour.  Each checker raises
:class:`~repro.errors.SpecViolation` with reproduction context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..core.spec import log_instances
from ..errors import SpecViolation
from ..types import BOTTOM, Color, Instance, NodeId

if TYPE_CHECKING:  # pragma: no cover - repro.experiment sits above this
    from ..experiment.result import ExperimentResult


def check_property4(run: ExperimentResult) -> None:
    """No two nodes' colours for an instance differ by more than a shade."""
    for k in range(1, run.instances + 1):
        colors = run.colors_at(k)
        if not colors:
            continue
        lo_node = min(colors, key=lambda n: colors[n])
        hi_node = max(colors, key=lambda n: colors[n])
        spread = colors[lo_node].shade_distance(colors[hi_node])
        if spread > 1:
            raise SpecViolation(
                f"Property 4: instance {k} colours span {spread} shades "
                f"({colors[lo_node].name} at node {lo_node} vs "
                f"{colors[hi_node].name} at node {hi_node})",
                context={"instance": k, "colors": dict(colors)},
            )


def check_lemma5(run: ExperimentResult) -> None:
    """Green implies everyone green/yellow; red implies everyone red/orange."""
    for k in range(1, run.instances + 1):
        colors = run.colors_at(k).values()
        if Color.GREEN in colors and any(c <= Color.ORANGE for c in colors):
            raise SpecViolation(
                f"Lemma 5: instance {k} is green somewhere yet "
                "orange-or-worse elsewhere",
                context={"instance": k},
            )
        if Color.RED in colors and any(c >= Color.YELLOW for c in colors):
            raise SpecViolation(
                f"Lemma 5: instance {k} is red somewhere yet "
                "yellow-or-better elsewhere",
                context={"instance": k},
            )


def check_lemma6(run: ExperimentResult) -> None:
    """No output history includes an instance any surviving node holds red.

    (The lemma quantifies over all nodes; crashed nodes' final colours
    are not observable through surviving state, so the check covers the
    survivors — the universe the emulation cares about.)
    """
    red_at: set[Instance] = {
        k for k in range(1, run.instances + 1)
        if Color.RED in run.colors_at(k).values()
    }
    for node, log in run.outputs.items():
        for k_out, out in log:
            if out is BOTTOM:
                continue
            included_reds = red_at & set(out.included_instances)
            if included_reds:
                raise SpecViolation(
                    f"Lemma 6: node {node}'s output at {k_out} includes "
                    f"red instances {sorted(included_reds)}",
                    context={"node": node, "instance": k_out},
                )


def check_lemma9(run: ExperimentResult) -> None:
    """Every green instance is included in every later output history."""
    greens = [
        k for k in range(1, run.instances + 1)
        if Color.GREEN in run.colors_at(k).values()
    ]
    for node, log in run.outputs.items():
        for k_out, out in log:
            if out is BOTTOM:
                continue
            # One scan of the output's entries, not a chain walk per green.
            included = set(out.included_instances)
            for g in greens:
                if g <= k_out and g not in included:
                    raise SpecViolation(
                        f"Lemma 9: green instance {g} missing from node "
                        f"{node}'s output at instance {k_out}",
                        context={"node": node, "green": g, "at": k_out},
                    )


def check_prev_pointer_discipline(run: ExperimentResult) -> None:
    """``prev-instance`` points at the node's latest *completed* good
    instance.

    An instance the node began but never finished (it crashed mid-
    instance) still carries the initial green status; only instances with
    a recorded output count.
    """
    for node, proc in run.processes.items():
        core = proc.core
        completed = set(log_instances(core.outputs))
        goods = [
            k for k, c in core.status.items()
            if c.is_good and k in completed
        ]
        expected = max(goods, default=getattr(core, "checkpoint_instance", 0))
        if core.prev_instance != expected:
            raise SpecViolation(
                f"prev-instance discipline: node {node} holds "
                f"{core.prev_instance}, expected {expected}",
                context={"node": node},
            )


def check_all_invariants(run: ExperimentResult) -> None:
    """All glass-box lemma checks in one call (used by soak tests)."""
    check_property4(run)
    check_lemma5(run)
    check_lemma6(run)
    check_lemma9(run)
    check_prev_pointer_discipline(run)


#: Name -> checker: the single source of truth for the glass-box lemma
#: checks.  The experiment runner builds its invariant registry from
#: this mapping, and :func:`collect_violations` enumerates it.
GLASS_BOX_CHECKERS = {
    "property4": check_property4,
    "lemma5": check_lemma5,
    "lemma6": check_lemma6,
    "lemma9": check_lemma9,
    "prev_pointer": check_prev_pointer_discipline,
}


def collect_violations(run: ExperimentResult) -> dict[str, SpecViolation]:
    """Run every glass-box checker, returning *all* failures (not just
    the first) keyed by checker name.

    Unlike :func:`check_all_invariants` this never raises — handy when
    debugging an :class:`~repro.experiment.ExperimentResult` by hand,
    where the complete violation set with each
    :attr:`~repro.errors.SpecViolation.context` intact (violating
    instance, nodes, colours) beats dying on the first failure.
    """
    violations: dict[str, SpecViolation] = {}
    for name, checker in GLASS_BOX_CHECKERS.items():
        try:
            checker(run)
        except SpecViolation as exc:
            violations[name] = exc
    return violations


def first_violation(run: ExperimentResult) -> SpecViolation | None:
    """The first glass-box violation in checker order, or ``None``."""
    for exc in collect_violations(run).values():
        return exc
    return None
