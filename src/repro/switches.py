"""The reference switches: one frozen value, one spelling.

Every optimised subsystem ships beside a deliberately simple *reference
twin* that the differential suites pin it byte-identical against.  A
:class:`Switches` value says, per axis, which of the two runs.  A run
takes it from ``ExperimentSpec.switches`` (default: ``Switches()``, the
production stack) and hands it down whole: every layer that builds
another layer passes the same value on, and a leaf reads the one field
it consumes.  A component built by hand takes the same ``switches=``
argument, with the same default.

:data:`AXES` is the single declarative table of the axes; it drives the
table in ``docs/REFERENCE_SWITCHES.md`` (under the ``-m docs`` drift
gate) and the table-driven switch tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Axis:
    """One row of the switch table."""

    #: The :class:`Switches` field.
    name: str
    #: The optimised path (the default).
    fast: str
    #: The reference twin it is pinned against.
    twin: str
    #: The suite pinning the two byte-identical.
    suite: str


AXES: tuple[Axis, ...] = (
    Axis("channel",
         "spatial-grid neighbour index (`Channel._deliver_indexed`)",
         "all-pairs scan (`Channel._deliver_reference`)",
         "`tests/net/test_differential.py` (`-m fast`)"),
    Axis("engine",
         "batched round dispatch with its position/contender caches, "
         "a lockstep cohort stepped once per round as one ensemble "
         "(`Simulator._step_batched`)",
         "the seed per-node round loop, no caches, no ensembles: "
         "cohort members fork into singletons (`Simulator._step_reference`)",
         "`tests/net/test_engine_differential.py` (`-m fast`), "
         "`tests/core/test_ensemble_differential.py` "
         "(`-m core_differential`)"),
    Axis("history",
         "interned incremental history chains (`HistoryChain`)",
         "re-walking fold (`calculate_history_reference`)",
         "`tests/core/test_history_differential.py` (`-m fast`)"),
    Axis("core",
         "slotted array core over a cohort store, one per lockstep "
         "cluster, keeping the adopted wire ballot as the reference "
         "does (`SlottedChaCore`)",
         "dict-based seed core (`ChaCore`), one per node",
         "`tests/core/test_core_differential.py`, "
         "`tests/core/test_cohort.py` (`-m core_differential`)"),
    Axis("vi",
         "phase-table VI emulation engine; a site's deployed replicas "
         "are stepped once per phase as one cohort when the program's "
         "`init_state()` hands them one object (`VIRoundEngine`)",
         "per-device dispatch, one `Simulator.step` per real round, "
         "every replica stepped alone",
         "`tests/vi/test_vi_differential.py` (`-m vi_differential`)"),
)


@dataclass(frozen=True)
class Switches:
    """Which twin runs on each axis.

    A field set to ``True`` means "use the reference twin".  The default
    value is the production stack.
    """

    channel: bool = False
    engine: bool = False
    history: bool = False
    core: bool = False
    vi: bool = False

    #: Every reference twin at once — the oracle the goldens, the
    #: fast-path ratio test and the differential suites compare against.
    REFERENCE: ClassVar["Switches"]


Switches.REFERENCE = Switches(**{axis.name: True for axis in AXES})


def markdown_table() -> str:
    """The :data:`AXES` table as ``docs/REFERENCE_SWITCHES.md`` carries it."""
    rows = ["| axis | fast path | reference twin | differential suite |",
            "| --- | --- | --- | --- |"]
    rows += [f"| `{a.name}` | {a.fast} | {a.twin} | {a.suite} |"
             for a in AXES]
    return "\n".join(rows)
