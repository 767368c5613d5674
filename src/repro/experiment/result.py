"""The uniform result every experiment run produces.

Whatever the protocol — a CHAP ensemble, a baseline, the off-channel 3PC
comparator, or a whole virtual-infrastructure deployment — running a spec
yields one :class:`ExperimentResult` carrying the requested metrics, the
invariant verdicts, and protocol-appropriate handles (the simulator and
the per-node processes, the :class:`~repro.vi.world.VIWorld`, the live
client programs, ...) for deeper inspection.  The CHAP families' glass-box
reads (:meth:`~ExperimentResult.colors_at`,
:meth:`~ExperimentResult.history_of`, ...) are what the
:mod:`repro.analysis` metrics and lemma checkers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.history import History
from ..core.spec import OutputLog
from ..errors import ConfigurationError
from ..net import Simulator, Trace
from ..types import Color, Instance, NodeId, Value
from ..vi.client import ClientProgram
from ..vi.world import VIWorld
from .spec import ExperimentSpec

#: Verdict value meaning an invariant held.
OK = "ok"


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    spec: ExperimentSpec
    #: Requested metric name -> value (picklable primitives/containers).
    metrics: dict[str, Any]
    #: Invariant name -> ``"ok"`` or ``"violated: <message>"``.
    invariants: dict[str, str]
    #: For each violated invariant, the checker's reproduction context
    #: (:attr:`~repro.errors.SpecViolation.context` — violating
    #: instance, nodes, colours).  The fault shrinker mines this for
    #: horizon hints.
    violation_context: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Per-node output logs (agreement-protocol families; else None).
    #: Sequences of ``(instance, output)`` pairs that may be live views
    #: over the cores' logs; ``list(log)`` materialises one.
    outputs: dict[NodeId, OutputLog] | None = None
    #: Per-node proposals (CHA families; else None).
    proposals: dict[NodeId, Mapping[Instance, Value]] | None = None
    #: The execution trace (None when keep_trace=False or off-channel).
    trace: Trace | None = None
    simulator: Simulator | None = None
    #: Agreement instances the workload ran (cluster worlds; else None).
    instances: Instance | None = None
    #: The deployment handle for VI emulations.
    world: VIWorld | None = None
    processes: dict[NodeId, Any] = field(default_factory=dict)
    #: Live client programs of a deployment, keyed by node id.
    clients: dict[NodeId, ClientProgram] = field(default_factory=dict)
    #: Clients (and their node ids) by DeviceSpec.name.
    named_clients: dict[str, ClientProgram] = field(default_factory=dict)
    #: The 3PC comparator's decision / participants.
    decision: Any = None
    participants: list[Any] = field(default_factory=list)
    #: Execution timings filled in by the runner, exactly these keys:
    #: ``wall_s`` (seconds spent building + driving the run) and, for
    #: every protocol but the off-channel 3PC comparator, ``rounds``
    #: and ``rounds_per_sec``.
    timings: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def ok(self) -> bool:
        """True when every checked invariant held."""
        return all(v == OK for v in self.invariants.values())

    def assert_ok(self) -> None:
        """Raise ``AssertionError`` listing any violated invariants."""
        bad = {k: v for k, v in self.invariants.items() if v != OK}
        assert not bad, f"invariants violated: {bad}"

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def client(self, name: str) -> ClientProgram:
        """The live client program of the device named ``name``."""
        try:
            return self.named_clients[name]
        except KeyError:
            raise ConfigurationError(
                f"no client device named {name!r}; known: "
                f"{sorted(self.named_clients)}"
            ) from None

    def surviving_nodes(self) -> list[NodeId]:
        """Nodes alive at the end of the execution."""
        return [node for node in self.processes
                if self.simulator.alive(node)]

    def colors_at(self, k: Instance) -> dict[NodeId, Color]:
        """Colour each *surviving* node assigned to instance ``k``
        (CHAP families)."""
        alive = self.simulator.alive
        return {
            node: proc.core.color_of(k)
            for node, proc in self.processes.items()
            if alive(node)
        }

    def history_of(self, node: NodeId) -> History | None:
        """The history ``node`` last decided (CHAP families)."""
        return self.processes[node].core.decided_history()

    def summary(self) -> dict[str, Any]:
        """The picklable core of the result (what sweep workers return)."""
        return {"metrics": self.metrics, "invariants": self.invariants}
