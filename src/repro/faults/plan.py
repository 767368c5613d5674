"""Composable, seeded fault-plan primitives.

A :class:`FaultPlan` is an *inert, declarative* description of everything
hostile about an execution: crash waves, region partitions, message
storms, targeted sender suppression, detector-noise bursts, mobility
churn.  Plans are frozen dataclasses — they pickle, compare, print an
eval-able repr (the shrinker emits reproducers from it), and compile
down to the existing environment interfaces
(:class:`~repro.net.Adversary`, :class:`~repro.net.CrashSchedule`,
:class:`~repro.net.MobilityModel`) only when a run materialises them.

The paper's conditional guarantees shape the vocabulary: adversarial
drops are arbitrary before the channel-stabilisation round ``rcf``,
detector false positives are allowed before the accuracy round ``racc``
(Property 2), and crashes may hit at any point of a send step.  Each
primitive therefore declares the ``rcf``/``racc`` it needs
(:meth:`FaultPrimitive.rcf_requirement` /
:meth:`~FaultPrimitive.racc_requirement`), and
:func:`repro.faults.compile.materialize` raises the world's
stabilisation rounds to cover every primitive, keeping plans inside the
model — the invariants being checked remain theorems, so any violation
the explorer finds is a genuine bug.

Every primitive also knows how to :meth:`~FaultPrimitive.shrink_variants`
itself — yield strictly "smaller" copies of itself — which is what lets
:mod:`repro.faults.shrink` minimise a failing plan deterministically.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, replace
from random import Random
from typing import Iterable, Iterator

from ..geometry import Point
from ..net.adversary import (
    Adversary,
    NoiseBurstAdversary,
    PartitionAdversary,
    RandomLossAdversary,
    TargetedDropAdversary,
    WindowAdversary,
)
from ..net.mobility import MobilityModel, RandomWaypointMobility
from ..net.node import Crash, CrashPoint
from ..types import NodeId, Round

#: Sentinel stabilisation round for primitives whose ``until`` is None:
#: the environment is hostile "forever" (safety checks still apply, but
#: liveness cannot be expected).
NEVER: Round = 10**9


def subseed(seed: int, index: int, salt: int) -> int:
    """A stable per-primitive seed; no ``hash()`` so it survives forks."""
    return (seed * 1_000_003 + index * 7919 + salt) & 0x7FFF_FFFF


class FaultPrimitive(ABC):
    """One declarative ingredient of a :class:`FaultPlan`.

    Subclasses are frozen dataclasses whose fields are plain picklable
    values with eval-able reprs.  All hooks are pure functions of
    ``(self, n, seed)``, so the same plan materialises identically in
    every process.
    """

    def rcf_requirement(self) -> Round:
        """First round from which this primitive drops no messages."""
        return 0

    def racc_requirement(self) -> Round:
        """First round from which this primitive injects no false
        collisions."""
        return 0

    def adversary(self, n: int, seed: int) -> Adversary | None:
        """The channel-interference component, or ``None``."""
        return None

    def crashes(self, n: int, seed: int) -> tuple[Crash, ...]:
        """Crash events contributed to the schedule."""
        return ()

    def mobility(self, seed: int) -> tuple[MobilityModel, ...]:
        """Extra roaming devices (deployed worlds only)."""
        return ()

    def shrink_variants(self) -> Iterator["FaultPrimitive"]:
        """Strictly smaller copies of this primitive, best first."""
        return iter(())

    def _window_end(self, until: Round | None) -> Round:
        return NEVER if until is None else until


@dataclass(frozen=True)
class CrashWave(FaultPrimitive):
    """Crash a fraction of the nodes at seeded rounds before ``horizon``.

    ``spare`` nodes never crash (at least one correct node is a standing
    model assumption); ``after_send_fraction`` of the victims die
    *after* their send step — the footnote-2 decide-and-die path.
    """

    fraction: float = 0.3
    horizon: Round = 30
    spare: frozenset[NodeId] = frozenset({0})
    after_send_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not 0.0 <= self.after_send_fraction <= 1.0:
            raise ValueError("after_send_fraction must lie in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def crashes(self, n: int, seed: int) -> tuple[Crash, ...]:
        rng = Random(seed)
        candidates = [node for node in range(n) if node not in self.spare]
        rng.shuffle(candidates)
        doomed = candidates[: int(round(self.fraction * n))]
        out = []
        for node in doomed:
            point = (CrashPoint.AFTER_SEND
                     if rng.random() < self.after_send_fraction
                     else CrashPoint.BEFORE_SEND)
            out.append(Crash(node, rng.randrange(1, max(self.horizon, 2)),
                             point))
        return tuple(out)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if self.fraction > 0.15:
            yield replace(self, fraction=round(self.fraction / 2, 3))
        if self.horizon > 4:
            yield replace(self, horizon=self.horizon // 2)


@dataclass(frozen=True)
class Partition(FaultPrimitive):
    """Split the nodes into groups that cannot hear each other.

    With explicit ``groups`` the split is scripted; otherwise nodes are
    dealt into ``n_groups`` seeded-round-robin.  Heals at ``until``.
    """

    until: Round = 30
    n_groups: int = 2
    groups: tuple[tuple[NodeId, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.until < 1:
            raise ValueError("until must be at least 1")
        if self.groups is None and self.n_groups < 2:
            raise ValueError("a partition needs at least 2 groups")

    def rcf_requirement(self) -> Round:
        return self.until

    def adversary(self, n: int, seed: int) -> Adversary:
        if self.groups is not None:
            groups: Iterable[Iterable[NodeId]] = self.groups
        else:
            nodes = list(range(n))
            Random(seed).shuffle(nodes)
            k = min(self.n_groups, max(len(nodes), 1))
            groups = [nodes[i::k] for i in range(k)]
        return PartitionAdversary(groups, until_round=self.until)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if self.until > 2:
            yield replace(self, until=self.until // 2)
        if self.groups is None and self.n_groups > 2:
            yield replace(self, n_groups=2)


@dataclass(frozen=True)
class MessageStorm(FaultPrimitive):
    """Seeded i.i.d. message loss in a round window.

    ``intensity`` in [0, 1] scales the per-delivery drop probability up
    to 0.7; ``detector_noise`` is an additional per-round false-collision
    probability riding on the same storm.  ``until=None`` means the
    storm never abates by itself.
    """

    intensity: float = 0.5
    detector_noise: float = 0.0
    start: Round = 0
    until: Round | None = 30

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        if not 0.0 <= self.detector_noise <= 1.0:
            raise ValueError("detector_noise must lie in [0, 1]")

    def rcf_requirement(self) -> Round:
        return self._window_end(self.until)

    def racc_requirement(self) -> Round:
        return self._window_end(self.until) if self.detector_noise else 0

    def adversary(self, n: int, seed: int) -> Adversary:
        inner = RandomLossAdversary(p_drop=0.7 * self.intensity,
                                    p_false=self.detector_noise, seed=seed)
        if self.start == 0 and self.until is None:
            return inner
        return WindowAdversary(inner, start=self.start, until=self.until)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if self.until is not None and self.until - self.start > 4:
            yield replace(self, until=self.start + (self.until - self.start) // 2)
        if self.intensity > 0.1:
            yield replace(self, intensity=round(self.intensity / 2, 3))
        if self.detector_noise > 0.1:
            yield replace(self, detector_noise=round(self.detector_noise / 2, 3))


@dataclass(frozen=True)
class SenderSuppression(FaultPrimitive):
    """Silence specific senders: their broadcasts reach nobody.

    The targeted-censorship attack — e.g. the would-be leader decides
    and nobody hears about it.
    """

    senders: tuple[NodeId, ...] = (0,)
    start: Round = 0
    until: Round | None = 30

    def __post_init__(self) -> None:
        if not self.senders:
            raise ValueError("suppress at least one sender")

    def rcf_requirement(self) -> Round:
        return self._window_end(self.until)

    def adversary(self, n: int, seed: int) -> Adversary:
        return TargetedDropAdversary(self.senders, start=self.start,
                                     until=self.until)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if len(self.senders) > 1:
            yield replace(self, senders=self.senders[: len(self.senders) // 2])
        if self.until is not None and self.until - self.start > 4:
            yield replace(self, until=self.start + (self.until - self.start) // 2)


@dataclass(frozen=True)
class DetectorNoise(FaultPrimitive):
    """Spurious collision indications (Property 2's pre-``racc`` licence).

    Each node independently sees a false positive with probability
    ``p_false`` per round while the window is open.
    """

    p_false: float = 0.3
    start: Round = 0
    until: Round | None = 30

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_false <= 1.0:
            raise ValueError("p_false must lie in [0, 1]")

    def racc_requirement(self) -> Round:
        return self._window_end(self.until)

    def adversary(self, n: int, seed: int) -> Adversary:
        return NoiseBurstAdversary(p_false=self.p_false, start=self.start,
                                   until=self.until, seed=seed)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if self.until is not None and self.until - self.start > 4:
            yield replace(self, until=self.start + (self.until - self.start) // 2)
        if self.p_false > 0.1:
            yield replace(self, p_false=round(self.p_false / 2, 3))


@dataclass(frozen=True)
class MobilityChurn(FaultPrimitive):
    """Roaming bystander devices criss-crossing the deployment.

    Deployed (virtual-infrastructure) worlds only: adds ``count``
    random-waypoint devices inside ``arena``, stressing join/leave and
    region hand-off.  Cluster worlds ignore it.
    """

    count: int = 2
    speed: float = 0.05
    arena: tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.speed < 0:
            raise ValueError("speed must be non-negative")

    def mobility(self, seed: int) -> tuple[MobilityModel, ...]:
        x_lo, y_lo, x_hi, y_hi = self.arena
        models = []
        for i in range(self.count):
            start = Point(
                x_lo + (x_hi - x_lo) * ((i + 0.5) / self.count),
                y_lo + (y_hi - y_lo) * 0.5,
            )
            models.append(RandomWaypointMobility(
                start, arena=self.arena, speed=self.speed,
                seed=subseed(seed, i, 0xC0FFEE),
            ))
        return tuple(models)

    def shrink_variants(self) -> Iterator[FaultPrimitive]:
        if self.count > 1:
            yield replace(self, count=self.count // 2)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, composable bundle of fault primitives.

    The plan is the *only* thing a failing run needs besides the spec it
    was attached to: materialisation is a pure function of
    ``(primitives, seed, n)``.  Attach one to an experiment with
    ``ExperimentSpec(faults=plan)`` or ``scenario().faults(plan)``.
    """

    primitives: tuple[FaultPrimitive, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for p in self.primitives:
            if not isinstance(p, FaultPrimitive):
                raise TypeError(f"not a fault primitive: {p!r}")

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def __or__(self, other: "FaultPlan | FaultPrimitive") -> "FaultPlan":
        """Union of plans: ``storm_plan | partition_plan`` (left seed wins)."""
        if isinstance(other, FaultPrimitive):
            return replace(self, primitives=self.primitives + (other,))
        return replace(self, primitives=self.primitives + other.primitives)

    # ------------------------------------------------------------------
    # Requirements
    # ------------------------------------------------------------------

    def rcf_requirement(self) -> Round:
        return max((p.rcf_requirement() for p in self.primitives), default=0)

    def racc_requirement(self) -> Round:
        return max((p.racc_requirement() for p in self.primitives), default=0)

    def stabilization_round(self) -> Round:
        """First round from which the whole environment is benign
        (crashes excepted — those are permanent)."""
        return max(self.rcf_requirement(), self.racc_requirement())


def plan(*primitives: FaultPrimitive, seed: int = 0) -> FaultPlan:
    """Shorthand constructor: ``plan(MessageStorm(), CrashWave(), seed=3)``."""
    return FaultPlan(primitives=tuple(primitives), seed=seed)
