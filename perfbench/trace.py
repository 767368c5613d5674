"""Per-layer timing for traced passes, from outside the program.

Every proxy here wraps a call *into* a layer at one of the public seams
(``instrument(sim)``'s ``sim.channel`` / ``sim.cms``, adversary and
mobility objects placed in the spec, ``driver.tick`` /
``driver.stepper.step`` / ``driver.bus.publish``) and accumulates the
host seconds spent inside it plus the work counts seen at the boundary.
Totals stay in memory; :meth:`Tracer.layers` reads them out when the
pass ends.  A proxy forwards everything else to the object it wraps and
returns exactly what that object returned, so a traced pass computes
what an untraced one does — the digest check holds the harness to it.

Calls are timed on :meth:`~perfbench.hostclock.HostClock.work_now`,
which stands still while a calibration sample runs, so layer times are
host seconds of the layer's own work.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net import Adversary, MobilityModel

from .hostclock import HostClock


class TimedCall:
    """A callable that times every call of the one it wraps."""

    def __init__(self, fn: Callable, clock: HostClock) -> None:
        self._fn = fn
        self._now = clock.work_now
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, *args, **kwargs):
        now = self._now
        t0 = now()
        out = self._fn(*args, **kwargs)
        self.seconds += now() - t0
        self.calls += 1
        return out


class _Forwarding:
    """Anything a proxy does not time is the wrapped object's own."""

    _inner: Any

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TimedChannel(_Forwarding):
    """``sim.channel``: both delivery entry points, senders counted."""

    def __init__(self, inner, clock: HostClock) -> None:
        self._inner = inner
        self._now = clock.work_now
        self.seconds = 0.0
        self.calls = 0
        self.senders = 0

    def deliver(self, r, positions, broadcasts, **kwargs):
        now = self._now
        t0 = now()
        out = self._inner.deliver(r, positions, broadcasts, **kwargs)
        self.seconds += now() - t0
        self.calls += 1
        self.senders += len(broadcasts)
        return out

    def deliver_batch(self, r, positions, broadcasts, senders, **kwargs):
        now = self._now
        t0 = now()
        out = self._inner.deliver_batch(r, positions, broadcasts, senders,
                                        **kwargs)
        self.seconds += now() - t0
        self.calls += 1
        self.senders += len(senders)
        return out


class TimedCM(_Forwarding):
    """One ``sim.cms[...]`` entry; every manager of a world shares the
    :class:`Tracer`'s accumulator through ``totals``."""

    def __init__(self, inner, clock: HostClock, totals: "ContentionTotals") -> None:
        self._inner = inner
        self._now = clock.work_now
        self._totals = totals

    def advise(self, r, contenders):
        now = self._now
        t0 = now()
        granted = self._inner.advise(r, contenders)
        totals = self._totals
        totals.advise_s += now() - t0
        totals.calls += 1
        totals.contenders += len(contenders)
        totals.granted += len(granted)
        return granted

    def feedback(self, r, *, active, collided):
        now = self._now
        t0 = now()
        self._inner.feedback(r, active=active, collided=collided)
        self._totals.feedback_s += now() - t0


class ContentionTotals:
    def __init__(self) -> None:
        self.advise_s = 0.0
        self.feedback_s = 0.0
        self.calls = 0
        self.contenders = 0
        self.granted = 0


class TimedAdversary(_Forwarding, Adversary):
    """Goes in the spec in place of the adversary it wraps.  ``drops`` is
    the channel's call and is timed; ``false_collision`` is the
    simulator's per-node-per-round call and is bound straight through."""

    def __init__(self, inner: Adversary, clock: HostClock) -> None:
        self._inner = inner
        self._now = clock.work_now
        self.seconds = 0.0
        self.calls = 0
        self.false_collision = inner.false_collision

    def drops(self, r, tentative):
        now = self._now
        t0 = now()
        out = self._inner.drops(r, tentative)
        self.seconds += now() - t0
        self.calls += 1
        return out

    def false_collision(self, r, node):  # shadowed per instance above
        return self._inner.false_collision(r, node)


class TimedMobility(_Forwarding, MobilityModel):
    """Goes in a ``DeviceSpec`` in place of the moving model it wraps.
    (Static nodes are plain points: the simulator caches them and never
    calls a model, so there is nothing to time.)"""

    def __init__(self, inner: MobilityModel, totals: "MobilityTotals",
                 clock: HostClock) -> None:
        self._inner = inner
        self._now = clock.work_now
        self._totals = totals
        self.max_speed = inner.max_speed
        self.moved_in = inner.moved_in

    def position_at(self, r):
        now = self._now
        t0 = now()
        out = self._inner.position_at(r)
        totals = self._totals
        totals.seconds += now() - t0
        totals.calls += 1
        return out


class MobilityTotals:
    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


class Tracer:
    """The proxies of one traced pass and their totals."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.channel: TimedChannel | None = None
        self.contention = ContentionTotals()
        self.mobility = MobilityTotals()
        self.adversary: TimedAdversary | None = None
        self.tick: TimedCall | None = None
        self.step: TimedCall | None = None
        self.publish: TimedCall | None = None

    # -- what goes into the spec ---------------------------------------

    def wrap_adversary(self, adversary: Adversary) -> Adversary:
        self.adversary = TimedAdversary(adversary, self.clock)
        return self.adversary

    def wrap_mobility(self, model: MobilityModel) -> MobilityModel:
        return TimedMobility(model, self.mobility, self.clock)

    # -- the instrument(sim) hook ---------------------------------------

    def instrument(self, sim) -> None:
        self.channel = TimedChannel(sim.channel, self.clock)
        sim.channel = self.channel
        for name, cm in list(sim.cms.items()):
            sim.cms[name] = TimedCM(cm, self.clock, self.contention)

    # -- the served world's seams ---------------------------------------

    def instrument_driver(self, driver) -> None:
        self.tick = TimedCall(driver.tick, self.clock)
        self.step = TimedCall(driver.stepper.step, self.clock)
        self.publish = TimedCall(driver.bus.publish, self.clock)
        driver.tick = self.tick
        driver.stepper.step = self.step
        driver.bus.publish = self.publish

    # -- read-out --------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Host seconds (``*_s``) and counts per layer seam."""
        out: dict[str, float] = {}
        channel = self.channel
        if channel is not None:
            out["net.channel.deliver_s"] = channel.seconds
            out["net.channel.calls"] = channel.calls
            out["net.channel.senders"] = channel.senders
        if self.adversary is not None:
            out["net.adversary.drops_s"] = self.adversary.seconds
            out["net.adversary.calls"] = self.adversary.calls
        contention = self.contention
        out["contention.advise_s"] = contention.advise_s
        out["contention.feedback_s"] = contention.feedback_s
        out["contention.calls"] = contention.calls
        out["contention.contenders"] = contention.contenders
        out["contention.granted"] = contention.granted
        out["net.mobility.position_s"] = self.mobility.seconds
        out["net.mobility.calls"] = self.mobility.calls
        if self.tick is not None:
            out["service.driver.tick_s"] = self.tick.seconds
            out["service.driver.ticks"] = self.tick.calls
            out["service.stepper.step_s"] = self.step.seconds
            out["service.bus.publish_s"] = self.publish.seconds
            out["service.bus.events"] = self.publish.calls
        return out
