"""Executable specification of Convergent History Agreement (Section 3.2).

Given the outputs and proposals of an execution, these checkers decide the
three CHA requirements:

* **Validity** — every value in every output history was proposed by some
  node for the corresponding instance.
* **Agreement** — every pair of non-bottom outputs agrees on the common
  prefix of instances.
* **Liveness** — some instance ``kst`` exists from which every node
  outputs a history that includes every instance in ``[kst, k]``.

Checkers raise :class:`~repro.errors.SpecViolation` with enough context to
reproduce a failure; the liveness checker instead *finds* the convergence
instance (or reports failure), since liveness over a finite prefix is a
measurement rather than a pass/fail property.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Mapping, Sequence

from ..errors import SpecViolation
from ..switches import Switches
from ..types import BOTTOM, Instance, NodeId, Value
from .history import History, HistoryChain

#: The per-node output sequence type: (instance, History or BOTTOM) pairs.
#: A log is any sequence of such pairs and may be a live view: the
#: slotted cores hand out one that builds each pair when it is read, so
#: readers that only count, and the validity and agreement checkers, go
#: through the three helpers below.
OutputLog = Sequence[tuple[Instance, History | None]]


def log_instances(log: OutputLog) -> Sequence[Instance]:
    """The instance numbers of ``log``, in log order.

    A view answers from its own instance list (``instances()``) without
    building an output per entry; a plain list is read pair by pair.
    """
    instances = getattr(log, "instances", None)
    return instances() if instances is not None else [k for k, _ in log]


def log_bottoms(log: OutputLog) -> int:
    """How many outputs of ``log`` are ⊥ (same two routes)."""
    bottoms = getattr(log, "bottoms", None)
    if bottoms is not None:
        return bottoms()
    return sum(out is BOTTOM for _, out in log)


def log_records(log: OutputLog) -> Sequence[tuple[Instance, Any]]:
    """The ``(instance, record)`` pairs of ``log``, in log order.

    A view answers a chain-form output as its :class:`HistoryChain`
    link, building no :class:`History` (``records()``); every other
    record, and every pair of a plain list, is the output itself.
    """
    records = getattr(log, "records", None)
    return records() if records is not None else log


def _as_history(k: Instance, record: Any) -> Any:
    """The output a record stands for at instance ``k``."""
    return (History._from_chain(k, record) if type(record) is HistoryChain
            else record)


def _as_chain(record: Any) -> HistoryChain:
    """The fold chain of a record (a link, or a history's own)."""
    return record if type(record) is HistoryChain else record._as_chain()


def check_validity(outputs: Mapping[NodeId, OutputLog],
                   proposals: Mapping[NodeId, Mapping[Instance, Value]]) -> None:
    """Raise :class:`SpecViolation` on any non-proposed history value.

    Outputs are visited in log order and each output's entries ascending,
    so the violation reported is the first one in that order.  Chain-form
    histories share their spine, so each link is checked once: a link
    enters ``valid`` only after every entry of its fold passed.  A log
    view's chain-form outputs are read as their links
    (:func:`log_records`), so none is built.
    """
    proposed_at: dict[Instance, set[Value]] = {}
    for node_proposals in proposals.values():
        for k, v in node_proposals.items():
            proposed_at.setdefault(k, set()).add(v)
    valid: set[HistoryChain] = set()
    for node, log in outputs.items():
        for k, out in log_records(log):
            if out is BOTTOM:
                continue
            link = out if type(out) is HistoryChain else out._chain
            if link is None:
                fresh, entries = (), out.items()
            else:
                fresh = []
                while link.parent is not None and link not in valid:
                    fresh.append(link)
                    link = link.parent
                if not fresh:
                    continue
                fresh.reverse()
                entries = ((new.anchor, new.value) for new in fresh)
            for k_prime, value in entries:
                if value not in proposed_at.get(k_prime, ()):
                    raise SpecViolation(
                        f"validity: node {node}'s output at instance {k} "
                        f"contains value {value!r} at instance {k_prime}, "
                        "which no node proposed",
                        context={"node": node, "instance": k,
                                 "at": k_prime, "value": value},
                    )
            valid.update(fresh)


def check_agreement(outputs: Mapping[NodeId, OutputLog], *,
                    exhaustive: bool = False,
                    switches: Switches = Switches()) -> None:
    """Raise :class:`SpecViolation` on any common-prefix disagreement.

    The default check compares every history against a maximal-instance
    witness, which is equivalent to the pairwise condition because the
    agreement relation is "equality on the shorter prefix" and every
    history is compared on *its own* full domain against the witness.
    ``exhaustive=True`` performs the O(m²) pairwise comparison (useful in
    unit tests of the checker itself).

    The ``history`` axis of ``switches`` pins the agreement relation to
    the seed prefix-rebuild derivation instead of the chain-identity
    short circuit — the two are pinned together by the differential
    suite.

    The witness comparison walks the witness's spine once, down to the
    shortest history's length, and places every output on it by
    bisecting the anchors; an output whose own chain *is* the link found
    there agrees.  Identity is only a positive witness, so anything else
    is built as a :class:`History` and falls back to
    :meth:`History.agrees_with`; a log view's chain-form outputs are
    read as their links (:func:`log_records`), so an output on the spine
    builds nothing.
    """
    reference = switches.history
    agrees = (History.agrees_with_reference if reference
              else History.agrees_with)
    histories: list[tuple[NodeId, Instance, Any]] = []
    for node, log in outputs.items():
        for k, out in log_records(log):
            if out is not BOTTOM:
                if type(out) is not HistoryChain and out.length != k:
                    raise SpecViolation(
                        f"agreement: node {node} output a history of length "
                        f"{out.length} for instance {k}",
                        context={"node": node, "instance": k},
                    )
                histories.append((node, k, out))
    if not histories:
        return

    def _fail(a, b) -> None:
        (node_a, k_a, h_a), (node_b, k_b, h_b) = a, b
        cut = min(k_a, k_b)
        at_a, at_b = dict(h_a.items()), dict(h_b.items())
        diverging = [
            k for k in range(1, cut + 1)
            if at_a.get(k, BOTTOM) != at_b.get(k, BOTTOM)
        ]
        raise SpecViolation(
            f"agreement: node {node_a}'s output at instance {k_a} and node "
            f"{node_b}'s output at instance {k_b} differ at instances "
            f"{diverging[:5]}",
            context={"a": (node_a, k_a), "b": (node_b, k_b),
                     "diverging": diverging},
        )

    if exhaustive or reference:
        histories = [(node, k, _as_history(k, out))
                     for node, k, out in histories]
    if exhaustive:
        for i in range(len(histories)):
            for j in range(i + 1, len(histories)):
                if not agrees(histories[i][2], histories[j][2]):
                    _fail(histories[i], histories[j])
        return

    node_w, k_w, out_w = max(histories, key=itemgetter(1))
    spine = None
    if not reference:
        # Every k below is that output's length: at most the witness's,
        # and at least its own chain's anchor.
        shortest = min(map(itemgetter(1), histories))
        link = _as_chain(out_w)
        spine = [link]
        while link.anchor > shortest:
            link = link.parent
            spine.append(link)
        spine.reverse()
        anchors = [link.anchor for link in spine]
    for node, k, out in histories:
        if (spine is not None and _as_chain(out)
                is spine[bisect_right(anchors, k) - 1]):
            continue
        item = (node, k, _as_history(k, out))
        witness = (node_w, k_w, _as_history(k_w, out_w))
        if not agrees(item[2], witness[2]):
            _fail(item, witness)


def find_liveness_point(outputs: Mapping[NodeId, OutputLog],
                        *, alive: Sequence[NodeId] | None = None) -> Instance | None:
    """The smallest ``kst`` witnessing Liveness over this finite execution.

    Only nodes in ``alive`` (default: all nodes in ``outputs``) are
    required to satisfy the property — crashed nodes are exempt, per the
    problem statement's "non-failed node" qualifier.  Returns ``None``
    when no suffix of the execution satisfies Liveness.
    """
    nodes = list(alive if alive is not None else outputs.keys())
    if not nodes:
        return None
    per_node: dict[NodeId, dict[Instance, History | None]] = {
        node: dict(outputs[node]) for node in nodes
    }
    last_instance = min(
        (max(log) if (log := per_node[node]) else 0) for node in nodes
    )
    # kst works iff for every k in [kst, last]: every node output a
    # non-bottom history at k that includes every instance in [kst, k].
    # So a bottom output at k rules out every kst <= k, an output at k
    # that excludes j <= k rules out every kst <= j, and nothing else
    # rules anything out: the answer is one past the largest such bound.
    # An output at or below the bound found so far cannot raise it.
    ruled_out = 0
    gaps: dict[HistoryChain, Instance] = {}
    for node in nodes:
        log = per_node[node]
        k = last_instance
        while k > ruled_out:
            out = log.get(k, BOTTOM)
            ruled_out = max(ruled_out, k if out is BOTTOM
                            else _largest_excluded(out, k, gaps))
            k -= 1
    kst = ruled_out + 1
    return kst if kst <= last_instance else None


def _largest_excluded(out, k: Instance,
                      gaps: dict[HistoryChain, Instance]) -> Instance:
    """The largest instance in ``1..k`` that ``out`` excludes, else 0.

    ``out`` is any output with ``includes`` (checkpoint-CHA's
    ``CheckpointOutput`` has no chain of its own); only a chain-form
    :class:`History` takes the memoised walk.
    """
    link = out._chain if isinstance(out, History) else None
    if link is None or k > out.length:
        while k >= 1 and out.includes(k):
            k -= 1
        return k
    link = link.prefix(k)
    if link.anchor < k:
        return k
    # ``gaps`` memoises, per link, the largest instance below the link's
    # anchor that its fold skips; a run of consecutive anchors shares it.
    run = []
    while (gap := gaps.get(link)) is None:
        parent = link.parent
        if parent is None:
            gap = 0
            break
        run.append(link)
        if parent.anchor < link.anchor - 1:
            gap = link.anchor - 1
            break
        link = parent
    for link in run:
        gaps[link] = gap
    return gap


def check_liveness(outputs: Mapping[NodeId, OutputLog],
                   *, by_instance: Instance,
                   alive: Sequence[NodeId] | None = None) -> Instance:
    """Assert that Liveness holds with ``kst <= by_instance``.

    Returns the discovered ``kst``.  Raises :class:`SpecViolation` if the
    execution never converges, or converges later than demanded.
    """
    kst = find_liveness_point(outputs, alive=alive)
    if kst is None:
        raise SpecViolation(
            "liveness: no convergence instance exists in this execution",
            context={"by_instance": by_instance},
        )
    if kst > by_instance:
        raise SpecViolation(
            f"liveness: convergence at instance {kst}, later than the "
            f"required {by_instance}",
            context={"kst": kst, "by_instance": by_instance},
        )
    return kst


def check_all(outputs: Mapping[NodeId, OutputLog],
              proposals: Mapping[NodeId, Mapping[Instance, Value]],
              *, liveness_by: Instance | None = None,
              alive: Sequence[NodeId] | None = None) -> Instance | None:
    """Run Validity + Agreement (+ Liveness when ``liveness_by`` given)."""
    check_validity(outputs, proposals)
    check_agreement(outputs)
    if liveness_by is not None:
        return check_liveness(outputs, by_instance=liveness_by, alive=alive)
    return None
