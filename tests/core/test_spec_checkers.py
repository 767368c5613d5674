"""Property suite: the chain-native spec checkers ≡ brute-force definitions.

``check_validity`` memoises by chain link, ``check_agreement`` places
histories on the witness's spine by bisection and ``find_liveness_point``
is one pass over per-link gap memos.  Each must raise or return exactly
what the definition says — message **and** ``context`` — on random
executions, including ones no protocol run produces: corrupted values
and lengths, dropped and duplicated rows, histories in chain form, dict
form and on private non-interned spines side by side, ``True``/``1``/
``1.0`` (equal values, distinct interned links) and histories that
something already materialised.  The validity and agreement checkers
read each log through ``log_records``, so each execution is also checked
through a log with a record read, as a slotted core's view answers one.

The definitions below work on plain ``(length, {instance: value})``
twins of the generated histories and never touch :class:`History`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    History,
    check_agreement,
    check_validity,
    find_liveness_point,
)
from repro.core.checkpoint import CheckpointOutput
from repro.core.history import ROOT_CHAIN, HistoryChain
from repro.errors import SpecViolation
from repro.switches import Switches
from repro.types import BOTTOM

pytestmark = pytest.mark.fast

VALUES = st.sampled_from(["a", "b", True, 1, 1.0, False, 0, 0.0,
                          ("t", 1), ("t", True)])


# ----------------------------------------------------------------------
# Brute-force definitions over plain data
# ----------------------------------------------------------------------

class Violation(Exception):
    def __init__(self, message, context):
        super().__init__(message)
        self.context = context


def brute_validity(plain, proposals):
    for node, log in plain.items():
        for k, out in log:
            if out is None:
                continue
            _, entries = out
            for at in sorted(entries):
                value = entries[at]
                if not any(at in p and value == p[at]
                           for p in proposals.values()):
                    raise Violation(
                        f"validity: node {node}'s output at instance {k} "
                        f"contains value {value!r} at instance {at}, "
                        "which no node proposed",
                        {"node": node, "instance": k, "at": at,
                         "value": value})


def brute_agreement(plain, *, exhaustive=False):
    rows = []
    for node, log in plain.items():
        for k, out in log:
            if out is None:
                continue
            if out[0] != k:
                raise Violation(
                    f"agreement: node {node} output a history of length "
                    f"{out[0]} for instance {k}",
                    {"node": node, "instance": k})
            rows.append((node, k, out[1]))
    if not rows:
        return

    def compare(a, b):
        (node_a, k_a, at_a), (node_b, k_b, at_b) = a, b
        diverging = [k for k in range(1, min(k_a, k_b) + 1)
                     if at_a.get(k) != at_b.get(k)]
        if diverging:
            raise Violation(
                f"agreement: node {node_a}'s output at instance {k_a} and "
                f"node {node_b}'s output at instance {k_b} differ at "
                f"instances {diverging[:5]}",
                {"a": (node_a, k_a), "b": (node_b, k_b),
                 "diverging": diverging})

    if exhaustive:
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                compare(a, b)
        return
    witness = rows[0]
    for row in rows:
        if row[1] > witness[1]:
            witness = row
    for row in rows:
        compare(row, witness)


def brute_liveness(plain, alive=None):
    """The definition, candidate by candidate (the pre-memo loop)."""
    nodes = list(alive if alive is not None else plain)
    if not nodes:
        return None
    per_node = {node: dict(plain[node]) for node in nodes}
    last = min((max(log) if log else 0) for log in per_node.values())
    for kst in range(1, last + 1):
        if all(
            (out := per_node[node].get(k)) is not None
            and all(k2 <= out[0] and k2 in out[1]
                    for k2 in range(kst, k + 1))
            for node in nodes for k in range(kst, last + 1)
        ):
            return kst
    return None


# ----------------------------------------------------------------------
# Random executions
# ----------------------------------------------------------------------

def _history(form, length, entries, materialise):
    if form == "dict":
        history = History(length, entries)
    else:
        link = ROOT_CHAIN
        for k, v in sorted(entries.items()):
            link = (link.child(k, v) if form == "chain"
                    else HistoryChain(link, k, v, interned=False))
        history = History._from_chain(length, link)
    if materialise:
        hash(history)
    return history


@st.composite
def executions(draw):
    """``(outputs, plain twin, proposals)`` around one shared base run."""
    nodes = draw(st.integers(1, 4))
    instances = draw(st.integers(0, 7))
    base = {k: v for k in range(1, instances + 1)
            if (v := draw(st.one_of(st.none(), VALUES))) is not None}
    # Half the executions have no ⊥ rows, so that what bounds liveness
    # is a gap inside a history rather than a ⊥ output above it.
    kinds = st.sampled_from(
        ["faithful"] * 5 + ["corrupt"]
        + draw(st.sampled_from([[], ["bottom", "missing", "twice"]])))
    outputs, plain = {}, {}
    for node in range(nodes):
        log, twin = [], []
        for k in range(1, instances + 1):
            kind = draw(kinds)
            if kind == "missing":
                continue
            if kind == "bottom":
                log.append((k, BOTTOM))
                twin.append((k, None))
                continue
            entries = {i: v for i, v in base.items() if i <= k}
            length = k
            if kind == "corrupt":
                at = draw(st.integers(1, k))
                if draw(st.booleans()):
                    entries[at] = draw(VALUES)
                else:
                    entries.pop(at, None)
                length = max(k + draw(st.sampled_from([-1, 0, 0, 1])),
                             max(entries, default=0))
            form = draw(st.sampled_from(["chain", "dict", "private"]))
            if kind == "twice":  # a stale ⊥ row the real one overrides
                log.append((k, BOTTOM))
                twin.append((k, None))
            log.append(
                (k, _history(form, length, entries, draw(st.booleans()))))
            twin.append((k, (length, entries)))
        outputs[node], plain[node] = log, twin
    proposals = {
        0: dict(base),
        1: {k: draw(VALUES) for k in range(1, instances + 1)},
    }
    return outputs, plain, proposals


class RecordLog(list):
    """A plain log with a slotted view's record read: a chain-form
    history of its own instance's length answers its link, and ⊥ and
    every other entry answer the output itself."""

    def records(self):
        return [(k, out._chain if isinstance(out, History)
                 and out._chain is not None and out.length == k else out)
                for k, out in self]


#: The two log shapes the validity and agreement checkers read.
LOGS = pytest.mark.parametrize("log", [list, RecordLog],
                               ids=["pairs", "records"])


def _outcome(fn, *args, **kwargs):
    """Comparable result; ``repr`` of the context keeps ``True`` ≠ ``1``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (SpecViolation, Violation) as exc:
        return ("violation", str(exc), repr(exc.context))


@LOGS
@settings(max_examples=300, deadline=None)
@given(executions())
def test_validity_matches_the_definition(log, execution):
    outputs, plain, proposals = execution
    outputs = {node: log(rows) for node, rows in outputs.items()}
    assert (_outcome(check_validity, outputs, proposals)
            == _outcome(brute_validity, plain, proposals))


@LOGS
@settings(max_examples=300, deadline=None)
@given(executions(), st.booleans())
def test_agreement_matches_the_definition(log, execution, exhaustive):
    outputs, plain, _ = execution
    outputs = {node: log(rows) for node, rows in outputs.items()}
    want = _outcome(brute_agreement, plain, exhaustive=exhaustive)
    assert _outcome(check_agreement, outputs, exhaustive=exhaustive,
                    switches=Switches()) == want
    # The seed derivation stays the oracle and says the same.
    assert _outcome(check_agreement, outputs, exhaustive=exhaustive,
                    switches=Switches(history=True)) == want


@settings(max_examples=300, deadline=None)
@given(executions(), st.data())
def test_liveness_point_matches_the_definition(execution, data):
    outputs, plain, _ = execution
    assert find_liveness_point(outputs) == brute_liveness(plain)
    alive = data.draw(st.lists(st.sampled_from(sorted(outputs)),
                               unique=True), label="alive")
    assert (find_liveness_point(outputs, alive=alive)
            == brute_liveness(plain, alive))


@settings(max_examples=200, deadline=None)
@given(executions(), st.data())
def test_liveness_point_on_checkpoint_outputs(execution, data):
    """Checkpoint-CHA logs hold ``(checkpoint, suffix)`` pairs, which
    answer ``includes`` and nothing else of a history; rows may mix them
    with full histories."""
    outputs, plain, _ = execution
    for node, log in outputs.items():
        for row, (k, out) in enumerate(log):
            if out is BOTTOM or data.draw(st.booleans(), label="keep"):
                continue
            length, entries = plain[node][row][1]
            fold = data.draw(st.integers(0, length), label="checkpoint")
            log[row] = (k, CheckpointOutput(
                checkpoint_instance=fold, checkpoint_state=None,
                suffix=History(length, {i: v for i, v in entries.items()
                                        if i > fold})))
            plain[node][row] = (
                k, (length, {**entries, **dict.fromkeys(range(1, fold + 1))}))
    assert find_liveness_point(outputs) == brute_liveness(plain)


# ----------------------------------------------------------------------
# Pinned corner cases
# ----------------------------------------------------------------------

def test_validity_reports_the_lowest_bad_instance_once_per_output():
    """Two bad entries on one shared spine: the first output that holds
    each is blamed, at the lowest bad instance it holds."""
    good = ROOT_CHAIN.child(1, "a")
    bad2 = good.child(2, "ghost")
    bad3 = bad2.child(3, "spook")
    outputs = {
        0: [(1, History._from_chain(1, good)),
            (3, History._from_chain(3, bad3))],
        1: [(2, History._from_chain(2, bad2))],
    }
    with pytest.raises(SpecViolation) as err:
        check_validity(outputs, {0: {1: "a", 2: "b", 3: "c"}})
    assert err.value.context == {"node": 0, "instance": 3, "at": 2,
                                 "value": "ghost"}


def test_agreement_accepts_equal_entries_on_distinct_spines():
    """Identity is only a positive witness: ``True`` and ``1`` intern to
    different links, and a private spine shares none, yet all agree."""
    outputs = {
        0: [(2, _history("chain", 2, {1: True, 2: "b"}, False))],
        1: [(2, _history("chain", 2, {1: 1, 2: "b"}, False))],
        2: [(1, _history("private", 1, {1: 1.0}, False))],
        3: [(3, _history("dict", 3, {1: 1, 2: "b", 3: "c"}, False))],
    }
    check_agreement(outputs, switches=Switches())
    check_agreement(outputs, exhaustive=True, switches=Switches())


def test_liveness_gap_below_a_long_converged_tail():
    """The answer sits one past a gap deep below the tip.  Instance 7's
    own output includes it (so nothing but later histories' gap rules
    it out), and it is found through the per-link memo rather than by
    re-testing candidates."""
    entries = {k: f"v{k}" for k in range(1, 41)}
    outputs = {
        node: [(k, _history("chain", k,
                            {i: v for i, v in entries.items()
                             if i <= k and (i != 7 or k == 7)},
                            False))
               for k in range(1, 41)]
        for node in range(3)
    }
    assert find_liveness_point(outputs) == 8
    outputs[1][20] = (21, BOTTOM)
    assert find_liveness_point(outputs) == 22
    assert find_liveness_point(outputs, alive=[0, 2]) == 8
