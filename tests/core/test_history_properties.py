"""Property suite: the incremental HistoryChain fold ≡ the seed fold.

Random ballot worlds — including *adversarial* ``prev`` pointers the real
protocol can never produce (pointers above the current instance, upward
pointers, pointers at instances holding no ballot) — drive both engines
through every observable of :class:`~repro.core.history.History`:
equality, hash, ``items()``, ``prefix``, ``agrees_with``, ``extends``,
lookups, and the error paths (``ProtocolError`` for plain cores,
``KeyError`` for checkpoint cores).  The incremental engine must be
indistinguishable from :func:`~repro.core.cha.calculate_history_reference`
on all of them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _cores import begin
from repro.core import ChaCore, CheckpointChaCore, History
from repro.core.ballot import Ballot
from repro.core.cha import calculate_history_reference
from repro.core.history import ROOT_CHAIN
from repro.errors import ProtocolError
from repro.switches import Switches

pytestmark = pytest.mark.fast

#: Includes cross-type-equal values (True == 1 == 1.0) and -0.0 == 0.0:
#: interning must never swap one for another across cores.
VALUES = st.sampled_from(["a", "b", "c", "v9", ("t", 1), ("t", True),
                          7, True, 1, 1.0, 0.0, -0.0])


def _fast_core(ballots, instance, prev, *, propose=lambda k: "x"):
    """A chain-engine core with hand-planted protocol state."""
    core = ChaCore(propose=propose, switches=Switches())
    core.ballots = dict(ballots)
    core.k = instance
    core.prev_instance = prev
    return core


def _outcome(fn):
    """Normalise a fold attempt to a comparable (kind, payload) pair."""
    try:
        return ("ok", fn())
    except ProtocolError as exc:
        return ("protocol-error", str(exc))
    except KeyError as exc:
        return ("key-error", exc.args)


@st.composite
def ballot_worlds(draw):
    """Random ballots with adversarial prev pointers + a query point."""
    n = draw(st.integers(0, 24))
    ballots = {}
    for k in range(1, n + 1):
        if draw(st.booleans()):
            ballots[k] = Ballot(draw(VALUES), draw(st.integers(-2, n + 2)))
    instance = draw(st.integers(0, n + 2))
    prev = draw(st.integers(-2, n + 3))
    return ballots, instance, prev


@settings(max_examples=150)
@given(ballot_worlds(), st.integers(0, 30))
def test_fold_matches_reference_on_every_observable(world, cut):
    ballots, instance, prev = world
    ref = _outcome(lambda: calculate_history_reference(instance, prev, ballots))
    fast = _outcome(lambda: _fast_core(ballots, instance, prev).current_history())
    assert ref[0] == fast[0]
    if ref[0] != "ok":
        assert ref == fast  # same exception type and payload
        return
    h_ref, h_fast = ref[1], fast[1]
    assert h_fast == h_ref and h_ref == h_fast
    assert hash(h_fast) == hash(h_ref)
    assert tuple(h_fast.items()) == tuple(h_ref.items())
    # The fold must hand back the *stored* value objects, not equal
    # stand-ins canonicalised by interning (True vs 1, 0.0 vs -0.0).
    for (ka, va), (kb, vb) in zip(h_fast.items(), h_ref.items()):
        assert va is vb, (ka, va, vb)
    assert h_fast.included_instances == h_ref.included_instances
    assert len(h_fast) == len(h_ref)
    assert h_fast.length == h_ref.length
    assert h_fast.last_included() == h_ref.last_included()
    for k in range(0, instance + 3):
        assert h_fast(k) == h_ref(k)
        assert h_fast.includes(k) == h_ref.includes(k)
    assert h_fast.prefix(cut) == h_ref.prefix(cut) == h_ref.prefix_reference(cut)
    assert repr(h_fast) == repr(h_ref)


@settings(max_examples=100)
@given(ballot_worlds(), ballot_worlds())
def test_prefix_algebra_matches_reference(world_a, world_b):
    """agrees_with / extends across engines and across mixed pairs."""
    results = []
    for ballots, instance, prev in (world_a, world_b):
        ref = _outcome(
            lambda: calculate_history_reference(instance, prev, ballots))
        fast = _outcome(
            lambda: _fast_core(ballots, instance, prev).current_history())
        assert ref[0] == fast[0]
        if ref[0] != "ok":
            return
        results.append((ref[1], fast[1]))
    (a_ref, a_fast), (b_ref, b_fast) = results
    want_agree = a_ref.agrees_with_reference(b_ref)
    # Every representation pairing must decide Agreement identically.
    for left in (a_ref, a_fast):
        for right in (b_ref, b_fast):
            assert left.agrees_with(right) == want_agree
            assert right.agrees_with(left) == want_agree
            assert left.extends(right) == (
                left.length >= right.length and want_agree)


@settings(max_examples=60)
@given(st.data())
def test_incremental_fold_tracks_protocol_evolution(data):
    """One core driven through many instances: the cached fold must match
    a from-scratch reference walk after *every* protocol event."""
    core = ChaCore(propose=lambda k: f"p{k}", switches=Switches())
    steps = data.draw(st.integers(1, 30), label="steps")
    for _ in range(steps):
        payload = begin(core)
        k = core.k
        scenario = data.draw(
            st.sampled_from(["own", "foreign", "silence"]), label=f"b{k}")
        if scenario == "own":
            core.step_ballot([payload.ballot], collision=False)
        elif scenario == "foreign":
            # A lagging peer's ballot: arbitrary downward prev pointer,
            # possibly aimed at an instance that stored no ballot.
            foreign = Ballot(data.draw(VALUES, label=f"v{k}"),
                             data.draw(st.integers(0, k - 1), label=f"fp{k}"))
            core.step_ballot([payload.ballot, foreign],
                             collision=False)
        else:
            core.step_ballot([], collision=False)
        core.step_veto1(
            data.draw(st.booleans(), label=f"veto1@{k}"), collision=False)
        # End-of-instance bookkeeping, minus the output call so that a
        # broken foreign chain surfaces through current_history below.
        if data.draw(st.booleans(), label=f"veto2@{k}"):
            from repro.types import Color
            core.status[k] = min(Color.YELLOW, core.status[k])
        if core.status[k].is_good:
            core.prev_instance = k

        ref = _outcome(lambda: calculate_history_reference(
            core.k, core.prev_instance, core.ballots))
        fast = _outcome(core.current_history)
        assert ref[0] == fast[0]
        if ref[0] == "ok":
            assert fast[1] == ref[1]
            assert tuple(fast[1].items()) == tuple(ref[1].items())
        # Mirror the real protocol: a node whose chain cannot be folded
        # would crash; keep the run alive by repairing nothing — the
        # next instance simply continues from the same state.


@settings(max_examples=60)
@given(st.data())
def test_checkpoint_fold_matches_reference_core(data):
    """Fast and reference checkpoint cores, same state, same answers —
    including the KeyError path of the seed's direct ballot indexing."""
    n = data.draw(st.integers(0, 18), label="n")
    checkpoint = data.draw(st.integers(0, n), label="checkpoint")
    ballots = {}
    for k in range(1, n + 1):
        if data.draw(st.booleans(), label=f"has{k}"):
            ballots[k] = Ballot(data.draw(VALUES, label=f"v{k}"),
                                data.draw(st.integers(-1, n + 1),
                                          label=f"p{k}"))
    instance = data.draw(st.integers(checkpoint, n + 2), label="instance")
    prev = data.draw(st.integers(-1, n + 2), label="prev")

    cores = []
    for use_reference in (True, False):
        core = CheckpointChaCore(
            propose=lambda k: "x", reducer=lambda s, k, v: s,
            initial_state=None, switches=Switches(history=use_reference))
        core.ballots = dict(ballots)
        core.k = instance
        core.prev_instance = prev
        core.checkpoint_instance = checkpoint
        cores.append(core)
    ref = _outcome(cores[0].current_history)
    fast = _outcome(cores[1].current_history)
    assert ref[0] == fast[0]
    if ref[0] == "ok":
        assert fast[1] == ref[1]
        assert hash(fast[1]) == hash(ref[1])
        assert tuple(fast[1].items()) == tuple(ref[1].items())
    else:
        assert ref == fast


def test_public_calculate_history_is_the_reference_fold():
    import repro
    assert repro.calculate_history_reference is calculate_history_reference
    assert repro.core.calculate_history_reference is calculate_history_reference


def test_missing_ballot_messages_are_identical():
    ballots = {2: Ballot("b", 1)}  # chain 2 -> 1, but 1 stores no ballot
    with pytest.raises(ProtocolError) as ref_err:
        calculate_history_reference(3, 2, ballots)
    with pytest.raises(ProtocolError) as fast_err:
        _fast_core(ballots, 3, 2).current_history()
    assert str(fast_err.value) == str(ref_err.value)


def test_interning_is_type_exact():
    """True/1/1.0 are equal but must never swap objects through the
    shared intern table — reducers, reprs and pickles see exact types."""
    import pickle

    h_bool = _fast_core({1: Ballot(True, 0)}, 1, 1).current_history()
    h_int = _fast_core({1: Ballot(1, 0)}, 1, 1).current_history()
    h_float = _fast_core({1: Ballot(1.0, 0)}, 1, 1).current_history()
    assert h_bool(1) is True and h_int(1) == 1 and h_int(1) is not True
    assert isinstance(h_float(1), float)
    # Equality still follows value semantics, exactly like the seed.
    seed_bool = calculate_history_reference(1, 1, {1: Ballot(True, 0)})
    assert h_bool == h_int == h_float == seed_bool
    assert pickle.dumps(h_bool) == pickle.dumps(seed_bool)
    assert pickle.dumps(h_bool) != pickle.dumps(h_int)
    # Negative zero keeps its sign bit through the fold.
    h_negz = _fast_core({1: Ballot(-0.0, 0)}, 1, 1).current_history()
    import math
    assert math.copysign(1.0, h_negz(1)) == -1.0


def test_prefix_rejects_negative_cut_like_the_seed():
    h = _fast_core({1: Ballot("a", 0)}, 2, 1).current_history()
    with pytest.raises(ValueError):
        h.prefix(-1)
    with pytest.raises(ValueError):
        h.prefix_reference(-1)


def test_interning_makes_equal_folds_identical():
    """Two independent cores folding the same chain share every link, so
    equality and agreement decide by identity (no prefix rebuilds)."""
    ballots = {1: Ballot("a", 0), 2: Ballot("b", 1), 3: Ballot("c", 2)}
    h1 = _fast_core(ballots, 3, 3).current_history()
    h2 = _fast_core(dict(ballots), 3, 3).current_history()
    assert h1 == h2
    assert h1._as_chain() is h2._as_chain()
    # A dict-built (reference) history derives the *same* interned chain.
    h3 = calculate_history_reference(3, 3, ballots)
    assert h3._as_chain() is h1._as_chain()
    # Prefixes share the spine instead of copying it.
    p = h1.prefix(2)
    assert p._chain is h1._as_chain().parent
    assert p == h2.prefix(2)


#: Ways something other than a point read touches a chain-form history,
#: each of which materialises its entry tuple (or, for the last, plants
#: a lookup table the way a dict-form history carries one).
MATERIALISERS = {
    "items": lambda h: tuple(h.items()),
    "hash": hash,
    "repr": repr,
    "pickle": lambda h: h.__reduce__(),
    "descendant": lambda h: History._from_chain(
        h.length + 1, h._chain.child(h.length + 1, "z")).items(),
    "lookup": lambda h: setattr(h, "_lookup", dict(h.items())),
}


@settings(max_examples=150)
@given(st.lists(st.one_of(st.none(), VALUES), max_size=12),
       st.integers(0, 2),
       st.sampled_from(sorted(MATERIALISERS)))
def test_chain_point_reads_match_dict_form(values, slack, materialiser):
    """``h(k)`` / ``includes(k)`` answer from the chain exactly as the
    dict form does over ``k in [-2, length + 2]`` — ⊥ below 1 and above
    the length, trailing ⊥ instances included — both on a bare chain
    and after something else materialised entries or a lookup table."""
    entries = {k: v for k, v in enumerate(values, 1) if v is not None}
    length = len(values) + slack
    plain = History(length, entries)
    link = ROOT_CHAIN
    for k, v in sorted(entries.items()):
        link = link.child(k, v)
    chained = History._from_chain(length, link)
    assert chained._lookup is None and chained._entries is None

    def same_reads():
        for k in range(-2, length + 3):
            assert chained.includes(k) is plain.includes(k), k
            assert chained(k) is plain(k), k
            assert chained.value_at(k) is plain(k), k

    same_reads()
    assert chained._lookup is None and chained._entries is None
    MATERIALISERS[materialiser](chained)
    same_reads()


def test_entries_cache_only_the_link_that_was_asked():
    """Reading the tip's contents stamps one tuple on the tip, none on
    the links below it; a later read further up reuses that tuple."""
    link = ROOT_CHAIN
    spine = [link := link.child(k, f"s{k}") for k in range(1, 9)]
    assert spine[5].entries() == tuple((k, f"s{k}") for k in range(1, 7))
    assert [node._entries is not None for node in spine] == [
        False, False, False, False, False, True, False, False]
    assert spine[7].entries()[:6] == spine[5].entries()
    assert spine[6]._entries is None
