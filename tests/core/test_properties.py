"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from _cores import begin, end
from repro.core import (Ballot, History, calculate_history_reference,
                        canonical_key)
from repro.core.cha import ChaCore
from repro.types import BOTTOM, Color

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)


@st.composite
def histories(draw, max_length=20):
    length = draw(st.integers(0, max_length))
    if length == 0:
        return History(0, {})
    included = draw(st.sets(st.integers(1, length)))
    return History(length, {k: draw(values) for k in included})


@st.composite
def ballot_chains(draw, max_len=15):
    """A well-formed ballot array whose prev pointers strictly descend."""
    length = draw(st.integers(1, max_len))
    ballots = {}
    good = [0]
    for k in range(1, length + 1):
        is_good = draw(st.booleans())
        if is_good or k == length:
            ballots[k] = Ballot(draw(values), good[-1])
            good.append(k)
    return length, good[-1], ballots


# ----------------------------------------------------------------------
# History algebra
# ----------------------------------------------------------------------


class TestHistoryProperties:
    @given(histories())
    def test_prefix_idempotent(self, h):
        assert h.prefix(h.length) == h

    @given(histories(), st.integers(0, 25))
    def test_prefix_shrinks_domain(self, h, k):
        p = h.prefix(k)
        assert p.length == min(k, h.length)
        for inst in p.included_instances:
            assert inst <= k

    @given(histories(), st.integers(0, 25))
    def test_history_extends_its_prefix(self, h, k):
        assert h.extends(h.prefix(k))

    @given(histories())
    def test_agrees_with_self(self, h):
        assert h.agrees_with(h)

    @given(histories(), histories())
    def test_agreement_symmetric(self, a, b):
        assert a.agrees_with(b) == b.agrees_with(a)

    @given(histories(), st.integers(0, 25), st.integers(0, 25))
    def test_prefixes_of_same_history_agree(self, h, k1, k2):
        assert h.prefix(k1).agrees_with(h.prefix(k2))

    @given(histories())
    def test_lookup_consistent_with_includes(self, h):
        for k in range(1, h.length + 1):
            assert h.includes(k) == (h(k) is not BOTTOM)

    @given(histories())
    def test_roundtrip_through_items(self, h):
        rebuilt = History(h.length, dict(h.items()))
        assert rebuilt == h and hash(rebuilt) == hash(h)


# ----------------------------------------------------------------------
# Ballot order
# ----------------------------------------------------------------------


class TestBallotOrderProperties:
    @given(values, values)
    def test_canonical_key_total(self, a, b):
        ka, kb = canonical_key(a), canonical_key(b)
        assert (ka < kb) or (kb < ka) or (ka == kb)

    @given(st.lists(st.tuples(values, st.integers(0, 50)), min_size=1, max_size=8))
    def test_min_ballot_invariant_under_permutation(self, pairs):
        ballots = [Ballot(v, p) for v, p in pairs]
        assert min(ballots) == min(list(reversed(ballots)))

    @given(values, values, values)
    def test_order_transitive(self, a, b, c):
        ba, bb, bc = Ballot(a, 0), Ballot(b, 0), Ballot(c, 0)
        if ba <= bb and bb <= bc:
            assert ba <= bc


# ----------------------------------------------------------------------
# calculate-history
# ----------------------------------------------------------------------


class TestCalculateHistoryProperties:
    @given(ballot_chains())
    def test_chain_reconstruction_matches_pointers(self, chain):
        length, prev, ballots = chain
        h = calculate_history_reference(length, prev, ballots)
        # Walk the pointers manually and compare.
        expected = {}
        k = prev
        while k >= 1:
            expected[k] = ballots[k].value
            k = ballots[k].prev_instance
        assert dict(h.items()) == expected

    @given(ballot_chains())
    def test_included_instances_form_descending_pointer_chain(self, chain):
        length, prev, ballots = chain
        h = calculate_history_reference(length, prev, ballots)
        inc = list(h.included_instances)
        for later, earlier in zip(reversed(inc), list(reversed(inc))[1:]):
            assert ballots[later].prev_instance == earlier

    @given(ballot_chains())
    def test_same_chain_same_history_from_any_later_instance(self, chain):
        """Two nodes starting calculate-history at the same good instance
        compute identical values on the common domain (the Lemma 8 core)."""
        length, prev, ballots = chain
        h1 = calculate_history_reference(length, prev, ballots)
        h2 = calculate_history_reference(length + 5, prev, ballots)
        for k in range(1, length + 1):
            assert h1(k) == h2(k)


# ----------------------------------------------------------------------
# ChaCore driven by arbitrary event scripts: Property 4 cannot be broken
# by any single-node schedule, and colours only ever go down.
# ----------------------------------------------------------------------

phase_events = st.tuples(st.booleans(), st.booleans(), st.booleans(),
                         st.booleans(), st.booleans())


class TestChaCoreProperties:
    @given(st.lists(phase_events, min_size=1, max_size=30))
    def test_colors_monotone_and_outputs_well_formed(self, script):
        core = ChaCore(propose=lambda k: f"v{k:04d}")
        for (ballot_ok, v1_veto, v1_col, v2_veto, v2_col) in script:
            own = begin(core)
            colors = [core.color_of(core.k)]
            core.step_ballot(
                [own.ballot] if ballot_ok else [], collision=not ballot_ok,
            )
            colors.append(core.color_of(core.k))
            core.step_veto1(v1_veto, v1_col)
            colors.append(core.color_of(core.k))
            k, out = end(core, v2_veto, v2_col)
            colors.append(core.color_of(core.k))
            # Colour never increases within an instance.
            assert all(a >= b for a, b in zip(colors, colors[1:]))
            # Output is a history iff the final colour is green.
            assert (out is not BOTTOM) == (colors[-1] is Color.GREEN)
            if out is not BOTTOM:
                assert out.length == k
                assert out.includes(k)

    @given(st.lists(phase_events, min_size=1, max_size=30))
    def test_successive_nonbottom_outputs_extend_each_other(self, script):
        core = ChaCore(propose=lambda k: f"v{k:04d}")
        last = None
        for (ballot_ok, v1_veto, v1_col, v2_veto, v2_col) in script:
            own = begin(core)
            core.step_ballot(
                [own.ballot] if ballot_ok else [], collision=not ballot_ok,
            )
            core.step_veto1(v1_veto, v1_col)
            _, out = end(core, v2_veto, v2_col)
            if out is not BOTTOM:
                if last is not None:
                    assert out.extends(last)
                last = out
