"""Tests for the naive full-history RSM baseline."""

from repro import scenario
from repro.baselines import NaiveBallotPayload
from repro.contention import LeaderElectionCM
from repro.core import check_all
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary
from repro.net.messages import wire_size


class TestNaiveRSM:
    def test_satisfies_cha_spec(self):
        run = scenario().nodes(4).instances(20).naive_rsm().run()
        assert check_all(run.outputs, run.proposals, liveness_by=1) == 1

    def test_outputs_identical_to_chap(self):
        chap = scenario().nodes(3).instances(15).cha().run()
        naive = scenario().nodes(3).instances(15).naive_rsm().run()
        for node in chap.processes:
            assert chap.outputs[node] == naive.outputs[node]

    def test_message_size_grows_linearly(self):
        run = scenario().nodes(3).instances(60).naive_rsm().run()
        ballots = [
            msg for _, msg in run.trace.broadcasts_by(0)
            if isinstance(msg.payload, NaiveBallotPayload)
        ]
        first, last = ballots[0].size, ballots[-1].size
        assert last > first + 50 * 8  # ~8+ bytes per decided entry

    def test_chap_flat_where_naive_grows(self):
        naive = scenario().nodes(3).instances(50).naive_rsm().run()
        chap = scenario().nodes(3).instances(50).cha().run()
        assert naive.trace.max_message_size() > 10 * chap.trace.max_message_size()

    def test_history_entries_match_decided_history(self):
        run = scenario().nodes(3).instances(10).naive_rsm().run()
        last_ballot = [
            msg.payload for _, msg in run.trace.broadcasts_by(0)
            if isinstance(msg.payload, NaiveBallotPayload)
        ][-1]
        # The embedded history is the proposer's view before instance 10:
        # instances 1..9 decided.
        assert [k for k, _ in last_ballot.history_entries] == list(range(1, 10))

    def test_safety_under_adversity(self):
        run = (scenario().nodes(4).instances(30).naive_rsm()
               .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.2, seed=3))
               .detector(EventuallyAccurateDetector(racc=60))
               .contention(LeaderElectionCM(stable_round=60, chaos="random",
                                            seed=3))
               .radio(rcf=60)
               .run())
        check_all(run.outputs, run.proposals)

    def test_payload_is_ballot_payload_subtype(self):
        p = NaiveBallotPayload(tag="t", instance=1, ballot=None,
                               history_entries=((1, "a"),))
        from repro.core.ballot import BallotPayload
        assert isinstance(p, BallotPayload)
        assert wire_size(p.history_entries) > 0
