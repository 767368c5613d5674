"""Drive a protocol core by hand, one Figure 1 event at a time, and
count the steps a run takes.

``begin`` and ``end`` compose the step surface every core shares
(``step_begin`` / ``propose`` / ``ballot_payload``, ``step_end``); the
other events are single calls (``step_ballot``, ``step_veto1``,
``veto_due``).  A core in a shared cohort store must ``detach`` first.
"""


def begin(core):
    """Start the next instance: the node's ballot payload, built whether
    or not the node is advised to send it."""
    return core.ballot_payload(core.propose(core.step_begin()))


def end(core, veto_seen, collision):
    """Veto-2 reception and end of instance: the ``(instance, output)``
    pair it logged."""
    core.step_end(veto_seen, collision)
    return core.outputs[-1]


def count_calls(monkeypatch, owner, names, counts):
    """Count calls of ``owner``'s methods ``names`` into ``counts``."""
    for name in names:
        original = getattr(owner, name)

        def counting(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
