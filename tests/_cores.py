"""Drive a protocol core by hand, one Figure 1 event at a time.

Both helpers compose the step surface every core shares
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
