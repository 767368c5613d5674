"""Shared pytest configuration.

Two Hypothesis profiles, both without a per-example deadline (several
property tests drive whole protocol executions, whose first cold-import
example can exceed the default 200 ms and trip a spurious health check):

* ``repro`` — the default, and tier-1's.  ``derandomize=True`` with no
  example database: a suite whose contract is byte-determinism draws the
  same examples on every run and every box, whatever a local
  ``.hypothesis/`` holds.
* ``soak`` — ``--hypothesis-profile soak`` (Hypothesis's own pytest
  flag; the nightly CI job passes it): fresh random examples, a larger
  default budget, and the example database on so a failure replays.  A
  counterexample it finds belongs in the suite as a named test or an
  explicit ``@example``, not in the database.

Also registers ``--update-golden``: the golden-trace regression suite
(``tests/golden/``) normally asserts byte equality against committed
canonical dumps; with the flag it rewrites them instead (use after an
*intentional* trace-affecting change, and review the diff).
"""

from hypothesis import HealthCheck, settings


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the committed golden traces instead of comparing",
    )

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.register_profile(
    "soak",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=500,
)
# Initial conftests load before the Hypothesis plugin's configure hook,
# so a ``--hypothesis-profile`` on the command line still wins.
settings.load_profile("repro")
