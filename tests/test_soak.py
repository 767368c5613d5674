"""Cross-cutting randomised soak tests, driven by the fault explorer.

Every seeded fault plan drives the whole stack — radio, detectors,
contention, CHAP, checkpointing, baselines, the VI emulation — and
checks the executable CHA specification plus the glass-box lemma
invariants.  These are the repository's last line of defence: any
interaction bug between layers shows up here first.

Markers split the suite for CI:

* ``fast`` — one small exploration per plan family, run on every push.
* ``soak`` — the wide seed sweeps, run nightly (``pytest -m soak``).

When a *sound* protocol fails, the explorer case is shrunk to a minimal
configuration and — if ``REPRO_SOAK_ARTIFACT_DIR`` is set (the nightly
workflow sets it) — a pinned pytest reproducer is written there for the
CI run to upload.
"""

import os

import pytest

from repro import scenario
from repro.contention import ExponentialBackoffCM
from repro.core import check_agreement, check_validity, find_liveness_point
from repro.faults import (
    CrashWave,
    DetectorNoise,
    MessageStorm,
    MobilityChurn,
    Partition,
    SenderSuppression,
    explore,
    plan,
    reproducer_source,
    shrink_case,
)

#: The plan families the explorer fans out.  Each stabilises (rcf/racc)
#: well before the run ends, so safety *and* recovery are exercised.
STORM = plan(MessageStorm(intensity=0.45, detector_noise=0.25, until=55),
             CrashWave(fraction=0.3, horizon=50))
SPLIT_BRAIN = plan(Partition(until=36),
                   DetectorNoise(p_false=0.35, until=45),
                   CrashWave(fraction=0.25, horizon=30,
                             after_send_fraction=0.5))
CENSORSHIP = plan(SenderSuppression(senders=(1,), until=30),
                  MessageStorm(intensity=0.3, until=42))

PLAN_FAMILIES = {"storm": STORM, "split-brain": SPLIT_BRAIN,
                 "censorship": CENSORSHIP}


def assert_no_unsound_failures(report):
    """Fail with a shrunk reproducer when a sound protocol broke."""
    failures = report.unsound_failures
    if not failures:
        return
    case = failures[0]
    shrunk = shrink_case(case)
    source = reproducer_source(shrunk)
    artifact_dir = os.environ.get("REPRO_SOAK_ARTIFACT_DIR")
    where = ""
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        # Filename keyed by the failing configuration, so several
        # failures in one run each keep their own reproducer.
        name = (f"test_shrunk_repro_{case.protocol}"
                f"_seed{case.plan.seed}_{case.failure.invariant}.py")
        path = os.path.join(artifact_dir, name.replace("-", "_"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        where = f"\nreproducer written to {path}"
    pytest.fail(
        f"{report.summary()}\n\nshrunk reproducer:\n{source}{where}"
    )


# ----------------------------------------------------------------------
# fast — every push
# ----------------------------------------------------------------------

@pytest.mark.fast
@pytest.mark.parametrize("family", sorted(PLAN_FAMILIES), ids=str)
def test_fault_families_fast(family):
    """One narrow exploration per family: all sound cluster protocols."""
    report = explore([PLAN_FAMILIES[family]],
                     protocols=("cha", "checkpoint-cha", "naive-rsm"),
                     seeds=(0, 1), n=5)
    assert_no_unsound_failures(report)


@pytest.mark.fast
def test_emulation_under_storm_fast():
    report = explore([STORM], protocols=("vi",), seeds=(0,), n=5,
                     instances=12)
    assert_no_unsound_failures(report)


# ----------------------------------------------------------------------
# soak — nightly
# ----------------------------------------------------------------------

@pytest.mark.soak
@pytest.mark.parametrize("seed", range(12))
def test_cha_fault_soak(seed):
    """CHAP and checkpoint-CHA through every plan family, wide seeds."""
    report = explore(PLAN_FAMILIES.values(),
                     protocols=("cha", "checkpoint-cha"),
                     seeds=(seed,), n=4 + seed % 3)
    assert_no_unsound_failures(report)


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(4))
def test_baseline_fault_soak(seed):
    """The naive full-history RSM holds the same spec under faults."""
    report = explore(PLAN_FAMILIES.values(), protocols=("naive-rsm",),
                     seeds=(seed,), n=5)
    assert_no_unsound_failures(report)


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(4))
def test_emulation_fault_soak(seed):
    """The full virtual-node emulation stays replica-consistent under
    storms with roaming bystanders."""
    report = explore([STORM | MobilityChurn(count=2, speed=0.05)],
                     protocols=("vi",), seeds=(seed,), n=5, instances=16)
    assert_no_unsound_failures(report)


def _check_backoff_execution(seed):
    """A randomised exponential-backoff CM (no oracle) still yields a
    correct, eventually-live execution."""
    run = (scenario().nodes(5).instances(60).cha()
           .contention(ExponentialBackoffCM(seed=seed))
           .run())
    check_validity(run.outputs, run.proposals)
    check_agreement(run.outputs)
    kst = find_liveness_point(run.outputs)
    assert kst is not None, "backoff never converged to a leader"


@pytest.mark.fast
@pytest.mark.parametrize("seed", range(2))
def test_cha_with_realistic_backoff_fast(seed):
    # The fault plans all materialise a LeaderElectionCM, so this is
    # the per-push integration run of the oracle-free backoff CM.
    _check_backoff_execution(seed)


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(2, 8))
def test_cha_with_realistic_backoff(seed):
    _check_backoff_execution(seed)
