"""Host-pace arithmetic of the benchmark.

Run with ``python -m pytest perfbench/test_pace.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import PaceLog, host_pace  # noqa: E402
from fleet import Job, Phase  # noqa: E402


def job(latency_s, started_at, finished_at, delay_s=0.0):
    out = Job("fresh", {})
    out.latency_s = latency_s
    out.delay_s = delay_s
    out.record = {"created_at": 0.0, "started_at": started_at, "finished_at": finished_at}
    return out


def test_only_the_execution_of_a_job_is_paced():
    j = job(latency_s=0.100, started_at=10.0, finished_at=10.060)
    j.scale = 0.5  # a host twice as slow as the reference
    # 40 ms of waiting as measured, 60 ms of execution halved.
    assert j.paced_latency_s() == pytest.approx(0.040 + 0.030)


def test_end_round_scales_its_own_http_calls_and_sums_slowest_steps():
    phase = Phase()
    phase.http["submit"] = [1.0, 2.0]  # an earlier round's, already paced
    marks = {verb: len(values) for verb, values in phase.http.items()}
    phase.http["submit"] += [4.0, 6.0]
    phase.http["status"] += [8.0]
    steps = (
        [job(0.100, 0.0, 0.060, delay_s=0.010), job(0.080, 0.0, 0.020, delay_s=0.040)],
        [job(0.050, 0.0, 0.010, delay_s=0.0)],
    )
    phase.end_round(steps, marks, 0.5)
    assert phase.http["submit"] == [1.0, 2.0, 2.0, 3.0]
    assert phase.http["status"] == [4.0]
    assert all(j.scale == 0.5 for jobs in steps for j in jobs)
    # Step 1: max(0.010 + 0.070, 0.040 + 0.070) = 0.110; step 2: 0.045.
    assert phase.rounds == [pytest.approx(0.110 + 0.045)]


def test_host_pace_is_a_positive_ratio_and_logged():
    paces = PaceLog()
    assert paces.median() == 1.0  # no reading yet
    first = paces.read()
    assert first > 0 and paces.readings == [first]
    assert host_pace() > 0
