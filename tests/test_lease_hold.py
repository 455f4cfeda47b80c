"""Long-polled leases: an idle worker waits at the coordinator for work.

A ``lease`` frame may carry ``hold`` (seconds, capped at
:data:`repro.dist.protocol.MAX_LEASE_HOLD`): the coordinator answers when
it has a grant, when it shuts down, or when the hold runs out.  A lease
without ``hold`` keeps its old answer, an immediate ``wait``.
"""

from __future__ import annotations

import threading
import time

import pytest

from test_dist import _RawClient, _join_workers, _start_workers
from repro.api.specs import PredictorSpec
from repro.dist import Coordinator, protocol
from repro.workloads.suites import generate_suite


@pytest.fixture(scope="module")
def traces():
    return generate_suite(
        "cbp4like", target_conditional_branches=200, benchmarks=["SPEC2K6-00"]
    )


@pytest.fixture(scope="module")
def specs():
    return [PredictorSpec.from_named("gehl", profile="small")]


def _held_reply(client, hold, action, settle=0.2):
    """Send a held lease, run ``action`` after ``settle`` s; (reply, latency)."""
    client.send({"type": "lease", "hold": hold})
    time.sleep(settle)
    started = time.monotonic()
    action()
    reply = client.recv()
    return reply, time.monotonic() - started


def test_held_lease_is_granted_when_work_arrives(specs, traces):
    coordinator = Coordinator()
    client = _RawClient(coordinator.start())
    try:
        client.hello()
        reply, latency = _held_reply(
            client, 5.0, lambda: coordinator.submit(specs, traces)
        )
        assert reply["type"] == "work"
        assert latency < 0.1
    finally:
        client.close()
        coordinator.shutdown()


def test_held_lease_ends_with_shutdown(specs, traces):
    coordinator = Coordinator()
    client = _RawClient(coordinator.start())
    stopper = threading.Thread(target=coordinator.shutdown)
    try:
        client.hello()
        reply, latency = _held_reply(client, 1.0, stopper.start)
        assert reply == {"type": "shutdown"}
        assert latency < 0.1
    finally:
        client.close()
        stopper.join(timeout=10)


def test_hold_runs_out_into_an_immediate_retry():
    coordinator = Coordinator()
    client = _RawClient(coordinator.start())
    try:
        client.hello()
        started = time.monotonic()
        client.send({"type": "lease", "hold": 0.3})
        assert client.recv() == {"type": "wait", "delay": 0.0}
        assert time.monotonic() - started >= 0.3
        # The hold is capped: a huge one still answers within the cap.
        started = time.monotonic()
        client.send({"type": "lease", "hold": 1e9})
        assert client.recv()["type"] == "wait"
        assert time.monotonic() - started < protocol.MAX_LEASE_HOLD + 0.5
    finally:
        client.close()
        coordinator.shutdown()


@pytest.mark.parametrize("frame", [{"type": "lease"}, {"type": "lease", "hold": -1}])
def test_lease_without_hold_still_gets_wait(frame):
    coordinator = Coordinator()
    client = _RawClient(coordinator.start())
    try:
        client.hello()
        started = time.monotonic()
        client.send(frame)
        assert client.recv() == {"type": "wait", "delay": 0.25}
        assert time.monotonic() - started < 0.2
    finally:
        client.close()
        coordinator.shutdown()


def test_expired_lease_wakes_a_held_lease(specs, traces):
    # One raw client leases the only cell and sits on it; a second one
    # long-polls and gets the cell once the first lease expires.
    coordinator = Coordinator(lease_timeout=0.3)
    address = coordinator.start()
    coordinator.submit(specs, traces)
    slow, idle = _RawClient(address), _RawClient(address)
    try:
        slow.hello()
        idle.hello()
        assert slow.lease()["type"] == "work"
        started = time.monotonic()
        idle.send({"type": "lease", "hold": 1.0})
        reply = idle.recv()
        assert reply["type"] == "work"
        assert time.monotonic() - started < 0.6
    finally:
        slow.close()
        idle.close()
        coordinator.shutdown()


def _first_grant_latency(coordinator, job_started):
    granted = [cell.granted_at for cell in coordinator._cells.values() if cell.granted_at]
    return min(granted) - job_started


def test_worker_connected_before_submit_is_granted_at_once(specs, traces):
    coordinator = Coordinator()
    address = coordinator.start()
    workers, threads = _start_workers(address, 1)
    try:
        # Past the first lease, and past a 0.25 s retry sleep.
        time.sleep(0.4)
        job_started = time.monotonic()
        job = coordinator.submit(specs, traces)
        assert job.wait(60)
        assert _first_grant_latency(coordinator, job_started) < 0.1
    finally:
        _join_workers(coordinator, threads)


def test_idle_worker_leaves_promptly_on_shutdown():
    coordinator = Coordinator()
    address = coordinator.start()
    workers, threads = _start_workers(address, 1)
    time.sleep(0.4)
    started = time.monotonic()
    coordinator.shutdown()
    threads[0].join(timeout=10)
    assert not threads[0].is_alive()
    assert time.monotonic() - started < 0.1
