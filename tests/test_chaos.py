"""Chaos suite: injected worker faults must not change any optimum.

Drives the fault-injection plans of :mod:`repro.resilience.faults`
through real worker pools (``MIN_POOL_TASKS`` forced to 0 so the small
test graphs still dispatch) and asserts the fan-out engines return
exactly the serial optimum under every fault kind:

* ``kill`` — the worker running the faulted chunk dies hard
  (``os._exit``), the way an OOM kill would; the dispatcher must
  detect the silent death, rebuild the pool once and re-dispatch only
  the lost chunks.
* ``raise`` — the chunk runner raises, poisoning the ``imap`` stream;
  same recovery.
* ``stall`` — the chunk sleeps; nothing fails, the heartbeat just
  keeps beating (and enforces any deadline meanwhile).

A second kill of the *same* re-dispatched chunk exhausts the failure
budget and degrades the solve to the in-process runner — which is
immune to the plan by the parent-pid gate, so the solve still
completes with the right answer.
"""

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.obs import get_tracer
from repro.parallel import dispatch as dispatch_module
from repro.parallel import engine as engine_module
from repro.parallel import worker as worker_module
from repro.parallel.incumbent import SharedIncumbent
from repro.parallel.worker import WorkerContext, install_context
from repro.resilience import Budget, Fault, Status, clear_faults, \
    install_faults
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph


def random_signed_graph(seed: int, n: int = 40,
                        density: float = 0.3) -> SignedGraph:
    rng = random.Random(seed)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.random()
            if roll < density:
                graph.add_edge(u, v, POSITIVE)
            elif roll < 2 * density:
                graph.add_edge(u, v, NEGATIVE)
    return graph


@pytest.fixture
def pool_always(monkeypatch):
    """Make even tiny graphs dispatch to a real pool."""
    monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
    monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)


@pytest.fixture
def fault_plan():
    """Install a fault plan for the test, always cleared afterwards."""
    clear_faults()
    yield install_faults
    clear_faults()


def fanout_attrs(tracer) -> dict:
    """The attrs of the solve's ``fanout`` span."""
    for record in tracer.records:
        if record["name"] == "fanout":
            return record["attrs"]
    raise AssertionError("no fanout span recorded")


FAULT_PLANS = {
    "kill": [Fault("kill", 0)],
    "raise": [Fault("raise", 0)],
    "stall": [Fault("stall", 0, seconds=0.1)],
}


class TestChaosMatrix:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
    def test_mbc_optimum_survives_fault(self, kind, workers,
                                        pool_always, fault_plan):
        graph = random_signed_graph(5)
        serial = mbc_star(graph, 2)
        fault_plan(FAULT_PLANS[kind])
        clique = mbc_star(graph, 2, parallel=workers)
        assert clique.size == serial.size
        if not clique.is_empty:
            assert clique.satisfies(2)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
    def test_pf_optimum_survives_fault(self, kind, workers,
                                       pool_always, fault_plan):
        graph = random_signed_graph(6)
        serial_beta = pf_star(graph)
        fault_plan(FAULT_PLANS[kind])
        outcome = pf_star(graph, return_witness=True,
                          parallel=workers)
        assert isinstance(outcome, tuple)
        beta, witness = outcome
        assert beta == serial_beta
        if beta > 0:
            assert witness.satisfies(beta)


class TestRecoveryLadder:
    def test_single_kill_costs_one_rebuild(self, pool_always,
                                           fault_plan):
        graph = random_signed_graph(7)
        serial = mbc_star(graph, 2)
        fault_plan([Fault("kill", 0)])
        tracer = get_tracer(True)
        clique = mbc_star(graph, 2, parallel=2, trace=tracer)
        assert clique.size == serial.size
        attrs = fanout_attrs(tracer)
        assert attrs["pooled"] is True
        assert attrs["rebuilds"] == 1
        assert attrs["degraded"] is False

    def test_double_kill_degrades_to_in_process(self, pool_always,
                                                fault_plan):
        # The re-dispatched chunk is killed again (attempt 1): the
        # failure budget is spent, the solve finishes in-process —
        # where the parent-pid gate makes the plan inert.
        graph = random_signed_graph(8)
        serial = mbc_star(graph, 2)
        fault_plan([Fault("kill", 0, attempt=0),
                    Fault("kill", 0, attempt=1)])
        tracer = get_tracer(True)
        clique = mbc_star(graph, 2, parallel=2, trace=tracer)
        assert clique.size == serial.size
        attrs = fanout_attrs(tracer)
        assert attrs["degraded"] is True
        assert attrs["rebuilds"] == 1

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform lacks the spawn start method")
    def test_spawn_pool_survives_kill(self, pool_always, fault_plan,
                                      monkeypatch):
        # The fault plan travels through the environment, so it must
        # reach spawn children (no inherited address space) too.
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD",
                            "spawn")
        graph = random_signed_graph(9)
        serial = mbc_star(graph, 2)
        fault_plan([Fault("kill", 0)])
        clique = mbc_star(graph, 2, parallel=2)
        assert clique.size == serial.size


def _publish_then_raise(task):
    """Chunk runner that publishes a bound it will never deliver.

    Chunk 0's first attempt improves the shared incumbent and *then*
    raises — the exact shape of the lost-publication race: the imap
    stream is poisoned, the chunk's result discarded, but the
    published bound survives in shared memory, where (without the
    ``on_recover`` reset) it would prune the re-dispatched chunk out
    of re-certifying it.
    """
    idx, attempt, _payload = task
    ctx = worker_module._CTX
    if idx == 0 and attempt == 0:
        ctx.incumbent.improve(99)
        raise RuntimeError("publication lost with this chunk")
    return idx, (idx, ctx.incumbent.get())


class TestLostPublicationRecovery:
    def test_on_recover_resets_the_incumbent_floor(self):
        # Regression: pf_round_fanout returned beta - 1 when the one
        # chunk proving the top bar published its success to the
        # shared incumbent and then lost its result to a pool failure.
        incumbent = SharedIncumbent(
            1,
            multiprocessing.get_context(
                dispatch_module.preferred_start_method()))
        ctx_obj = WorkerContext([0, 0], [0, 0], 2, 0, [0, 1], incumbent)
        dispatcher = dispatch_module.ResilientDispatcher(2, ctx_obj)
        orphaned = []

        def recover():
            orphaned.append(incumbent.get())
            incumbent.reset(1)

        try:
            results = list(dispatcher.run(
                _publish_then_raise, ["a", "b"], on_recover=recover))
        finally:
            dispatcher.close()
            install_context(None)
        # The hook ran in the no-workers window, after the orphaned
        # publication (99) and before any re-dispatch.
        assert orphaned == [99]
        assert dispatcher.report.rebuilds == 1
        assert dispatcher.report.degraded is False
        # Chunk 0's re-run was asked against the certified floor, not
        # against its own lost publication.
        assert dict(results)[0] == 1


def _improve_forever(value):
    """Child body: publish ever larger values until killed."""
    incumbent = SharedIncumbent.from_value(value)
    step = 0
    while True:
        step += 1
        incumbent.improve(step)


class TestRegisterSurvivesKilledWriter:
    def test_parent_register_calls_finish_after_a_writer_dies(self):
        # Pool termination can kill a worker mid-publication.  The
        # parent's next reset/get/improve must not wait on anything
        # the dead worker held.
        ctx = multiprocessing.get_context(
            dispatch_module.preferred_start_method())
        incumbent = SharedIncumbent(0, ctx)
        for round_ in range(20):
            incumbent.reset(0)
            child = ctx.Process(target=_improve_forever,
                                args=(incumbent.handle,), daemon=True)
            child.start()
            deadline = time.monotonic() + 10
            while incumbent.get() == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            # Let the writer run on its own for a varying moment, so
            # the kill lands at different points of its loop.
            time.sleep(0.001 * (1 + round_ % 7))
            os.kill(child.pid, signal.SIGKILL)
            child.join(5)
            assert not child.is_alive()

            def touch():
                incumbent.reset(1)
                incumbent.get()
                incumbent.improve(2)

            caller = threading.Thread(target=touch, daemon=True)
            caller.start()
            caller.join(2)
            assert not caller.is_alive(), \
                "register call blocked on a lock held by a dead writer"
            assert incumbent.get() == 2


class TestPooledBudgets:
    def test_deadline_fires_in_the_dispatch_heartbeat(self,
                                                      pool_always,
                                                      fault_plan):
        # A chunk stalls past the deadline, so the only place the
        # deadline can trip is the dispatcher's heartbeat (all the
        # work is inside worker processes).
        graph = random_signed_graph(10)
        serial = mbc_star(graph, 2)
        fault_plan([Fault("stall", 0, seconds=2.0)])
        budget = Budget(deadline=0.3)
        clique = mbc_star(graph, 2, parallel=2, budget=budget)
        assert budget.exhausted
        assert budget.status is Status.BUDGET_EXHAUSTED
        assert clique.size <= serial.size
        if not clique.is_empty:
            assert clique.satisfies(2)

    def test_pooled_pf_truncation_keeps_a_witness(self, pool_always):
        graph = random_signed_graph(11)
        true_beta = pf_star(graph)
        budget = Budget(deadline=0.0)
        outcome = pf_star(graph, return_witness=True, parallel=2,
                          budget=budget)
        assert isinstance(outcome, tuple)
        beta, witness = outcome
        assert budget.status is Status.BUDGET_EXHAUSTED
        assert 0 <= beta <= true_beta
        if beta > 0:
            assert witness.satisfies(beta)

    def test_pooled_node_cap_accounts_chunks(self, pool_always):
        # With a node cap the engine forces stats accounting on and
        # charges each arriving chunk, even with no caller stats.
        graph = random_signed_graph(12)
        budget = Budget(max_nodes=10)
        clique = mbc_star(graph, 2, parallel=2, budget=budget)
        assert budget.nodes > 0
        if not clique.is_empty:
            assert clique.satisfies(2)
