"""Chaos: a replica dying mid-simulation must degrade the run, not abort it.

``repro simulate --url`` plans against a live fleet through
:class:`PlanningClient`; its bounded retries absorb the window where a killed
replica's requests bounce (503 / connection reset) until the supervisor
respawns it.  The simulation itself treats any terminal :class:`PlanError`
as a failed round and keeps going, so the worst case is a few failed rounds,
never an exception.
"""

import pytest

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    DefaultRegistryFactory,
    FleetConfig,
    PlanningClient,
    PlanningServer,
    ReplicaFleet,
    RetryPolicy,
    ServiceConfig,
)
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
)

from faults import kill_replica

from oracles import assert_recounted

DAY_S = 86400.0


@pytest.fixture
def fleet_server():
    fleet = ReplicaFleet(
        DefaultRegistryFactory(),
        config=FleetConfig(
            num_replicas=2,
            start_method="fork",
            heartbeat_interval_s=0.05,
            supervise_interval_s=0.02,
            restart_backoff_s=0.02,
            retry=RetryPolicy(max_retries=3, backoff_s=0.02),
            seed=0,
        ),
        service_config=ServiceConfig(),
    )
    fleet.start(timeout=60.0)
    server = PlanningServer(fleet, host="127.0.0.1", port=0)
    server.start()
    try:
        yield server, fleet
    finally:
        server.stop()


class TestSimulationSurvivesReplicaKill:
    def test_replica_kill_mid_simulation_degrades_gracefully(self, fleet_server):
        server, fleet = fleet_server
        spec = ClusterSpec(num_pms=6, target_utilization=0.6, best_fit_fraction=0.3)
        state = SnapshotGenerator(spec, seed=4).generate()
        events = SyntheticTrace(ChurnSpec(), seed=5).generate(DAY_S)
        cluster = LivingCluster(state, events, seed=6)
        client = PlanningClient(server.url, retry=RetryPolicy(max_retries=4, backoff_s=0.05))

        killed = []

        def chaos(record):
            # Kill a replica right after the first round completes; the next
            # rounds' requests hit the healing fleet.
            if record.round_index == 0:
                killed.append(kill_replica(fleet, 0))

        config = SimulationConfig(
            planner="ha",
            migration_limit=4,
            replan_every_s=3600.0,
            plan_delay_s=60.0,
            horizon_s=DAY_S,
            max_rounds=4,
        )
        report = OnlineRescheduler(cluster, client.plan, config, on_round=chaos).run()

        assert killed and killed[0] is not None, "no replica was killed"
        assert len(report.rounds) == 4, "the run must complete every round"
        # Retries should mask the kill entirely; tolerate at most one failed
        # round on a slow respawn, and require planning to have recovered.
        assert report.failed_rounds <= 1
        assert report.rounds[-1].ok
        assert_recounted(cluster.state)
