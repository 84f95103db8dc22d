"""The systems under test, built from public constructors only.

``ServiceStack`` is the in-process :class:`ReschedulingService`;
``FleetStack`` is ``PlanningClient`` → ``PlanningServer`` →
``ReplicaFleet(1)`` → replica service, with the fleet also reachable
directly.  Product defaults throughout: ``VMR2LAgent(seed=0)`` (untrained:
timing does not depend on weight values), ``ServiceConfig()``,
``FleetConfig()`` with one replica.
"""

from __future__ import annotations

import time

from repro.core import VMR2LAgent
from repro.serve import (
    DefaultRegistryFactory,
    FleetConfig,
    PlanningClient,
    PlanningServer,
    ReplicaFleet,
    ReschedulingService,
    build_default_registry,
)

AGENT_SEED = 0


class ServiceStack:
    """In-process service: ``handle`` for one outstanding request,
    ``submit`` (queue worker, micro-batching) for several."""

    def __init__(self) -> None:
        agent = VMR2LAgent(seed=AGENT_SEED)
        self.service = ReschedulingService(
            build_default_registry(agent=agent, include_slow=False)
        )
        self.service.start()
        self.plan = self.service.handle
        self.submit = self.service.submit

    def stop(self) -> None:
        self.service.stop()


class FleetStack:
    """One-replica fleet behind the HTTP server; ``plan`` goes through the
    client, ``submit`` and ``fleet.plan`` enter at the fleet."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.fleet = ReplicaFleet(
            DefaultRegistryFactory(seed=AGENT_SEED), FleetConfig(num_replicas=1)
        )
        try:
            self.fleet.start()
            self.fleet_start_s = time.perf_counter() - started
            self.server = PlanningServer(self.fleet, port=0)
        except BaseException:
            self.fleet.stop()
            raise
        self.server.start()
        self.client = PlanningClient(self.server.url)
        self.plan = self.client.plan
        self.submit = self.fleet.submit

    def stop(self) -> None:
        self.server.stop()  # also stops the fleet and joins its replica
