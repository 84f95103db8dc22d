"""Fragmentation metrics over the SoA view's free-resource arrays.

The paper's headline objective is the X-core fragment rate (FR): the fraction
of free CPU across the cluster that cannot be used to host an additional
X-core VM because it is scattered in pieces smaller than X cores per NUMA
(§1, §2.1).  The default is X = 16 (the 4xlarge development-machine flavor).

The same functions give the 64-core FR and the 64-GB memory fragment metric
(Mem64) that the mixed objectives of §5.5.2–5.5.3 combine (Eq. 12,
:mod:`repro.env.objectives`), and the per-PM fragment size used for the
dense reward (Eq. 8–9).  Every metric reads free-resource arrays
(``numa_free_cpu`` / ``numa_free_mem`` of
:class:`~repro.cluster.soa.ClusterArrays`, or one PM's row of them).
"""

from __future__ import annotations

import numpy as np

#: The default fragment granularity (16-core VMs, §1).
DEFAULT_FRAGMENT_CORES = 16

#: Reward normalization constant c from Eq. 8 of the paper.
REWARD_SCALE = 64.0


def fragment_arrays(free: np.ndarray, granularity: float) -> float:
    """Total fragment of a free-resource array: one PM's ``(2,)`` row (the
    Eq. 8 numerator) or the cluster's ``(P, 2)`` matrix (Eq. 1)."""
    if granularity <= 0:
        raise ValueError("fragment granularity must be positive")
    return float((free % granularity).sum())


def fragment_rate_arrays(free: np.ndarray, granularity: float) -> float:
    """Fragment rate of a ``(P, 2)`` free-resource array: unusable free
    resource / total free resource (§1).

    Applies to CPU (X-core FR) and memory (Mem64) alike.  The worked example
    in Figs. 2–3: PM1 has 12 free cores and PM2 has 20 free cores; fragments
    are ``12 % 16 + 20 % 16 = 16`` and free CPU totals 32, so the FR is 50%.
    After migrating a 4-core VM both PMs hold 16 free cores and the FR drops
    to 0.  An empty cluster (no free resource) has rate 0 by convention.
    """
    if granularity <= 0:
        raise ValueError("fragment granularity must be positive")
    total_free = float(free.sum())
    if total_free <= 0:
        return 0.0
    return float((free % granularity).sum()) / total_free

