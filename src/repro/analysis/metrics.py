"""Evaluation metrics:

* the *potential-FR ratio* of the cluster-size generalization experiment
  (Fig. 17) — the fraction of the FR improvement achievable by the
  near-optimal MIP that a method actually realizes, and
* the relative gap between two objective values (§5.2, Fig. 16).
"""

from __future__ import annotations

import numpy as np


def potential_fr_ratio(
    initial_fr: float,
    achieved_fr: float,
    optimal_fr: float,
) -> float:
    """Fraction of the optimal FR improvement actually achieved (Fig. 17).

    ``(initial - achieved) / (initial - optimal)``, clipped to [0, 1] when the
    optimal improvement is positive; defined as 1 when there is nothing to
    improve.
    """
    potential = initial_fr - optimal_fr
    if potential <= 1e-12:
        return 1.0
    ratio = (initial_fr - achieved_fr) / potential
    return float(np.clip(ratio, 0.0, 1.0))


def relative_gap(value: float, reference: float) -> float:
    """Relative gap to a reference value, e.g. VMR2L vs MIP in §5.2 (2.86%)."""
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return (value - reference) / abs(reference)
