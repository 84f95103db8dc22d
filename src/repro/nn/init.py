"""Weight initialization for the :mod:`repro.nn` substrate.

The paper follows the CleanRL PPO convention of orthogonal initialization with
layer-dependent gains; every :class:`~repro.nn.layers.Linear` weight is drawn
here.
"""

from __future__ import annotations

import numpy as np


def orthogonal(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialization (the CleanRL default for PPO policies)."""
    if len(shape) < 2:
        raise ValueError("orthogonal initialization requires at least 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Make the decomposition unique / uniform.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols].reshape(shape)
