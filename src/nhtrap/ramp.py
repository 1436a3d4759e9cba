"""The quintic smoothstep ramp shared by escape's cutoffs and capspec's absorbers.

It has a module of its own, with numpy its only import, so that escape-check
loads no scipy and the spectrum commands load no Hamiltonian models.
"""

import numpy as np


def smoothstep5(t):
    """Quintic 0 -> 1 ramp with two flat derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))
