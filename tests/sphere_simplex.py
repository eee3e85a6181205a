"""Sphere angles and start simplices for the Nelder-Mead reference refinements.

The library refines measurement directions by stencil Newton steps in tangent
coordinates; these helpers rebuild the earlier sphere-angle simplex search,
which the tests keep as an independent reference and as simplex test input.
"""

import numpy as np


def _angles_to_dir(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (..., 3) from sphere angles (..., 2) = (theta, phi)."""
    theta = angles[..., 0]
    phi = angles[..., 1]
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _initial_simplices(x0: np.ndarray) -> np.ndarray:
    """Nelder-Mead start simplices (R, n+1, n) around the rows of x0 (R, n).

    Vertex k+1 scales coordinate k by 1.05, or sets it to 0.00025 when it is
    zero: the customary default start simplex of Nelder-Mead codes.
    """
    r, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0.0, 1.05 * x0, 0.00025)
    return sim
