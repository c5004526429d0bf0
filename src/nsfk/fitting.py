"""Log-log power-law fitting of decay curves and spectral bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of y ~ amplitude * x^exponent on a log-log scale."""

    exponent: float
    amplitude: float
    residual: float  # RMS of log-space misfit


def fit_power_law(x, y, window: tuple[float, float] | None = None) -> PowerLawFit:
    """Fit log y against log x by least squares, optionally on x in [lo, hi].

    Points with nonpositive y are dropped (they carry no log information);
    at least two usable points are required.  A nan y in the window is an
    error, not a dropped point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.ones(y.shape, dtype=bool)
    if window is not None:
        mask &= (x >= window[0]) & (x <= window[1])
    if np.isnan(y[mask]).any():
        raise ValueError(f"power-law fit has nan values in window {window}")
    mask &= y > 0
    if mask.sum() < 2:
        raise ValueError("power-law fit needs at least two points with y > 0 "
                         f"in window {window}")
    lx, ly = np.log(x[mask]), np.log(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return PowerLawFit(exponent=float(slope), amplitude=float(np.exp(intercept)),
                       residual=resid)
