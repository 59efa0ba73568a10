"""Named verification results with a stable, machine-readable schema."""

from __future__ import annotations

import functools
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


class SweepRow(Mapping):
    """One (eps, T) grid point of a polynomial sweep: a read-only mapping
    with the keys eps, T and min_margin.

    A sweep has hundreds of rows and a benchmark keeps every pass's
    reports, so a row holds three slots (56 bytes) instead of a dict
    (184).  It reads like the dict it replaces, and
    :meth:`CheckReport.to_dict` writes it as one.
    """

    __slots__ = ("eps", "T", "min_margin")

    def __init__(self, eps: float, T: float, min_margin: float):
        self.eps = eps
        self.T = T
        self.min_margin = min_margin

    def __getitem__(self, key):
        if key not in self.__slots__:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(self.__slots__)

    def __len__(self):
        return len(self.__slots__)


@dataclass(slots=True)
class CheckReport:
    """Result of one verification run.

    pass rule: min_margin > tolerance (when a margin applies) and
    max_residual <= residual_tolerance (when a residual applies).
    ``note`` records the identity or condition the check certifies, so a
    report is interpretable on its own.  ``rows`` holds per-grid-point
    results (used for polynomial sweeps and endpoint comparisons): dicts,
    or :class:`SweepRow` mappings.
    ``wall_time_ms`` is the time span of the check function that returned
    the report (see :func:`timed`); leaves built inside a check read 0.
    The class has slots, no per-instance dict: a sweep keeps many
    reports, and each holds only its fields.
    """

    name: str
    n_samples: int
    min_margin: float | None
    max_residual: float | None
    tolerance: float
    passed: bool
    seed: int
    wall_time_ms: float
    note: str = ""
    residual_tolerance: float | None = None
    rows: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def to_dict(self):
        d = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "n_samples": self.n_samples,
            "min_margin": self.min_margin,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "residual_tolerance": self.residual_tolerance,
            "passed": bool(self.passed),
            "seed": self.seed,
            "wall_time_ms": self.wall_time_ms,
            "note": self.note,
        }
        if self.rows:
            d["rows"] = [dict(row) for row in self.rows]
        if self.details:
            d["details"] = [r.to_dict() for r in self.details]
        return d


def _reduce(values, reduction):
    """One float from pointwise values: a scalar, an array, or a list of
    arrays.  np.min and np.max propagate NaN, so a NaN anywhere is the
    result and fails the pass rule."""
    if isinstance(values, list):
        values = [reduction(v) for v in values]
    return float(reduction(values))


def make_report(name, *, n_samples, tolerance, seed, note="",
                min_margin=None, max_residual=None, residual_tolerance=None,
                rows=None, passed=None):
    """Assemble a leaf report from its pointwise values.

    ``min_margin`` and ``max_residual`` take a scalar, an array, or a list
    of arrays, reduced here by np.min and np.max over every value.  The
    pass flag follows the pass rule on the reduced values unless
    ``passed`` overrides it.  A leaf has no details, and its wall_time_ms
    is left 0 for :func:`timed` or run_suite to stamp."""
    if min_margin is not None:
        min_margin = _reduce(min_margin, np.min)
    if max_residual is not None:
        max_residual = _reduce(max_residual, np.max)
    if passed is None:
        passed = True
        if min_margin is not None:
            passed = passed and (min_margin > tolerance)
        if max_residual is not None:
            rtol = tolerance if residual_tolerance is None else residual_tolerance
            passed = passed and (max_residual <= rtol)
    return CheckReport(
        name=name,
        n_samples=int(n_samples),
        min_margin=min_margin,
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=bool(passed),
        seed=int(seed),
        wall_time_ms=0.0,
        note=note,
        residual_tolerance=(None if residual_tolerance is None
                            else float(residual_tolerance)),
        rows=rows or [],
    )


def merge_reports(name, reports, seed=0, note=""):
    """Reduce sub-reports: margins by min, residuals by max, pass by all.
    A NaN margin or residual in any sub-report makes the merged one NaN.
    wall_time_ms is left 0 for :func:`timed` or run_suite to stamp."""
    margins = [r.min_margin for r in reports if r.min_margin is not None]
    residuals = [r.max_residual for r in reports if r.max_residual is not None]
    return CheckReport(
        name=name,
        n_samples=sum(r.n_samples for r in reports),
        min_margin=float(np.min(margins)) if margins else None,
        max_residual=float(np.max(residuals)) if residuals else None,
        tolerance=min(r.tolerance for r in reports),
        passed=all(r.passed for r in reports),
        seed=seed,
        wall_time_ms=0.0,
        note=note,
        details=list(reports),
    )


def timed(check):
    """Decorate a check: stamp ``wall_time_ms`` on the CheckReport it
    returns, alone or as the last element of a tuple, with the time span
    of the call."""
    @functools.wraps(check)
    def timed_check(*args, **kwargs):
        t0 = time.perf_counter()
        out = check(*args, **kwargs)
        report = out[-1] if isinstance(out, tuple) else out
        report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        return out
    return timed_check
