"""What a benchmark suite is: a named, seeded run that yields metrics.

Kept apart from the suite modules so that ``suites``, ``figures`` and
``ablations`` can all build specs without importing one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

Metric = dict


def metric(name: str, value, units: str) -> Metric:
    """One benchmark metric row; the baselines hold it exactly."""
    return {"name": name, "value": value, "units": units}


@dataclass(frozen=True)
class Outcome:
    """One run of a suite.

    ``table`` is the paper table a figure suite renders, written to
    ``<results-dir>/<name>.txt``.  ``checks`` maps each of the paper's
    shapes the run must hold to whether it does.  Figure suites fill
    both on the full variant only: the smoke sizes are too small for
    the paper's shapes.
    """

    metrics: list[Metric]
    table: str | None = None
    checks: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    name: str
    description: str
    seed: int
    run: Callable[[bool], Outcome]  # run(smoke) -> outcome
