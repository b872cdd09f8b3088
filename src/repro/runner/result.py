"""The outcome of one sweep, point by point.

:class:`SweepResult` is what :func:`repro.runner.parallel.run_grid`
returns and what a served ``sweep`` request assembles
(:func:`repro.serve.protocol.assemble_sweep_result`): reports for the
points that completed plus a status, and a typed failure or
infeasibility verdict, for every point.  A single ``plan`` never
builds one, so it loads none of this.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping as MappingABC
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

if TYPE_CHECKING:
    from repro.runner.chain import GridPoint
    from repro.runner.errors import InfeasiblePoint, SweepError
    from repro.sim.stats import RunReport


class SweepResult(MappingABC):
    """The outcome of one :func:`run_grid` sweep, point by point.

    A :class:`~collections.abc.Mapping` over the points that produced
    reports (``ok`` and ``skipped``), in input order -- so existing
    ``{point: report}`` call sites (iteration, ``.items()``,
    indexing) keep working unchanged -- plus per-point ``statuses``
    and typed ``failures`` for everything that did not.

    Attributes:
        statuses: ``{point: status}`` for *every* requested point
            (``ok`` / ``failed`` / ``timeout`` / ``skipped`` /
            ``infeasible``).
        failures: ``{point: SweepError}`` for failed/timed-out points.
        infeasible: ``{point: InfeasiblePoint}`` for points whose
            workload provably fits no tiling.  Infeasible points are
            terminal diagnoses, not faults: they do not affect
            :attr:`ok` and :meth:`raise_if_failed` ignores them.
    """

    def __init__(
        self,
        points: Sequence[GridPoint],
        reports: Mapping[GridPoint, RunReport],
        statuses: Mapping[GridPoint, str],
        failures: Mapping[GridPoint, SweepError],
        infeasible: Optional[
            Mapping[GridPoint, InfeasiblePoint]
        ] = None,
    ) -> None:
        self._points = list(points)
        self._reports = dict(reports)
        self.statuses = dict(statuses)
        self.failures = dict(failures)
        self.infeasible = dict(infeasible or {})

    def __getitem__(self, point: GridPoint) -> RunReport:
        try:
            return self._reports[point]
        except KeyError:
            if point in self.failures:
                raise KeyError(
                    f"{point} has no report: "
                    f"{self.failures[point]}"
                ) from None
            if point in self.infeasible:
                raise KeyError(
                    f"{point} has no report: "
                    f"{self.infeasible[point]}"
                ) from None
            raise

    def __iter__(self) -> Iterator[GridPoint]:
        return (p for p in self._points if p in self._reports)

    def __len__(self) -> int:
        return len(self._reports)

    @property
    def points(self) -> List[GridPoint]:
        """Every requested point (deduped, input order), whatever its
        status."""
        return list(self._points)

    @property
    def reports(self) -> Dict[GridPoint, RunReport]:
        """``{point: report}`` for the points that completed."""
        return {p: self._reports[p] for p in self}

    @property
    def ok(self) -> bool:
        """Whether no point *failed* (infeasible diagnoses are
        terminal answers, not failures, and do not count)."""
        return not self.failures

    def counts(self) -> Dict[str, int]:
        """``{status: point count}`` over the whole sweep."""
        return dict(Counter(self.statuses.values()))

    def failed_points(self) -> List[GridPoint]:
        """Points without a report, in input order."""
        return [p for p in self._points if p in self.failures]

    def infeasible_points(self) -> List[GridPoint]:
        """Provably infeasible points, in input order."""
        return [p for p in self._points if p in self.infeasible]

    def raise_if_failed(self) -> "SweepResult":
        """Raise the first failure in input order, if any."""
        for point in self._points:
            if point in self.failures:
                raise self.failures[point]
        return self

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{status}={count}"
            for status, count in sorted(self.counts().items())
        )
        return f"SweepResult({len(self._points)} points: {counts})"
