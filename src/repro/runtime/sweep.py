"""Generic parameter-sweep utility used by benches and examples.

A sweep maps a list of parameter values through a runner callable,
collects per-value result dicts, and renders them as a table.  Runners
are plain callables so every experiment stays import-light and testable.
Fan-out is delegated to :func:`repro.runtime.map_ordered`, so a sweep
can run its values on a thread pool (``workers >= 2``) without changing
the collected order.

BER/FER sweeps over Eb/N0 grids belong to
:class:`repro.runtime.SweepEngine` via :meth:`repro.link.Link.sweep`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.runtime.parallel import map_ordered
from repro.utils.tables import Table


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`run_sweep`."""

    parameter: str
    values: tuple
    rows: tuple[dict, ...]

    def column(self, key: str) -> list:
        """Extract one result column across the sweep."""
        return [row[key] for row in self.rows]

    def to_table(self, columns: Sequence[str], title: str | None = None) -> Table:
        """Render selected columns (parameter first) as a Table."""
        table = Table([self.parameter, *columns], title=title)
        for value, row in zip(self.values, self.rows):
            table.add_row([value, *[row[c] for c in columns]])
        return table


def run_sweep(
    parameter: str,
    values: Iterable,
    runner: Callable[[object], dict],
    workers: int = 0,
) -> SweepResult:
    """Run ``runner(value)`` for each value and collect the result dicts.

    Parameters
    ----------
    parameter:
        Name of the swept parameter (table header).
    values:
        Parameter values.
    runner:
        Callable returning a flat dict of metrics for one value.
    workers:
        ``0``/``1`` runs the values serially; ``>= 2`` fans them out on a
        thread pool of that size (see
        :func:`repro.runtime.map_ordered`).  Runners must then be
        thread-safe — in particular, build any decoder *inside* the
        runner rather than sharing one across calls.  Row order always
        matches ``values``.
    """
    values = tuple(values)

    def checked(value):
        # Validate inside the mapped callable so a bad runner fails fast
        # (serial mode stops at the first bad value, not after the sweep).
        row = runner(value)
        if not isinstance(row, dict):
            raise TypeError(
                f"sweep runner must return a dict, got {type(row).__name__}"
            )
        return row

    rows = map_ordered(checked, values, workers=workers)
    return SweepResult(parameter=parameter, values=values, rows=tuple(rows))
