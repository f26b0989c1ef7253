"""The database catalog."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.storage.column import Column
from repro.storage.statistics import AccessStatistics
from repro.storage.table import Table


class Database:
    """A catalog of tables plus the storage manager's access statistics."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        #: ``table.column`` keys resolved so far (see :meth:`column`)
        self._resolved: Dict[str, Column] = {}
        #: per-column access counters (Sec. 3.2): incremented each time
        #: an operator accesses a column, consumed by the data-placement
        #: manager's background job.
        self.statistics = AccessStatistics()

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ValueError("duplicate table {}".format(table.name))
        self._tables[table.name] = table
        return table

    def create_table(self, name: str, nominal_rows: Optional[int] = None) -> Table:
        return self.add_table(Table(name, nominal_rows=nominal_rows))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError("no table {!r} in database {}".format(name, self.name))

    @property
    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def column(self, key: str) -> Column:
        """Look up a column by its ``table.column`` key.

        Tables and columns are only ever added — nothing renames,
        replaces or drops one — so a key, once resolved, stays resolved
        to the same column: the answer is remembered per database (an
        epoch snapshot is its own database) and there is nothing to
        invalidate.
        """
        column = self._resolved.get(key)
        if column is None:
            table_name, _, column_name = key.partition(".")
            column = self.table(table_name).column(column_name)
            self._resolved[key] = column
        return column

    def columns(self) -> List[Column]:
        """Every column of every table."""
        return [c for t in self.tables for c in t.columns]

    @property
    def nominal_bytes(self) -> int:
        return sum(t.nominal_bytes for t in self.tables)
