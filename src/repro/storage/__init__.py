"""Column-oriented in-memory storage.

CoGaDB is a main-memory column store with 32-bit OIDs (Sec. 2.5).  This
package provides the storage substrate:

* :class:`ColumnType` — fixed-width column types (strings are
  dictionary-encoded with an order-preserving dictionary so range
  predicates work on codes).
* :class:`Column` — one attribute: a numpy array of *actual* values
  plus a *nominal* row count.  All cost/cache/heap accounting uses
  nominal (paper-scale) bytes while functional execution uses the
  actual array, so experiments are cheap but results stay verifiable.
* :class:`Table` and :class:`Database` — the catalog.
* :class:`AccessStatistics` — per-column access counters feeding the
  data-placement manager (Sec. 3.2).
"""

from repro.storage.types import ColumnType
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.database import Database
from repro.storage.epochs import EpochStore
from repro.storage.statistics import AccessStatistics

__all__ = [
    "AccessStatistics",
    "Column",
    "ColumnType",
    "Database",
    "EpochStore",
    "Table",
]

# repro.storage.compression is imported lazily by its users to keep the
# core import graph small; see compress_database / choose_codec there.
