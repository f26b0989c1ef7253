"""Table epochs: append batches under snapshot isolation.

Service mode mutates data while queries are in flight.  The storage
substrate is immutable by design (columns are numpy arrays shared by
caches, shm exports, and memoised plans), so mutation is modelled as
*snapshots*: an append batch builds a new :class:`Database` whose
untouched tables share their :class:`Table`/:class:`Column` objects
with the previous epoch, while each appended table gets freshly
concatenated columns (the batch re-appends a prefix of the existing
rows, so reference results over the new epoch are well-defined without
a data generator in the loop).

Every in-flight query *pins* the epoch it was admitted under and
executes against that snapshot — results stay byte-identical to the
reference engine evaluated over the same snapshot, however many
appends land mid-query.  Once a superseded snapshot drains (no pins),
:meth:`EpochStore.retire` drops everything derived from it — join
indexes, memoised plans, size estimates, its shm export — with
:func:`repro.engine.caches.forget`, exactly the bookkeeping a
real system performs when a delta merges into the read-optimised
store.

Because each epoch is a distinct ``Database`` object and every derived
cache in the engine is keyed per database, epoch isolation needs no
cooperation from the execution layers: a query handed snapshot *e*
builds join indexes and memoised results for *e* and can never observe
rows appended after its admission.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import Column
from repro.storage.database import Database
from repro.storage.table import Table


class EpochStore:
    """Snapshot chain for one base database under append mutation."""

    def __init__(self, base: Database):
        self.base = base
        self.epoch = 0
        self._snapshots: Dict[int, Database] = {0: base}
        self._pins: Counter = Counter()
        self._retired: set = set()
        #: rows appended per table across all epochs (reporting)
        self.appended_rows: Counter = Counter()

    # -- access -------------------------------------------------------

    @property
    def head(self) -> Database:
        """The newest snapshot — what fresh arrivals execute against."""
        return self._snapshots[self.epoch]

    def snapshot(self, epoch: int) -> Database:
        return self._snapshots[epoch]

    def live_epochs(self) -> List[int]:
        """Epochs whose caches are still valid (not yet retired)."""
        return sorted(e for e in self._snapshots if e not in self._retired)

    # -- pinning ------------------------------------------------------

    def pin(self, epoch: Optional[int] = None) -> int:
        """Pin a snapshot (default: head) for one in-flight query."""
        if epoch is None:
            epoch = self.epoch
        if epoch not in self._snapshots:
            raise KeyError("unknown epoch {}".format(epoch))
        self._pins[epoch] += 1
        return epoch

    def unpin(self, epoch: int) -> int:
        """Release a pin; superseded snapshots retire once drained.
        Returns how many snapshots retired as a consequence."""
        if self._pins[epoch] <= 0:
            raise ValueError("epoch {} is not pinned".format(epoch))
        self._pins[epoch] -= 1
        return self.retire()

    def pins(self, epoch: int) -> int:
        return self._pins[epoch]

    # -- mutation -----------------------------------------------------

    def advance(self, fraction: float = 0.05,
                tables: Optional[Sequence[str]] = None) -> Database:
        """Append a batch and return the new head snapshot.

        ``fraction`` of each target table's rows (at least one) is
        appended; ``tables`` defaults to the largest table — the fact
        table, where real append traffic lands.  Nominal (paper-scale)
        row counts grow proportionally so cost, cache, and transfer
        accounting see the mutation too.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("append fraction must be in (0, 1]")
        head = self.head
        if tables is None:
            fact = max(head.tables, key=lambda t: t.actual_rows)
            targets = {fact.name}
        else:
            targets = set(tables)
            for name in targets:
                head.table(name)  # raise on unknown tables
        self.epoch += 1
        snapshot = Database("{}@e{}".format(
            self.base.name, self.epoch))
        for table in head.tables:
            if table.name in targets and table.actual_rows > 0:
                grown, appended = self._appended(table, fraction)
                self.appended_rows[table.name] += appended
                snapshot.add_table(grown)
            else:
                # untouched tables share their columns with the
                # previous epoch — a snapshot costs only the delta
                snapshot.add_table(table)
        self._snapshots[self.epoch] = snapshot
        return snapshot

    @staticmethod
    def _appended(table: Table, fraction: float) -> Tuple[Table, int]:
        rows = table.actual_rows
        batch = max(1, int(rows * fraction))
        scale = (rows + batch) / float(rows)
        grown = Table(table.name,
                      nominal_rows=int(round(table.nominal_rows * scale)))
        for column in table.columns:
            values = np.concatenate(
                [column.values, column.values[:batch]])
            appended = Column(
                column.table, column.name, column.ctype, values,
                nominal_rows=int(round(column.nominal_rows * scale)),
                dictionary=column.dictionary,
            )
            appended.compression = column.compression
            grown.adopt_column(appended)
        return grown, batch

    # -- retirement ---------------------------------------------------

    def retire(self) -> int:
        """Forget every drained, superseded snapshot's derived state;
        returns how many retired."""
        # imported here: storage must not depend on the engine package
        # at import time (the engine builds on storage)
        from repro.engine import caches
        count = 0
        for epoch in sorted(self._snapshots):
            if (epoch < self.epoch and epoch not in self._retired
                    and self._pins[epoch] == 0):
                caches.forget(self._snapshots[epoch])
                self._retired.add(epoch)
                count += 1
        return count


__all__ = ["EpochStore"]
