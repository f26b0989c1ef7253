"""Hash join."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.engine import kernels
from repro.engine.expressions import ColumnRef
from repro.engine.intermediates import OperatorResult, TidSet
from repro.engine.operators.base import (
    OpEstimate,
    PhysicalOperator,
    TID_BYTES,
    scaled_nominal_rows,
)
from repro.storage import Database


class HashJoin(PhysicalOperator):
    """Inner equi-join of two TidSet children.

    The left child is the probe side (usually the fact-table lineage),
    the right child the build side (usually a filtered dimension).  The
    output TidSet aligns the positions of every base table reachable
    from either side.
    """

    kind = "join"
    role = "join"

    def __init__(
        self,
        probe: PhysicalOperator,
        build: PhysicalOperator,
        probe_key: ColumnRef,
        build_key: ColumnRef,
        label: str = "",
    ):
        super().__init__(
            children=[probe, build],
            label=label or "Join({}={})".format(probe_key.key, build_key.key),
        )
        self.probe_key = probe_key
        self.build_key = build_key

    def state_key(self):
        return (self.probe_key.key, self.build_key.key)

    def _read_columns(self) -> Set[str]:
        return {self.probe_key.key, self.build_key.key}

    def _row_width(self, database: Database, key: ColumnRef) -> int:
        """Bytes per row of one join side: the tid plus its key."""
        return TID_BYTES + database.column(key.key).ctype.itemsize

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        probe, build = child_results
        width = self._row_width(database, self.probe_key)
        probe_bytes = probe.nominal_rows * width
        build_bytes = build.nominal_rows * width
        return max(probe_bytes + build_bytes, TID_BYTES)

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        probe, build = child_estimates
        build_rows = database.table(self.build_key.table).nominal_rows
        build_selectivity = (
            min(build.out_rows / build_rows, 1.0) if build_rows else 1.0
        )
        out_rows = probe.out_rows * build_selectivity
        return OpEstimate(
            (probe.out_rows + build.out_rows)
            * self._row_width(database, self.probe_key),
            out_rows,
            out_rows * 2 * TID_BYTES,
        )

    def device_footprint_bytes(self, profile, database, child_results) -> int:
        """Hash-join working memory: the hash table over the build side
        plus output buffers sized by the streamed probe side."""
        probe, build = child_results
        width = self._row_width(database, self.build_key)
        build_bytes = build.nominal_rows * width
        probe_bytes = probe.nominal_rows * width
        return int(2.0 * build_bytes + 0.5 * probe_bytes)

    def output_size(self, n_out: int, probe_actual: int, probe_nominal: int,
                    n_tables: int):
        """(actual rows, nominal rows, row width) of a join that found
        ``n_out`` matches: one aligned tid per reachable table."""
        nominal = scaled_nominal_rows(
            n_out, max(probe_actual, 1), probe_nominal
        )
        return n_out, nominal, TID_BYTES * n_tables

    def match(self, prober, keys: np.ndarray,
              lineage: Dict[str, Optional[np.ndarray]],
              offset: int = 0) -> Dict[str, np.ndarray]:
        """Chunk kernel: probe ``keys`` — the probe column at the
        chunk's rows — and align every reachable table to the matches.

        ``lineage`` maps each table of the probe side to its tids, row
        for row with ``keys``; None stands for the chunk's own rows
        ``offset, offset + 1, ...``.  The result adds the build table
        under what ``prober`` returns for it.  Probers list matches in
        probe order, so the lineages of consecutive row ranges
        concatenate to the lineage of the whole column — the one-chunk
        call ``run()`` makes."""
        probe_idx, build_tids = prober.probe(keys)
        aligned = {
            name: offset + probe_idx if tids is None else tids[probe_idx]
            for name, tids in lineage.items()
        }
        aligned[self.build_key.table] = build_tids
        return aligned

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        probe, build = child_results
        probe_payload, build_payload = probe.payload, build.payload
        build_table = self.build_key.table
        for name in build_payload.table_names:
            if name in probe_payload:
                raise ValueError(
                    "table {} appears on both join sides".format(name)
                )
        probe_column = database.column(self.probe_key.key)
        build_column = database.column(self.build_key.key)

        # A (lazy) selection over one base table probes through the
        # cached structure of the full key column; any other build side
        # — a join result, several aligned tables, a tid array — through
        # an index of its gathered keys, mapped back below.
        prober = None
        build_selection = build_payload.selection(build_table)
        if build_selection is not None and len(build_payload.tables) == 1:
            prober = kernels.prober_for(
                kernels.cache_for(database), build_column, build_selection,
                probe_column,
            )
        gathered = prober is None
        if gathered:
            prober = kernels.gathered_prober(
                build_payload.gather(build_table, build_column))

        lineage = {}
        for name in probe_payload.table_names:
            selection = probe_payload.selection(name)
            whole = selection is not None and selection.is_all
            lineage[name] = None if whole else probe_payload.positions(name)
        tables = self.match(
            prober, probe_payload.gather(self.probe_key.table, probe_column),
            lineage,
        )
        if gathered:
            build_idx = tables.pop(build_table)
            for name in build_payload.table_names:
                tables[name] = build_payload.positions(name)[build_idx]

        payload = TidSet(tables)
        return OperatorResult(
            payload,
            *self.output_size(len(payload), probe.actual_rows,
                              probe.nominal_rows, len(tables))
        )
