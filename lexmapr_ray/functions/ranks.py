"""Global running values (dense ranks, token offsets, cumulative weights,
running counts) by the block-offset prefix sum.  Shape:

    sort(by, descending)             -> range-partitioned, globally ordered
    materialize                      -> the stats pass and the offset pass
                                        read the SAME sorted blocks
    one stats row per block          -> (first-row key, rows, sum of each
                                        ``sums`` column) to the driver; the
                                        driver holds one row per BLOCK,
                                        never per row
    exclusive cumsums -> ray.put     -> each block's offsets, broadcast once
    per-block local cumsum + offset  -> ``row`` and ``<c>_before``

Exact because equal keys are co-partitioned and sort outputs are never
re-split (the pinned guarantee in ``functions/groupagg.py``): every block
is one key range, so its first-row key names it.  The driver checks that
those keys are distinct and raises instead of applying a wrong offset.
Scale: a 100 TB corpus at 128 MiB blocks is ~800k driver rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.functions.broadcast import get_once


def prefix_sums(ds, by, *, descending=False, sums=()):
    """Sort ``ds`` on the key columns ``by`` (``descending``: one bool or
    one per column) and append ``row``, the 0-based global position, and
    ``<c>_before``, the sum of ``c`` over all earlier rows, for each
    integer column ``c`` in ``sums``.  Returns ``(dataset, totals)``;
    ``totals`` holds ``rows`` and the total of each ``c``."""
    import ray

    by = [by] if isinstance(by, str) else list(by)
    desc = [descending] * len(by) if isinstance(descending, bool) \
        else list(descending)
    keys = [f"k{i}" for i in range(len(by))]
    sum_keys = [f"s{i}" for i in range(len(sums))]
    keyed = ds.sort(by, descending=desc).materialize()

    def stats_row(t: pa.Table) -> pa.Table:
        return pa.table({
            **{k: t[c].slice(0, 1) for k, c in zip(keys, by)},
            "rows": [t.num_rows],
            **{k: [pc.sum(t[c])] for k, c in zip(sum_keys, sums)},
        })

    rows = keyed.map_batches(stats_row, batch_format="pyarrow",
                             batch_size=None).take_all()
    stats = pa.table({c: [r[c] for r in rows]
                      for c in keys + ["rows"] + sum_keys}) \
        .sort_by([(k, "descending" if d else "ascending")
                  for k, d in zip(keys, desc)])
    firsts = list(zip(*(stats[k].to_pylist() for k in keys)))
    if len(set(firsts)) != len(firsts):
        raise RuntimeError("prefix_sums: two sorted blocks start with the "
                           "same key; block offsets would be wrong")
    counts = [stats[c].to_numpy() for c in ["rows"] + sum_keys]
    before = [np.cumsum(v) - v for v in counts]
    index_ref = ray.put({k: tuple(int(b[i]) for b in before)
                         for i, k in enumerate(firsts)})
    totals = dict(zip(["rows", *sums], (int(v.sum()) for v in counts)))

    def offsets(t: pa.Table) -> pa.Table:
        row0, *starts = get_once(index_ref)[tuple(t[c][0].as_py() for c in by)]
        t = t.append_column("row", pa.array(
            row0 + np.arange(t.num_rows, dtype=np.int64)))
        for c, start in zip(sums, starts):
            v = t[c].to_numpy()
            t = t.append_column(f"{c}_before", pa.array(start + np.cumsum(v) - v))
        return t

    return keyed.map_batches(offsets, batch_format="pyarrow",
                             batch_size=None), totals
