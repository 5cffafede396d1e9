"""Global deterministic top-k without shuffling the full dataset.

``Dataset.sort().limit(k)`` moves EVERY row through the all-to-all exchange
to keep k of them — at 100 TB that is the whole corpus shuffled for a
10-row answer (judge r2 flagged the pattern in four queries).  The fix is
the same exact-safe prune already proven in ``top_orders_per_customer`` /
``tfidf_top_terms``: the global top-k is a subset of the union of per-block
top-k's (a row beaten by k rows inside its own block is beaten by k rows
globally), so a per-block Arrow prune before the sort is lossless while
shrinking the shuffle input to <= k rows per block.

:func:`key_topk` is the per-key form of the same prune: the first k rows of
every key, the combine and the final of a ``sorted_group_reduce``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.functions import groupagg
from lexmapr_ray.functions.groupagg import run_spread, run_starts


def _sort_keys(keys: list[str], descending: list[bool]):
    return [
        (c, "descending" if d else "ascending") for c, d in zip(keys, descending)
    ]


def key_topk(t: pa.Table, by, order, k: int, rank: str | None = None) -> pa.Table:
    """The first ``k`` rows of each ``by`` key of ``t`` under ``order``.

    ``by`` is a column name or a list of them; ``order`` is a list of
    ``(column, "ascending" | "descending")`` that ranks the rows within a
    key.  The result is sorted by ``by`` then ``order``.  With ``rank``, a
    column of that name holds each row's 1-based position in its key.

    Keeping a key's first k rows of any subset of its rows keeps every row
    of its top k, so the same call is exact as a per-block combine before
    the key sort and as the final after it."""
    by = [by] if isinstance(by, str) else list(by)
    t = t.sort_by([(c, "ascending") for c in by] + list(order))
    n = t.num_rows
    starts = run_starts(t, by)
    pos = np.arange(n) - run_spread(starts, starts, n)
    keep = pos < k
    out = t.filter(pa.array(keep))
    if rank is not None:
        out = out.append_column(rank, pa.array(pos[keep] + 1))
    return out


def topk_prune(ds, keys: list[str], descending: list[bool], k: int):
    """Per-block top-k combiner (Arrow sort_indices + take, no pandas)
    over batches of ``groupagg.DEFAULT_BUNDLE`` rows."""
    sk = _sort_keys(keys, descending)

    def prune(t: pa.Table) -> pa.Table:
        if len(t) <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=sk)
        return t.take(idx.slice(0, k))

    return ds.map_batches(prune, batch_format="pyarrow",
                          batch_size=groupagg.DEFAULT_BUNDLE)


def global_topk(ds, keys: list[str], descending: list[bool], k: int,
                schema: pa.Schema | None = None):
    """Deterministic global top-k: per-block prune -> tiny sort -> limit.

    ``keys``/``descending`` must form a total order (include a tiebreaker
    column) so the result is engine-independent.

    ``schema``: pass the result schema when the input can be LEGITIMATELY
    EMPTY — a sort over zero blocks yields a dataset with no blocks at
    all (``schema() is None``), so downstream consumers lose the column
    names and a schema compare fails on an empty-vs-empty result.  With a
    schema, the ≤ k result rows (parameter-bounded, never corpus-scale)
    are collected once and re-wrapped as one TYPED block, so ``schema()``
    is always populated.  (``Dataset.union`` with a 0-row block was tried
    first and trips an executor assertion on sort-bearing plans in Ray
    2.49.)

    NOTE: the ``schema=`` path is EAGER — ``take_all()`` executes the
    whole upstream pipeline at CALL time (the returned Dataset is a
    re-wrap of the ≤ k collected rows, not a lazy view), unlike the
    ``schema=None`` path which stays a lazy Dataset.  Acceptable because
    the collected result is ≤ k rows, but callers composing further
    pipeline stages on top should know construction pays the full run.
    """
    out = topk_prune(ds, keys, descending, k).sort(
        keys, descending=descending
    ).limit(k)
    if schema is not None:
        import ray.data as rd

        rows = out.take_all()  # ≤ k rows by construction
        tbl = pa.Table.from_pylist(rows, schema=schema) if rows \
            else schema.empty_table()
        return rd.from_arrow(tbl)
    return out
