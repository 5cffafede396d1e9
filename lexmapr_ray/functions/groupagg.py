"""Distributed grouped aggregation via sort co-location, and the engine's
one co-location exchange.

Measured on this Ray build (2.49), both built-in grouped operators are
dominated by per-group / per-block machinery rather than the actual
reduction: ``groupby().map_groups`` pays one Python call per group
(~1 ms x cardinality), and ``groupby().aggregate`` pays AggregateFn row
accounting that hit 28 s for a single 76k-row block in the q5 join.  The
engine therefore standardizes on ONE shape for every grouped reduction:

    partial per-batch combine  (bundled large batches — also coalesces
        block count ahead of the shuffle, blocks^2 sort cost)
    -> Dataset.sort(keys)
    -> per-block vectorized final combine  (the last two are
        :func:`sorted_final`; see the co-location invariant below)

Both sides run on Arrow tables.  ``grouped_sum_count`` covers the
Sum/Count family (every SQL-oracled query in this repo) with Arrow hash
aggregation; pass ``partial_fn``/``final_fn`` to :func:`sorted_group_reduce`
for custom reductions (argmax, pair generation, ...).  :func:`run_starts`,
:func:`run_spread` and :func:`fold_binary` are the kernels those
reductions share: keep-first/argmax over a key-sorted table, a per-key
value broadcast back to the key's rows, and the element-wise merge of
fixed-width register/bitmap rows.  ``functions/topk.py::key_topk`` builds
the per-key top-k (argmax is its k=1) on the first two; it serves as both
the partial and the final of a per-key top-k reduce.

The co-location invariant.  Every operator in the engine that needs each
key's rows together in one block (a grouped final, a per-key window, a
join merge, a bucket's pair explode) goes through :func:`sorted_final`,
the one ``sort -> whole-block map`` in the engine; no other module
writes that chain.  It is exact for two reasons:

* a range sort assigns each row by comparing its sort key with sampled
  boundaries, so rows with equal sort keys land in one partition.  Only
  the whole sort key is kept together: a composite sort can cut a group
  of its first column at a mid-group boundary, so sort on the group key
  alone;
* Ray 2.49's sort reduce task merges its range's mapper slices with
  ``BlockAccessor.merge_sorted_blocks`` and returns ONE block per range
  partition (ray/data/_internal/planner/exchange/sort_task_spec.py:
  148-161) — sort outputs are never re-split at ``target_max_block_size``,
  so with ``batch_size=None`` the map right after the sort sees each range
  whole.  Any LATER map's output blocks are re-split, so a per-key pass
  must run inside ``final_fn``, not downstream of it.

The cost of a pathologically hot key is one oversized block's worth of
MEMORY in its reduce/consumer task, never a silently split group.
``tests/test_stages.py::test_sorted_reduce_survives_tiny_block_target``
pins the behavior: if a Ray upgrade ever starts splitting sort outputs,
that test fails loudly instead of queries silently double-counting.
``tests/test_stages.py::test_colocation_sort_ratchet`` keeps every other
module on :func:`sorted_final`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_BUNDLE = 65536


def sorted_group_reduce(ds, keys, partial_fn, final_fn, *, bundle: int = DEFAULT_BUNDLE):
    """General two-phase grouped reduction (see module docstring):
    ``partial_fn`` over batches of ``bundle`` rows, then
    :func:`sorted_final`.

    ``partial_fn``/``final_fn`` map an Arrow table to an Arrow table.  For
    a reduction both must be per-key associative (partial output rows for
    one key are merged by final_fn exactly once, in one block); a
    row-wise ``partial_fn`` (a projection ahead of a per-key window) is
    the degenerate case.  Neither is called on a 0-row batch: Ray passes
    an empty block through a ``map_batches`` unchanged (pinned by
    ``tests/test_stages.py::test_map_batches_never_sees_an_empty_batch``).
    """
    partial = ds.map_batches(partial_fn, batch_format="pyarrow", batch_size=bundle)
    return sorted_final(partial, keys, final_fn)


def sorted_final(partials, keys, final_fn):
    """The engine's one sort-then-whole-block map: sort ``partials`` on
    ``keys`` (a column name or a list) and run ``final_fn`` (Arrow table ->
    Arrow table) on each sorted block whole, so it sees every key's rows
    together (see module docstring).  It is the exchange half of
    :func:`sorted_group_reduce`, and also every per-key pass that is not a
    reduce: join merges, windows, bucket pair explodes.  The output
    blocks follow the sort's key ranges in order."""
    return partials.sort(keys).map_batches(final_fn, batch_format="pyarrow", batch_size=None)


def grouped_sum_count(
    ds,
    keys: list[str] | str,
    sum_cols: dict[str, str] | None = None,
    count_alias: str | None = None,
):
    """groupby(keys) with integer/float Sum(col)->alias and optional Count.

    Output columns: keys + sum aliases (+ count alias), globally sorted by
    *keys* (range-partitioned blocks, sorted within).
    """
    return sorted_group_reduce(ds, keys, *sum_count_reduce(keys, sum_cols, count_alias))


def sum_count_reduce(
    keys: list[str] | str,
    sum_cols: dict[str, str] | None = None,
    count_alias: str | None = None,
):
    """The ``(partial, final)`` pair of :func:`grouped_sum_count`, for a
    caller that merges the partials some other way (on the driver, when
    they are few).  ``final`` over any concatenation of ``partial`` outputs
    gives one row per key, sorted by *keys*."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sum_cols = sum_cols or {}
    count_col = count_alias or "__n"

    # Arrow hash aggregation on both sides (C++ kernels, no Python
    # boxing — the combiner sits right behind hot per-batch stages).
    # use_threads=False: each task owns one CPU token.  Integer sums widen
    # to int64 (matching the engine's integer-exact convention); the final
    # re-sorts its block so the output keeps the global key order the sort
    # established (Arrow group_by emits hash order).
    src_cols = list(dict.fromkeys(sum_cols.values()))

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by(keys, use_threads=False).aggregate(
            [(c, "sum") for c in src_cols] + [([], "count_all")])
        cols = {k: out[k] for k in keys}
        for alias, col in sum_cols.items():
            cols[alias] = out[f"{col}_sum"]
        cols[count_col] = out["count_all"]
        return pa.table(cols)

    def final(t: pa.Table) -> pa.Table:
        out = t.group_by(keys, use_threads=False).aggregate(
            [(alias, "sum") for alias in sum_cols] + [(count_col, "sum")])
        cols = {k: out[k] for k in keys}
        for alias in sum_cols:
            cols[alias] = out[f"{alias}_sum"]
        if count_alias is not None:
            cols[count_col] = out[f"{count_col}_sum"]
        return pa.table(cols).sort_by([(k, "ascending") for k in keys])

    return partial, final


def run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Row offsets at which each run of equal ``keys`` starts in ``t``
    (sorted on ``keys``): ``t.take(run_starts(...))`` keeps each key's
    first row, ``np.add.reduceat(col, run_starts(...))`` sums per key."""
    n = t.num_rows
    head = np.zeros(n, dtype=bool)
    head[:1] = True
    for k in keys:
        c = t[k]
        head[1:] |= pc.not_equal(c.slice(1), c.slice(0, max(n - 1, 0))) \
            .to_numpy(zero_copy_only=False)
    return np.flatnonzero(head)


def run_spread(values: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """One value per run (``starts`` from :func:`run_starts` over ``n``
    rows) repeated over that run's rows: ``run_spread(starts, starts, n)``
    is each row's run start, so ``np.arange(n) - run_spread(starts,
    starts, n)`` is its position within its key."""
    return np.repeat(values, np.diff(starts, append=n))


def fold_binary(t: pa.Table, key: str, col: str, dtype, ufunc) -> pa.Table:
    """``(key, col)`` rows, one per key, sorted: the element-wise ``ufunc``
    reduce (``np.maximum``, ``np.add``, ...) of the equal-width ``dtype``
    vectors packed in the binary column ``col`` (sketch registers,
    bitmaps)."""
    t = t.sort_by(key)
    starts = run_starts(t, [key])
    rows = np.frombuffer(b"".join(t[col].to_pylist()), dtype=dtype) \
        .reshape(t.num_rows, -1)
    merged = ufunc.reduceat(rows, starts, axis=0)
    return pa.table({key: t[key].take(starts),
                     col: pa.array([r.tobytes() for r in merged], pa.binary())})
