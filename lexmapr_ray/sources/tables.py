"""Parquet reads of the engine's input tables.

:func:`read_parquet` is the one way the engine reads an input table.  It
hands Ray the projected file schema with its metadata removed: Parquet
written from pandas carries a ``pandas`` schema-metadata dict, Ray passes
a read's metadata on to every block that ``select``/``filter``/``take``
derive from it, and ``pa.Schema.__hash__`` cannot hash that dict, so Ray's
schema dedup (``unify_schemas``) fails and logs "Failed to hash the
schemas" once per task.  Blocks read here carry no schema metadata.

:func:`sized_read_parquet` adds a block count for small files.  Ray Data's
read planner floors output parallelism at ~2x the CPU count, so a 0.6 MB
table becomes 64 near-empty blocks — and every downstream sort then pays
the all-to-all's per-block fixed cost (64x64 shuffle objects for a
5k-row table; measured ~5.7 s of pure coordination on the minhash path at
sf0.1 against ~0.6 s of actual compute).  It overrides the block count
ONLY when the file is small: blocks sized at ~4 MiB compressed (floored at
8 so parallel stages still get fed).  When the file is big enough that
Ray's own sizing would kick in (>= 2x CPUs worth of 4 MiB blocks), no
override is passed — at 100 TB the planner's target_max_block_size logic
governs exactly as before, so this is a small-table fast path, not a
scale behavior change.

The floor follows the consumer, not the bytes.  A caller whose first
stage bundles its input to ``batch_rows`` rows per task passes that size,
and the block count becomes at most ``ceil(rows / batch_rows)`` (the
footer's row count): blocks that the first stage would merge back into one
task are never made.  A caller whose first stage runs one task per block
(the MinHash family, ``fuzzy_name_pairs``) passes nothing and keeps the
floor, since there the blocks are its parallelism.
"""

from __future__ import annotations

import os

_TARGET_BYTES = 4 * 1024 * 1024
_FLOOR = 8


def read_parquet(path, columns=None, **kw):
    """``ray.data.read_parquet`` of the Parquet file ``path`` (or a list of
    files with one schema) whose blocks carry no schema metadata; ``kw``
    goes to Ray (block sizing)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    schema = pq.read_schema(path if isinstance(path, str) else path[0])
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns,
                           schema=schema.remove_metadata(), **kw)


def sized_read_parquet(path: str, columns=None, batch_rows: int | None = None):
    """:func:`read_parquet` of one file, with a block count for a small one
    (see the module docstring); ``batch_rows`` is the rows per task of the
    first stage, when that stage bundles its input."""
    import pyarrow.parquet as pq
    import ray

    try:
        est = max(1, -(-os.path.getsize(path) // _TARGET_BYTES))
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except OSError:
        return read_parquet(path, columns)
    if est >= 2 * cpus:
        return read_parquet(path, columns)
    blocks = min(2 * cpus, max(_FLOOR, est))
    if batch_rows:
        rows = pq.read_metadata(path).num_rows
        blocks = min(blocks, max(1, -(-rows // batch_rows)))
    return read_parquet(path, columns, override_num_blocks=blocks)
