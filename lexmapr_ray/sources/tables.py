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

A small file is read on the driver.  pyarrow reads the projected columns
in the requested order, the schema metadata is dropped, and Ray gets
``from_arrow`` of the block count's row slices, split where Ray's read
would split them (``np.array_split`` of the file's rows).  Ray's read
starts a sampling task when the Dataset is built and a read task on every
execution; both are gone, and no read parallelism with them, since Ray
reads one file in one task anyway.  The driver then holds the file's
decoded columns while it builds the plan: a file takes this path only
below 2 x CPUs x 4 MiB compressed, which bounds that memory.

The floor follows the consumer, not the bytes.  A caller whose first
stage bundles its input to ``batch_rows`` rows per task passes that size,
and the block count becomes at most ``ceil(rows / batch_rows)``: blocks
that the first stage would merge back into one task are never made.  A caller whose first stage runs one task per block
(the MinHash family, ``fuzzy_name_pairs``) passes nothing and keeps the
floor, since there the blocks are its parallelism.

:func:`index_dir` names the default location of an index persisted from
an input table.
"""

from __future__ import annotations

import os

_TARGET_BYTES = 4 * 1024 * 1024
_FLOOR = 8


def index_dir(kind: str, table: str, *key) -> str:
    """The default location of a persisted ``kind`` index built from the
    input table ``table``: ``/tmp/lexmapr_<kind>_index_<tag>``, the tag an
    md5 over the table's absolute path, size and mtime (a regenerated table
    at the same path does not reuse a stale index) and ``key``, the index's
    parameters and layout version (an index written by other engine code
    is rebuilt, not read)."""
    import hashlib

    st = os.stat(table)
    parts = (os.path.abspath(table), st.st_size, st.st_mtime_ns, *key)
    tag = hashlib.md5(":".join(map(str, parts)).encode()).hexdigest()[:12]
    return f"/tmp/lexmapr_{kind}_index_{tag}"


def read_parquet(path, columns=None):
    """``ray.data.read_parquet`` of the Parquet file ``path`` (or a list of
    files with one schema) whose blocks carry no schema metadata."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    schema = pq.read_schema(path if isinstance(path, str) else path[0])
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema.remove_metadata())


def sized_read_parquet(path: str, columns=None, batch_rows: int | None = None):
    """:func:`read_parquet` of one file; a small one is read on the driver
    into a block count of its own (see the module docstring).
    ``batch_rows`` is the rows per task of the first stage, when that
    stage bundles its input."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    try:
        est = max(1, -(-os.path.getsize(path) // _TARGET_BYTES))
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except OSError:
        return read_parquet(path, columns)
    if est >= 2 * cpus:
        return read_parquet(path, columns)
    table = pq.read_table(path, columns=columns).replace_schema_metadata()
    blocks = min(2 * cpus, max(_FLOOR, est))
    if batch_rows:
        blocks = min(blocks, max(1, -(-table.num_rows // batch_rows)))
    # the row split of Ray's own read (np.array_split of the file's one
    # block), so a block holds the same rows either way
    base, extra = divmod(table.num_rows, blocks)
    return rd.from_arrow([table.slice(i * base + min(i, extra), base + (i < extra))
                          for i in range(blocks)])
