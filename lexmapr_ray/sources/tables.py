"""Size-aware parquet reads for the testdata tables.

Ray Data's read planner floors output parallelism at ~2x the CPU count, so
a 0.6 MB table becomes 64 near-empty blocks — and every downstream sort
then pays the all-to-all's per-block fixed cost (64x64 shuffle objects for
a 5k-row table; measured ~5.7 s of pure coordination on the minhash path
at sf0.1 against ~0.6 s of actual compute).  This helper overrides the
block count ONLY when the file is small: blocks sized at ~4 MiB compressed
(floored at 8 so parallel stages still get fed).  When the file is big enough
that Ray's own sizing would kick in (>= 2x CPUs worth of 4 MiB blocks),
no override is passed — at 100 TB the planner's target_max_block_size
logic governs exactly as before, so this is a small-table fast path, not a
scale behavior change.
"""

from __future__ import annotations

import os

_TARGET_BYTES = 4 * 1024 * 1024
_FLOOR = 8


def sized_read_parquet(path: str, columns=None):
    import ray
    import ray.data as rd

    try:
        est = max(1, -(-os.path.getsize(path) // _TARGET_BYTES))
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except OSError:
        return rd.read_parquet(path, columns=columns)
    if est >= 2 * cpus:
        return rd.read_parquet(path, columns=columns)
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=min(2 * cpus, max(_FLOOR, est)))
