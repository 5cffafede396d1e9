"""Typed results: an operator's Dataset keeps its declared schema when it
holds no rows.

Ray's sort turns an all-empty input into column-less blocks, and
``map_batches`` passes a 0-row block through without calling its function
(pinned by ``tests/test_stages.py::
test_map_batches_never_sees_an_empty_batch``), so an operator whose rows
are all gone before or at its last exchange would return a result with no
columns (``Dataset.schema()`` None).  One typed 0-row block, unioned after
that exchange, gives every such result its declared schema and changes no
row of a non-empty one.
"""

from __future__ import annotations

import pyarrow as pa


def int64_schema(*names: str) -> pa.Schema:
    """The schema of an all-int64 result with columns ``names``."""
    return pa.schema([(n, pa.int64()) for n in names])


def with_schema(ds, schema: pa.Schema):
    """``ds`` plus one 0-row block of ``schema``."""
    import ray.data as rd

    return ds.union(rd.from_arrow(schema.empty_table()))
