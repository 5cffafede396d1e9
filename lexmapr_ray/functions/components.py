"""Distributed connected components: iterative min-label propagation with
pointer jumping, generic over node-id type (int64 doc ids, string ontology
terms — any totally ordered Arrow key the bucketed join can hash).

Factored out of the near-dup clustering operator (stages/dedup.py) so the
same machinery labels the KG term graph; the algorithm and its invariants
are unchanged:

  labels(node, label) starts as the node id;
  each round, every edge endpoint proposes its partner's current label
  (two bucketed joins over the EDGE list build the messages) and a
  sorted-group min folds proposals in, counting CHANGED rows exactly;
  from round 2 on, a pointer-jump pass (label <- label[label], left side
  restricted to the non-root sliver) doubles the distance each label has
  travelled, making rounds O(log diameter) (advisor r2: plain propagation
  needs diameter rounds; web near-dup chains can be long);
  converged when a propagation round changes nothing — at that fixpoint
  every component is constant-labelled, so the jump is provably the
  identity and needs no separate check.

``max_iters`` defaults to 2*log2(n_nodes)+8, a proven bound for
propagation-with-jumping; overruns raise instead of looping."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.functions.groupagg import sorted_group_reduce
from lexmapr_ray.functions.joins import bucketed_hash_join

# The most (nodes + edges) rows whose components :func:`min_label_components`
# finds on the driver; a larger graph runs the distributed loop.
DRIVER_SWITCH_LIMIT = 2_000_000


def _serial_union_find(edges_df: pd.DataFrame, nodes) -> pd.DataFrame:
    """Driver-side union-find with union-by-min + path compression: the
    representative IS the component's minimum id, definitionally identical
    to the distributed fixpoint.  Edge endpoints missing from *nodes*
    still conduct connectivity (setdefault) but emit no output row — the
    documented contract is nodes ⊇ endpoints; this keeps a
    contract-violating input from crashing one path and not the other."""
    parent: dict = {n: n for n in nodes}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges_df["ea"], edges_df["eb"]):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return pd.DataFrame({"node": list(nodes),
                         "label": [find(n) for n in nodes]})


def min_label_components(edges, nodes, *, a_col: str = "a", b_col: str = "b",
                         node_col: str = "node",
                         key_type: pa.DataType | None = None,
                         max_iters: int | None = None):
    """Connected components over an undirected edge Dataset.

    ``edges``: Dataset with columns ``a_col``/``b_col`` (each row one
    undirected edge); ``nodes``: Dataset with one ``node_col`` row per
    vertex (isolated vertices must appear here to be labelled).  Returns a
    Dataset (node, label) where ``label`` is the minimum node id reachable
    from ``node`` — already materialized (the loop's convergence check
    executes it anyway).

    Both inputs are materialized once up front: the edge list is re-scanned
    every round, and labels drive the per-round convergence count.  These
    are OBJECT-STORE materializations; nothing lands on the driver in the
    distributed path.

    SIZE-SWITCHED like BPE's merge rounds (stages/bpe.py): below
    ``DRIVER_SWITCH_LIMIT`` total (nodes + edges) rows the iterative loop's
    per-round fixed cost (2 bucketed joins + a sort + 2 materializes,
    x O(log diameter) rounds) dwarfs the actual work, so a driver-side
    union-find with union-by-min produces the definitionally identical
    labelling in one pass over a small table (kg_components at the
    sf0.01 gate: ~6 s -> the cooccurrence build alone).  Above the limit
    — web-scale near-dup graphs — the distributed min-label +
    pointer-jump loop runs unchanged.  A limit of 0 forces the
    distributed path (tests pin both paths equal).
    """
    if key_type is None:
        key_type = nodes.schema().field(node_col).type

    def _key(col):
        return pc.cast(col, key_type)

    edges = edges.map_batches(
        lambda t: pa.table({"ea": _key(t[a_col]), "eb": _key(t[b_col])}),
        batch_format="pyarrow",
    ).materialize()
    labels = nodes.map_batches(
        lambda t: pa.table({"node": _key(t[node_col]),
                            "label": _key(t[node_col])}),
        batch_format="pyarrow",
    ).materialize()
    n_nodes, n_edges = labels.count(), edges.count()
    if n_nodes + n_edges <= DRIVER_SWITCH_LIMIT:
        import ray.data as rd

        # an edge-less Dataset may hold only column-less blocks
        out = _serial_union_find(
            edges.to_pandas() if n_edges else pd.DataFrame(columns=["ea", "eb"]),
            labels.to_pandas()["node"].tolist())
        return rd.from_arrow(pa.table({
            "node": pa.array(out["node"], key_type),
            "label": pa.array(out["label"], key_type),
        })).materialize()
    if max_iters is None:
        max_iters = 2 * math.ceil(math.log2(max(2, n_nodes))) + 8

    label_schema = pa.schema([("node", key_type), ("label", key_type)])
    edge_schema = pa.schema([("ea", key_type), ("eb", key_type)])

    # current labels carry side=0 (exactly one row per node), proposals
    # side=1; the final reduce recovers the node's OLD label as the side-0
    # minimum, so "changed" is exact per row — summed, it is the
    # convergence signal (bounded by node count, no int64 wrap)
    def with_side(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": _key(t["node"]),
                "label": _key(t["label"]),
                "side": pa.array(np.full(len(t), side, dtype=np.int8)),
            })

        return fn

    def min_labels(t: pa.Table) -> pa.Table:
        return t.group_by("node", use_threads=False).aggregate(
            [("label", "min"), ("old", "min")]).rename_columns(["node", "label", "old"])

    # old is null when the side-0 row for this node sits in another batch;
    # the final min skips nulls
    def min_label_partial(t: pa.Table) -> pa.Table:
        old = pc.if_else(pc.equal(t["side"], 0), t["label"],
                         pa.scalar(None, key_type))
        return min_labels(t.select(["node", "label"]).append_column("old", old))

    def min_label_final(t: pa.Table) -> pa.Table:
        out = min_labels(t)
        return out.select(["node", "label"]).append_column(
            "changed", pc.cast(pc.less(out["label"], out["old"]), pa.int64()))

    for it in range(max_iters):
        to_b = bucketed_hash_join(
            edges, labels, on="ea", right_on="node",
            left_schema=edge_schema, right_schema=label_schema,
        ).map_batches(
            lambda t: pa.table({"node": _key(t["eb"]),
                                "label": _key(t["label"])}),
            batch_format="pyarrow",
        ).map_batches(with_side(1), batch_format="pyarrow")
        to_a = bucketed_hash_join(
            edges, labels, on="eb", right_on="node",
            left_schema=edge_schema, right_schema=label_schema,
        ).map_batches(
            lambda t: pa.table({"node": _key(t["ea"]),
                                "label": _key(t["label"])}),
            batch_format="pyarrow",
        ).map_batches(with_side(1), batch_format="pyarrow")
        tagged = labels.map_batches(with_side(0), batch_format="pyarrow")
        new_labels = sorted_group_reduce(
            tagged.union(to_b).union(to_a), "node",
            min_label_partial, min_label_final,
        ).materialize()
        n_changed = new_labels.sum("changed")
        labels = new_labels.map_batches(
            lambda t: t.select(["node", "label"]), batch_format="pyarrow"
        ).materialize()
        if not n_changed:
            break
        if it >= 1:
            # pointer jump: label <- label[label].  Left side restricted to
            # the non-root sliver (label != node), so the join output is
            # proportional to the non-root population, not the corpus.
            nonroot = labels.map_batches(
                lambda t: t.filter(pc.not_equal(t["label"], t["node"])),
                batch_format="pyarrow",
            )
            jumped = bucketed_hash_join(
                nonroot.map_batches(
                    lambda t: pa.table({"node": t["node"],
                                        "target": t["label"]}),
                    batch_format="pyarrow"),
                labels.map_batches(
                    lambda t: pa.table({"j_node": t["node"],
                                        "j_label": t["label"]}),
                    batch_format="pyarrow"),
                on="target", right_on="j_node",
                left_schema=pa.schema([("node", key_type),
                                       ("target", key_type)]),
                right_schema=pa.schema([("j_node", key_type),
                                        ("j_label", key_type)]),
            ).map_batches(
                lambda t: pa.table({"node": _key(t["node"]),
                                    "label": _key(t["j_label"])}),
                batch_format="pyarrow",
            )
            roots = labels.map_batches(
                lambda t: t.filter(pc.equal(t["label"], t["node"])),
                batch_format="pyarrow",
            )
            labels = roots.union(jumped).materialize()
    else:
        raise RuntimeError(
            "min_label_components: no fixpoint within max_iters")

    return labels
