"""Web-graph analytics over the synthetic corpus: link graph, PageRank,
and host-level curation stats.

A 100-TB web ingest runs exactly these passes between fetch and training:
rank hosts/pages by link authority (crawl prioritization, quality prior)
and aggregate per-host corpus health (dup rate, size) to build host
blocklists (the C4 recipe filters whole hosts, not documents).

Because the sandbox has no external data, the LINK MODEL is a pure
deterministic function of ``doc_id`` (same contract as
``sources/pages.py``): document ``d`` emits ``1 + d % 3`` outlinks, the
``j``-th pointing at ``(d * 31 + 7 + 13 * j) mod N`` where ``N`` is the
corpus row count.  The SQL oracles regenerate the identical edge set, so
what the DuckDB gate verifies is the distributed iteration itself.

Exactness convention: PageRank runs in INTEGER fixed-point (micro-rank
units).  Float PageRank sums in engine-dependent order; integer division
``rank // out_degree`` and int64 sums are order-independent, so the Ray
result and the unrolled-SQL oracle are bit-equal, not approximately equal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.functions.groupagg import (grouped_sum_count, run_starts,
                                            sorted_final, sorted_group_reduce)
from lexmapr_ray.functions.joins import bucketed_hash_join, semi_join
from lexmapr_ray.functions.typed import int64_schema, with_schema

# fixed-point PageRank constants (mirrored literally in the SQL oracles)
R0 = 1_000_000          # initial rank per node, micro-units
DAMP_NUM, DAMP_DEN = 85, 100
BASE = R0 * (DAMP_DEN - DAMP_NUM) // DAMP_DEN  # = 150_000


def _read_docs(sf_dir: str, columns):
    from lexmapr_ray.sources.tables import sized_read_parquet

    return sized_read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_links(sf_dir: str):
    """The synthetic link graph as a (src, dst) edge Dataset.

    Generated distributed (one vectorized explode per batch, no Python
    row loop); ``N`` comes from parquet metadata (``count()`` reads no
    row data)."""
    n_docs = _read_docs(sf_dir, ["doc_id"]).count()

    def explode(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        reps = 1 + (d % 3)
        src = np.repeat(d, reps)
        ends = np.cumsum(reps)
        j = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) \
            - np.repeat(ends - reps, reps)
        dst = (src * 31 + 7 + 13 * j) % n_docs
        return pa.table({"src": src, "dst": dst})

    return _read_docs(sf_dir, ["doc_id"]).map_batches(
        explode, batch_format="pyarrow")


_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                          ("deg", pa.int64())])
_RANK_SCHEMA = pa.schema([("node", pa.int64()), ("pr", pa.int64())])


def pagerank(edges, nodes, *, iters: int = 3):
    """Distributed integer PageRank over an arbitrary (src, dst) edge
    Dataset; ``nodes`` is a Dataset with one int64 ``node`` row per vertex
    (vertices with no in-links must still appear in the output).

    Shape per iteration (the irreducible PageRank exchange):
      1. edges+deg  JOIN  ranks ON src   (bucketed hash join)
      2. per-row contribution ``rank // deg``  (vectorized, no key
         aggregation — safe under block re-splitting)
      3. union one zero-contribution row per node (keeps sinks alive)
      4. ONE grouped int sum on dst -> new ranks

    Out-degrees are computed ONCE (a grouped count + one join) and the
    (src, dst, deg) table is materialized to the object store because all
    ``iters`` rounds re-scan it — on a real cluster this is the
    co-partitioned adjacency every Pregel-style engine caches.  Only
    edge/rank datasets move; nothing lands on the driver."""
    deg = grouped_sum_count(edges, "src", count_alias="deg")
    edges_deg = bucketed_hash_join(
        edges, deg, on="src",
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("src", pa.int64()), ("deg", pa.int64())]),
    ).map_batches(
        lambda t: pa.table({"src": pc.cast(t["src"], pa.int64()),
                            "dst": pc.cast(t["dst"], pa.int64()),
                            "deg": pc.cast(t["deg"], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()

    ranks = nodes.map_batches(
        lambda t: pa.table({
            "node": pc.cast(t["node"], pa.int64()),
            "pr": pa.array(np.full(len(t), R0, dtype=np.int64)),
        }),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iters):
        contrib = bucketed_hash_join(
            edges_deg, ranks, on="src", right_on="node",
            left_schema=_EDGE_SCHEMA, right_schema=_RANK_SCHEMA,
        ).map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["dst"], pa.int64()),
                "c": pc.divide(pc.cast(t["pr"], pa.int64()),
                               pc.cast(t["deg"], pa.int64())),
            }),
            batch_format="pyarrow",
        )
        zeros = ranks.map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "c": pa.array(np.zeros(len(t), dtype=np.int64)),
            }),
            batch_format="pyarrow",
        )
        summed = grouped_sum_count(contrib.union(zeros), "node", {"s": "c"})
        ranks = summed.map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["node"], pa.int64()),
                "pr": pc.add(
                    pa.scalar(BASE, pa.int64()),
                    pc.divide(pc.multiply(pc.cast(t["s"], pa.int64()),
                                          pa.scalar(DAMP_NUM, pa.int64())),
                              pa.scalar(DAMP_DEN, pa.int64()))),
            }),
            batch_format="pyarrow",
        ).materialize()

    return ranks.sort("node")


def pagerank_docs(sf_dir: str, iters: int = 3):
    """PageRank over the synthetic doc link graph (queries() entry).

    Every doc has >= 1 outlink by construction, so there is no dangling
    mass; the zero-union in :func:`pagerank` still covers docs nothing
    links TO."""
    nodes = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    return pagerank(doc_links(sf_dir), nodes, iters=iters)


_SCORE_SCHEMA = pa.schema([("node", pa.int64()), ("v", pa.int64())])


def hits(edges, nodes, *, iters: int = 2):
    """Distributed integer HITS (Kleinberg 1999): mutually-reinforcing hub
    and authority scores over an arbitrary (src, dst) edge Dataset — the
    second classic link-analysis prior a crawl-prioritization pass runs
    next to PageRank (directories/portals rank as hubs, canonical content
    as authorities; PageRank conflates the two roles).

    Exactness convention: like :func:`pagerank`, all arithmetic is int64
    fixed-point so the Ray result and the unrolled-SQL oracle are
    bit-equal.  The textbook L2 normalization needs sqrt (float); HITS'
    ranking is invariant to the normalization choice, so each half-round
    rescales by the MAX raw score instead: ``v' = (1e6 * v) // max(v)``
    — a pure integer contraction that keeps every score in [0, 1e6] and
    int64 sums overflow-free for corpora under ~9e12 in-edges per node.

    Shape per round (two transposed PageRank-style exchanges):
      1. auth_raw(n) = sum of hub over in-edges   (join on src, sum on dst)
      2. rescale by the global max — a 1-SCALAR reduce (``Dataset.max``),
         the only driver-visible value; broadcast back inside the closure
      3. hub_raw(n)  = sum of auth over out-edges (join on dst, sum on src)
      4. rescale; materialize (every round re-scans edges and last scores)
    Nodes without in-(out-)edges keep score 0 via the same zero-union
    :func:`pagerank` uses.  Output: (node, hub, auth), node-sorted.
    """
    edges = edges.map_batches(
        lambda t: pa.table({"src": pc.cast(t["src"], pa.int64()),
                            "dst": pc.cast(t["dst"], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()  # all iters re-scan the edge list (cached adjacency)
    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def const_scores(value: int):
        return nodes.map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["node"], pa.int64()),
                "v": pa.array(np.full(len(t), value, dtype=np.int64)),
            }),
            batch_format="pyarrow",
        ).materialize()

    def half_round(scores, join_on: str, sum_on: str):
        """One HITS half-step: propagate ``scores`` across edges from
        ``join_on`` endpoints onto ``sum_on`` endpoints, then max-rescale."""
        contrib = bucketed_hash_join(
            edges, scores, on=join_on, right_on="node",
            left_schema=edge_schema, right_schema=_SCORE_SCHEMA,
        ).map_batches(
            lambda t: pa.table({"node": pc.cast(t[sum_on], pa.int64()),
                                "c": pc.cast(t["v"], pa.int64())}),
            batch_format="pyarrow",
        )
        zeros = scores.map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "c": pa.array(np.zeros(len(t), dtype=np.int64)),
            }),
            batch_format="pyarrow",
        )
        raw = grouped_sum_count(contrib.union(zeros), "node",
                                {"s": "c"}).materialize()
        mx = max(int(raw.max("s") or 0), 1)
        return raw.map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["node"], pa.int64()),
                "v": pc.divide(
                    pc.multiply(pc.cast(t["s"], pa.int64()),
                                pa.scalar(R0, pa.int64())),
                    pa.scalar(mx, pa.int64())),
            }),
            batch_format="pyarrow",
        ).materialize()

    hub = const_scores(R0)
    auth = const_scores(0)
    for _ in range(iters):
        auth = half_round(hub, "src", "dst")    # in-link mass -> authority
        hub = half_round(auth, "dst", "src")    # out-link mass -> hubness

    both = bucketed_hash_join(
        hub.map_batches(lambda t: pa.table({"node": t["node"],
                                            "hub": t["v"]}),
                        batch_format="pyarrow"),
        auth.map_batches(lambda t: pa.table({"node": t["node"],
                                             "auth": t["v"]}),
                         batch_format="pyarrow"),
        on="node",
        left_schema=pa.schema([("node", pa.int64()), ("hub", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("auth", pa.int64())]),
    )
    return both.sort("node")


def hits_docs(sf_dir: str, iters: int = 2):
    """HITS over the synthetic doc link graph (queries() entry)."""
    nodes = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    return hits(doc_links(sf_dir), nodes, iters=iters)


# ---------------------------------------------------------------------------
# Host-level corpus curation
# ---------------------------------------------------------------------------

DOCS_PER_HOST = 16  # synthetic host model: host id = doc_id // 16


def _host_expr(d: pa.ChunkedArray | pa.Array) -> pa.Array:
    hid = pc.divide(pc.cast(d, pa.int64()),
                    pa.scalar(DOCS_PER_HOST, pa.int64()))
    return pc.binary_join_element_wise(
        pa.array(np.full(len(d), "host", dtype=object), pa.string()),
        pc.cast(hid, pa.string()), "")


PREFIX_TOKENS = 12  # boilerplate fingerprint length (tokens)


def host_stats(sf_dir: str):
    """Per-host corpus health: doc count, boilerplate-duplicate count,
    total characters.  ``n_dup`` counts docs whose leading-``PREFIX_TOKENS``
    fingerprint occurs more than once CORPUS-WIDE — shared lead text is
    what template/mirror/spam hosts look like (exact-body md5 would also
    work but is degenerate on this corpus: every text is unique).

    Shape: one digest grouped count (corpus-scale shuffle), one bucketed
    join back to the doc table (the digest-count table is corpus-scale —
    a broadcast would be the r1-flagged anti-pattern), then one host
    rollup.  The host key is doc_id-derived here; with real URLs the
    host() extraction is the same vectorized map."""
    import hashlib

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        # prefix join is Arrow-native (RE2 \s+, the engine-wide whitespace
        # definition — matches the oracle's string_split_regex);
        # md5 has no Arrow kernel, the bytes loop IS the hash
        toks = pc.split_pattern_regex(t["text"], pattern=r"\s+")
        prefix = pc.binary_join(
            pc.list_slice(toks, 0, PREFIX_TOKENS), " ")
        digs = pa.array(
            [hashlib.md5(s.encode()).hexdigest()
             for s in prefix.to_pylist()], pa.string())
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "host": _host_expr(t["doc_id"]),
            "digest": digs,
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        })

    prepped = docs.map_batches(prep, batch_format="pyarrow")
    dig_counts = grouped_sum_count(
        prepped.map_batches(lambda t: t.select(["digest"]),
                            batch_format="pyarrow"),
        "digest", count_alias="n_occ",
    )
    joined = bucketed_hash_join(
        prepped, dig_counts, on="digest",
        left_schema=pa.schema([
            ("doc_id", pa.int64()), ("host", pa.string()),
            ("digest", pa.string()), ("n_chars", pa.int64())]),
        right_schema=pa.schema([
            ("digest", pa.string()), ("n_occ", pa.int64())]),
    )

    def to_host_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "host": t["host"],
            "is_dup": pc.cast(
                pc.greater(pc.cast(t["n_occ"], pa.int64()), 1), pa.int64()),
            "n_chars": pc.cast(t["n_chars"], pa.int64()),
        })

    return grouped_sum_count(
        joined.map_batches(to_host_rows, batch_format="pyarrow"),
        "host", {"n_dup": "is_dup", "sum_chars": "n_chars"},
        count_alias="n_docs",
    )


def host_filtered_corpus(sf_dir: str, max_dup_permille: int = 187):
    """C4-style HOST blocklist filter: drop every document on a host whose
    exact-duplicate share exceeds ``max_dup_permille`` (integer permille —
    no float thresholds, oracle-exact).  Returns the surviving
    (doc_id, host), sorted.

    The good-host set scales with corpus size (hosts ~ docs / 16), so
    membership is a size-switched :func:`semi_join` — broadcast keys when
    small, bucketed co-location above ``joins.BROADCAST_LIMIT`` — never a
    driver-side dict."""
    stats = host_stats(sf_dir)

    def good_hosts(t: pa.Table) -> pa.Table:
        mask = pc.less_equal(
            pc.multiply(pc.cast(t["n_dup"], pa.int64()),
                        pa.scalar(1000, pa.int64())),
            pc.multiply(pc.cast(t["n_docs"], pa.int64()),
                        pa.scalar(max_dup_permille, pa.int64())))
        return t.filter(mask).select(["host"])

    good = stats.map_batches(good_hosts, batch_format="pyarrow")
    docs = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                            "host": _host_expr(t["doc_id"])}),
        batch_format="pyarrow",
    )
    return semi_join(docs, "host", good, "host").sort("doc_id")


def _token_edges(sf_dir: str, permille: int):
    """Undirected token-adjacency edge list (a < b, distinct): tokens are
    linked when their bigram occurs at least ``permille``/1000 times per
    corpus document (occurrence count, both orders, self-loops excluded).
    Zero-copy shifted-slice bigram explode with a per-batch combiner
    (shuffle = distinct bigrams per batch), one grouped count, vectorized
    threshold filter.  Returned MATERIALIZED — every graph op has several
    consumers that would otherwise each re-run the corpus pass; the edge
    list itself is vocabulary-scale."""
    from lexmapr_ray.stages.textstats import _token_lists

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    total_docs = docs.count()

    def bigram_partial(t: pa.Table) -> pa.Table:
        _, splits = _token_lists(t["text"])
        flat = pc.list_flatten(splits)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n = max(len(flat) - 1, 0)
        parent = pc.list_parent_indices(splits).to_numpy(zero_copy_only=False)
        valid = pa.array(parent[:n] == parent[1:])
        x = flat.slice(0, n).filter(valid)
        y = flat.slice(1, n).filter(valid)
        lo = pc.min_element_wise(x, y)
        hi = pc.max_element_wise(x, y)
        keep = pc.invert(pc.equal(lo, hi))  # no self-loops; '' bigrams never
        return pa.table({"a": lo.filter(keep), "b": hi.filter(keep)}) \
            .group_by(["a", "b"], use_threads=False) \
            .aggregate([([], "count_all")]).rename_columns(["a", "b", "n"])

    counts = grouped_sum_count(
        docs.map_batches(bigram_partial, batch_format="pyarrow"),
        ["a", "b"], {"n": "n"},
    )
    return counts.map_batches(
        lambda t: t.filter(pc.greater_equal(
            pc.multiply(t["n"], pa.scalar(1000, pa.int64())),
            pa.scalar(permille * total_docs, pa.int64()))).select(["a", "b"]),
        batch_format="pyarrow",
    ).materialize()


def _node_degrees(edges, count_alias: str = "degree"):
    """(token, degree) from an (a, b) edge Dataset via endpoint explode +
    grouped count."""
    return grouped_sum_count(
        edges.map_batches(
            lambda t: pa.table({"token": pa.concat_arrays([
                t["a"].combine_chunks().cast(pa.string()),
                t["b"].combine_chunks().cast(pa.string())])}),
            batch_format="pyarrow"),
        "token", count_alias=count_alias,
    )


def k_core(sf_dir: str, k: int = 22, permille: int = 100):
    """The k-core of the token-adjacency graph (same graph as
    :func:`token_triangles`): iteratively peel every node of degree < k
    until a fixpoint — the standard dense-subgraph extraction (Seidman
    1983) a KG/community pass runs to separate topic cores from
    long-tail noise.  Output: (token, core_degree) for surviving nodes,
    token-sorted, where core_degree is the node's degree WITHIN the core.

    Scale shape: each peel round is one vocabulary-scale grouped degree
    count plus two size-switched anti semi joins dropping edges touching
    peeled nodes; all rounds operate on the (materialized,
    vocabulary-scale) edge list — the corpus is touched exactly once, by
    the edge build.  Rounds are bounded by the graph's degeneracy
    ordering depth (every round removes at least one node or terminates),
    with a hard cap at the initial node count as a runaway guard.
    """
    from lexmapr_ray.functions.joins import semi_join

    edges = _token_edges(sf_dir, permille)
    n_nodes = _node_degrees(edges).count()

    for _ in range(max(1, n_nodes)):
        deg = _node_degrees(edges)
        low = deg.map_batches(
            lambda t: t.filter(pc.less(t["degree"], k)).select(["token"]),
            batch_format="pyarrow",
        ).materialize()
        if low.count() == 0:
            break
        edges = semi_join(
            semi_join(edges, "a", low, "token", anti=True),
            "b", low, "token", anti=True,
        ).materialize()
        if edges.count() == 0:
            break

    return _node_degrees(edges, count_alias="core_degree").sort("token")


def token_triangles(sf_dir: str, permille: int = 100):
    """Triangle count + local clustering coefficient per node of the token
    ADJACENCY graph (nodes = tokens; undirected edge a—b when the bigram
    "a b" or "b a" occurs at least ``permille``/1000 times per corpus
    document) — the graph-analytics pass (community structure, semantic
    cliques) a KG build runs after co-occurrence extraction.

    Output: (token, degree, triangles, clustering_mpt) token-sorted, where
    clustering_mpt = floor(2000 * triangles / (degree * (degree-1))) in
    milli-units (0 when degree < 2) — integer-exact, engine-independent.

    Scale shape — the node-iterator with DEGREE-ORDERED ORIENTATION
    (Schank & Wagner 2005): every undirected edge is directed from its
    (degree, token)-smaller endpoint, which caps any node's out-degree at
    O(sqrt(|E|)), so the wedge explode is Σ out_deg² ≤ |E|^1.5 instead of
    the Σ deg² that a hub node turns quadratic.  Each triangle is
    enumerated exactly once (at its orientation-minimal vertex).
      * bigram pairs: zero-copy shifted-slice explode + per-batch combiner
        (shuffle = distinct bigrams per batch);
      * degrees attach to both edge endpoints via bucketed joins (never a
        driver/broadcast vocabulary table);
      * wedges form per co-located out-neighborhood block, close via one
        bucketed join against the oriented edge keys ("a b" space-joined —
        tokens are \\S+ so the key is collision-free);
      * per-node triangle counts = 3-way explode + grouped count.
    Edge/degree tables are vocabulary-scale; ``edges`` is materialized
    once because three downstream consumers would otherwise each re-run
    the corpus bigram pass.
    """
    edges = _token_edges(sf_dir, permille)

    deg = grouped_sum_count(
        edges.map_batches(
            lambda t: pa.table({"token": pa.concat_arrays([
                t["a"].combine_chunks().cast(pa.string()),
                t["b"].combine_chunks().cast(pa.string())])}),
            batch_format="pyarrow"),
        "token", count_alias="degree",
    )

    str_schema = lambda *names: pa.schema([(n_, pa.int64()) if n_ in
                                           ("degree", "deg_u", "deg_v")
                                           else (n_, pa.string())
                                           for n_ in names])
    with_da = bucketed_hash_join(
        edges, deg.map_batches(
            lambda t: t.rename_columns(["a", "deg_u"]), batch_format="pyarrow"),
        on="a",
        left_schema=str_schema("a", "b"), right_schema=str_schema("a", "deg_u"))
    with_db = bucketed_hash_join(
        with_da, deg.map_batches(
            lambda t: t.rename_columns(["b", "deg_v"]), batch_format="pyarrow"),
        on="b",
        left_schema=str_schema("a", "b", "deg_u"),
        right_schema=str_schema("b", "deg_v"))

    def _before(da, db, a, b):
        # (degree, token) order: the orientation and the wedge tie-break
        return pc.or_(pc.less(da, db), pc.and_(pc.equal(da, db), pc.less(a, b)))

    def orient(t: pa.Table) -> pa.Table:
        a_first = _before(t["deg_u"], t["deg_v"], t["a"], t["b"])
        return pa.table({
            "u": pc.if_else(a_first, t["a"], t["b"]),
            "v": pc.if_else(a_first, t["b"], t["a"]),
            "dv": pc.if_else(a_first, t["deg_v"], t["deg_u"]),
        })

    oriented = with_db.map_batches(orient, batch_format="pyarrow")

    def wedge_block(t: pa.Table) -> pa.Table:
        m = t.join(t, "u", left_suffix="_x", right_suffix="_y",
                   use_threads=False)
        m = m.filter(_before(m["dv_x"], m["dv_y"], m["v_x"], m["v_y"]))
        return pa.table({
            "key": pc.binary_join_element_wise(m["v_x"], m["v_y"], " "),
            "u": m["u"], "x": m["v_x"], "y": m["v_y"]})

    wedges = sorted_final(oriented, "u", wedge_block)
    edge_keys = oriented.map_batches(
        lambda t: pa.table({"key": pc.binary_join_element_wise(
            t["u"].combine_chunks().cast(pa.string()),
            t["v"].combine_chunks().cast(pa.string()), " ")}),
        batch_format="pyarrow")

    tri = bucketed_hash_join(
        wedges, edge_keys, on="key",
        left_schema=str_schema("key", "u", "x", "y"),
        right_schema=str_schema("key"))

    tri_counts = grouped_sum_count(
        tri.map_batches(
            lambda t: pa.table({"token": pa.concat_arrays([
                t[c].combine_chunks().cast(pa.string())
                for c in ("u", "x", "y")])}),
            batch_format="pyarrow"),
        "token", count_alias="triangles",
    )

    def finish(t: pa.Table) -> pa.Table:
        d = t["degree"].to_numpy(zero_copy_only=False)
        tr = pc.fill_null(t["triangles"], 0)
        denom = d * (d - 1)
        mpt = np.where(denom > 0, (2000 * tr.to_numpy(zero_copy_only=False))
                       // np.maximum(denom, 1), 0)
        return pa.table({"token": t["token"], "degree": t["degree"],
                         "triangles": tr,
                         "clustering_mpt": pa.array(mpt, pa.int64())})

    combined = bucketed_hash_join(
        deg, tri_counts, on="token", how="left",
        block_fn=finish,
        left_schema=pa.schema([("token", pa.string()), ("degree", pa.int64())]),
        right_schema=pa.schema([("token", pa.string()),
                                ("triangles", pa.int64())]))
    return combined.sort("token")


def bfs_distances(sf_dir: str, seed: int = 0, hops: int = 12):
    """Single-source unweighted shortest paths (BFS level sets) over the
    synthetic doc link graph, within ``hops`` rounds — crawl-depth /
    seed-proximity analysis.  Output: (node, dist) for every node
    reachable from ``seed`` in <= hops steps, node-sorted.

    Shape per round (the Pregel BFS exchange, mirrored literally by the
    ``hops``-times-unrolled SQL oracle): frontier distances JOIN the
    (materialized, rescanned) edge list on src -> (dst, dist+1)
    candidates, unioned with the standing table, ONE grouped MIN.  The
    distance table re-materializes per round so lineage stays flat
    (12 nested joins would otherwise re-execute multiplicatively).  A
    production run would early-stop when a round's min-union changes no
    row — the fixed unroll keeps engine and oracle definitionally
    identical.
    """
    import ray.data as rd

    edges = doc_links(sf_dir).materialize()
    i64 = pa.int64()

    def mn(t: pa.Table) -> pa.Table:
        return t.group_by("node", use_threads=False).aggregate(
            [("dist", "min")]).rename_columns(["node", "dist"]).sort_by("node")

    dist = rd.from_arrow(pa.table({"node": pa.array([seed], i64),
                                   "dist": pa.array([0], i64)}))
    for _ in range(hops):
        contrib = bucketed_hash_join(
            edges, dist, on="src", right_on="node",
            left_schema=pa.schema([("src", i64), ("dst", i64)]),
            right_schema=pa.schema([("node", i64), ("dist", i64)]),
        ).map_batches(lambda t: pa.table({"node": t["dst"],
                                          "dist": pc.add(t["dist"], 1)}),
                      batch_format="pyarrow")
        dist = sorted_group_reduce(dist.union(contrib), "node", mn, mn) \
            .materialize()
    return dist


def link_prediction(sf_dir: str, permille: int = 100, min_common: int = 2,
                    k: int = 20, max_degree: int | None = 512):
    """Common-neighbor link prediction over the token graph — the
    KG-completion pass that proposes MISSING edges: for every non-adjacent
    pair (x, y) sharing >= ``min_common`` neighbors, score = the exact
    common-neighbor count; top-``k`` by (score desc, x, y).

    Shape: adjacency = both edge directions, one sort co-locates each
    node's neighborhood, per-block pair explode (x < y) — Σ deg(u)² rows,
    the inherent common-neighbor cost, which ``max_degree`` BOUNDS: a
    pivot node whose degree exceeds the cap is dropped from pair
    generation (a hub shared by everything predicts nothing specific,
    and its deg² explosion is the one quadratic term).  The default 512
    never fires on the organic token graph (degrees are dozens); pass
    ``None`` to disable.  Pinned by the adversarial hub fixture in
    tests/test_skew_stress.py.  Then ONE grouped count, an anti semi
    join against the existing edge keys (space-joined, collision-free),
    and the exact-safe pruned top-k.
    """
    from lexmapr_ray.functions.joins import semi_join
    from lexmapr_ray.functions.topk import global_topk

    edges = _token_edges(sf_dir, permille)

    adj = edges.map_batches(
        lambda t: pa.table({
            "u": pa.concat_arrays([t["a"].combine_chunks().cast(pa.string()),
                                   t["b"].combine_chunks().cast(pa.string())]),
            "v": pa.concat_arrays([t["b"].combine_chunks().cast(pa.string()),
                                   t["a"].combine_chunks().cast(pa.string())]),
        }),
        batch_format="pyarrow")

    def pair_block(t: pa.Table) -> pa.Table:
        if max_degree is not None:
            # each u is whole in the block, so the count is the node's
            # TRUE degree and the cap is exact
            k = t.group_by("u", use_threads=False).aggregate([("v", "count")])
            t = t.filter(pc.is_in(t["u"], k.filter(pc.less_equal(
                k["v_count"], max_degree))["u"]))
        m = t.join(t, "u", left_suffix="_x", right_suffix="_y",
                   use_threads=False)
        m = m.filter(pc.less(m["v_x"], m["v_y"]))
        return pa.table({"x": m["v_x"], "y": m["v_y"]})

    def keep_and_key(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["common_neighbors"],
                                      pa.scalar(min_common, pa.int64())))
        return t.append_column("key", pc.binary_join_element_wise(
            t["x"].combine_chunks().cast(pa.string()),
            t["y"].combine_chunks().cast(pa.string()), " "))

    cn = grouped_sum_count(
        sorted_final(adj, "u", pair_block),
        ["x", "y"], count_alias="common_neighbors",
    ).map_batches(keep_and_key, batch_format="pyarrow")

    edge_keys = edges.map_batches(
        lambda t: pa.table({"key": pc.binary_join_element_wise(
            t["a"].combine_chunks().cast(pa.string()),
            t["b"].combine_chunks().cast(pa.string()), " ")}),
        batch_format="pyarrow")

    missing = semi_join(cn, "key", edge_keys, "key", anti=True) \
        .map_batches(lambda t: t.select(["x", "y", "common_neighbors"]),
                     batch_format="pyarrow")
    # At permissive thresholds every strong candidate pair may already BE
    # an edge — an empty result is legitimate, so pin the schema (see
    # global_topk docstring)
    return global_topk(missing, ["common_neighbors", "x", "y"],
                       [True, False, False], k,
                       schema=pa.schema([("x", pa.string()),
                                         ("y", pa.string()),
                                         ("common_neighbors", pa.int64())]))


DEGREE_HISTOGRAM_SCHEMA = pa.schema([("direction", pa.string()),
                                     ("degree", pa.int64()), ("n_nodes", pa.int64())])


def degree_histogram(sf_dir: str):
    """Degree distribution of the link graph: for each direction, how
    many nodes have each in/out-degree (including the in-degree-0 row
    when pages exist that nothing links to) — the first diagnostic any
    web-graph ingest plots (power-law check, crawl-frontier health).

    Shape: the classic two-level aggregation — grouped count per node,
    then grouped count per degree; both through the standard combiner
    path.  The histograms themselves are degree-domain bounded, so final
    assembly (and the arithmetic zero-degree row: N minus nodes with
    in-links) is driver-side constant state.  Output: (direction,
    degree, n_nodes), direction-then-degree sorted.
    """
    import ray.data as rd

    n_docs = _read_docs(sf_dir, ["doc_id"]).count()
    edges = doc_links(sf_dir).materialize()

    def hist(col: str):
        per_node = grouped_sum_count(
            edges.map_batches(lambda t, c=col: t.select([c]),
                              batch_format="pyarrow"),
            col, count_alias="deg")
        return grouped_sum_count(
            per_node.map_batches(lambda t: t.select(["deg"]),
                                 batch_format="pyarrow"),
            "deg", count_alias="n_nodes").take_all()

    rows = []
    for direction, col in (("in", "dst"), ("out", "src")):
        h = hist(col)
        covered = sum(int(r["n_nodes"]) for r in h)
        if direction == "in" and covered < n_docs:
            rows.append({"direction": "in", "degree": 0,
                         "n_nodes": n_docs - covered})
        rows.extend({"direction": direction, "degree": int(r["deg"]),
                     "n_nodes": int(r["n_nodes"])} for r in h)
    rows.sort(key=lambda r: (r["direction"], r["degree"]))
    return rd.from_arrow(pa.Table.from_pylist(rows, schema=DEGREE_HISTOGRAM_SCHEMA))


# ---------------------------------------------------------------------------
# Community detection, feature propagation, and walk sampling
# ---------------------------------------------------------------------------


LABELS_SCHEMA = int64_schema("node", "lbl")


def label_propagation(edges, nodes, *, iters: int = 2):
    """Synchronous label propagation (Raghavan et al. 2007) over the
    UNDIRECTED closure of a (src, dst) edge Dataset — the linear-time
    community detector a web corpus runs to group mirror/topic clusters
    before per-community curation.  Deterministic variant: every node
    starts labeled with itself; each round it adopts the label with the
    highest neighbor count, ties broken by SMALLEST label; an isolated
    node keeps its own label.  Parallel (src,dst)/(dst,src) duplicates
    count twice on both engine and oracle — multigraph semantics,
    documented rather than deduplicated (a distinct-edge pass would add a
    full shuffle for no ranking benefit on the synthetic graph).

    Shape per round (all PageRank-machinery, nothing new moves):
      1. labels JOIN symmetrized edges ON src (bucketed hash join)
      2. one grouped (node, lbl) count — zero-count rows for every node's
         CURRENT label are unioned in first, so isolated nodes self-elect
         without a driver-side membership pass
      3. per-node argmax = per-block best -> one node sort -> best (the
         exact-safe grouped-argmax pattern of cluster_representatives)
    Output: (node, lbl) after ``iters`` rounds, node-sorted.
    """
    from lexmapr_ray.functions.topk import key_topk

    rev = edges.map_batches(
        lambda t: pa.table({"src": pc.cast(t["dst"], pa.int64()),
                            "dst": pc.cast(t["src"], pa.int64())}),
        batch_format="pyarrow")
    fwd = edges.map_batches(
        lambda t: pa.table({"src": pc.cast(t["src"], pa.int64()),
                            "dst": pc.cast(t["dst"], pa.int64())}),
        batch_format="pyarrow")
    sym = fwd.union(rev).materialize()  # all rounds re-scan the adjacency
    sym_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    labels = nodes.map_batches(
        lambda t: pa.table({"node": pc.cast(t["node"], pa.int64()),
                            "lbl": pc.cast(t["node"], pa.int64())}),
        batch_format="pyarrow").materialize()

    def best(t: pa.Table) -> pa.Table:
        return key_topk(t, "node", [("c", "descending"), ("lbl", "ascending")], 1)

    for _ in range(iters):
        contrib = bucketed_hash_join(
            sym, labels, on="src", right_on="node",
            left_schema=sym_schema, right_schema=LABELS_SCHEMA,
        ).map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["dst"], pa.int64()),
                "lbl": pc.cast(t["lbl"], pa.int64()),
                "c": pa.array(np.ones(len(t), dtype=np.int64)),
            }),
            batch_format="pyarrow")
        zeros = labels.map_batches(
            lambda t: pa.table({
                "node": t["node"], "lbl": t["lbl"],
                "c": pa.array(np.zeros(len(t), dtype=np.int64)),
            }),
            batch_format="pyarrow")
        counts = grouped_sum_count(contrib.union(zeros), ["node", "lbl"],
                                   {"c": "c"})
        labels = sorted_group_reduce(counts, "node", best, best) \
            .map_batches(
                lambda t: pa.table({"node": pc.cast(t["node"], pa.int64()),
                                    "lbl": pc.cast(t["lbl"], pa.int64())}),
                batch_format="pyarrow").materialize()

    return with_schema(labels.sort("node"), LABELS_SCHEMA)


def label_propagation_docs(sf_dir: str, iters: int = 2):
    """Label propagation over the synthetic doc link graph."""
    nodes = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow")
    return label_propagation(doc_links(sf_dir), nodes, iters=iters)


def neighbor_feature_agg(sf_dir: str):
    """1-hop neighbor feature aggregation (the GraphSAGE/GCN 'aggregate'
    primitive): for every document, the count and integer-milli MEAN of
    its IN-neighbors' ``n_chars`` — the feature-propagation pass that
    turns a link graph plus per-page features into training inputs for a
    graph model, and the quality-smoothing prior ("pages linked by long
    pages are long") a curation pipeline scores with.

    Shape: ONE bucketed hash join (edges x features on src) and ONE
    grouped sum — the irreducible message-passing exchange; zero-count
    rows for every node are unioned in so sink-free coverage needs no
    driver membership pass (the explicit ``one`` column keeps the
    in-degree exact under the zero union).  mean_milli =
    floor(1000 * sum / n) with mean 0 for in-degree-0 nodes, matching the
    oracle's integer division.  Output: (node, n_in, sum_chars,
    mean_milli), node-sorted.
    """
    feats = _read_docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.int64()),
                            "f": pc.cast(t["n_chars"], pa.int64())}),
        batch_format="pyarrow")

    contrib = bucketed_hash_join(
        doc_links(sf_dir), feats, on="src", right_on="node",
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("f", pa.int64())]),
    ).map_batches(
        lambda t: pa.table({
            "node": pc.cast(t["dst"], pa.int64()),
            "f": pc.cast(t["f"], pa.int64()),
            "one": pa.array(np.ones(len(t), dtype=np.int64)),
        }),
        batch_format="pyarrow")
    zeros = feats.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "f": pa.array(np.zeros(len(t), dtype=np.int64)),
            "one": pa.array(np.zeros(len(t), dtype=np.int64)),
        }),
        batch_format="pyarrow")
    summed = grouped_sum_count(contrib.union(zeros), "node",
                               {"sum_chars": "f", "n_in": "one"})

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_in"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        mean = np.where(n > 0, (1000 * s) // np.maximum(n, 1), 0)
        return pa.table({"node": pc.cast(t["node"], pa.int64()),
                         "n_in": pa.array(n),
                         "sum_chars": pa.array(s),
                         "mean_milli": pa.array(mean)})

    return summed.map_batches(finish, batch_format="pyarrow")


def random_walks(sf_dir: str, steps: int = 4):
    """Deterministic DeepWalk-style walk sampling (Perozzi et al. 2014):
    one length-``steps`` walk per document over the link graph, the
    positive-pair generator for graph-embedding training — RNG-free so
    any engine resampling the corpus emits byte-identical pairs.  At step
    ``t`` from node v, walk ``w`` follows out-edge index
    ``(w * 1000003 + t * 10007) % out_degree(v)`` where a node's
    out-edges are indexed 0..deg-1 in ascending ``dst`` order (the
    synthetic graph is simple, so the order is total; int64-exact while
    walk_id < 9.2e12).

    Scale shape: the indexed adjacency (src, dst, deg, idx) is built with
    per-src rank folded into the bucketed join's ``block_fn`` — the only
    block-split-safe placement for per-key ranking — and materialized
    once (the co-partitioned adjacency every Pregel engine caches); each
    step is ONE frontier join + a vectorized modulo filter that keeps
    exactly one edge per walk, so the frontier stays |walks| rows and
    nothing reaches the driver.  Output: (walk_id, step, node) for steps
    0..``steps``, (walk_id, step)-sorted.
    """
    edges = doc_links(sf_dir)
    deg = grouped_sum_count(edges, "src", count_alias="deg")

    def rank_in_src(t: pa.Table) -> pa.Table:
        t = t.sort_by([("src", "ascending"), ("dst", "ascending")])
        starts = run_starts(t, ["src"])
        idx = np.arange(t.num_rows) - np.repeat(
            starts, np.diff(starts, append=t.num_rows))
        return t.append_column("idx", pa.array(idx, pa.int64()))

    edges_idx = bucketed_hash_join(
        edges, deg, on="src",
        block_fn=rank_in_src,
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("src", pa.int64()), ("deg", pa.int64())]),
    ).materialize()
    ei_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                           ("deg", pa.int64()), ("idx", pa.int64())])

    frontier = _read_docs(sf_dir, ["doc_id"]).map_batches(
        lambda t: pa.table({"walk_id": pc.cast(t["doc_id"], pa.int64()),
                            "cur": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow").materialize()
    fr_schema = pa.schema([("walk_id", pa.int64()), ("cur", pa.int64())])

    def emit(step: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "walk_id": pc.cast(t["walk_id"], pa.int64()),
                "step": pa.array(np.full(len(t), step, dtype=np.int64)),
                "node": pc.cast(t["cur"], pa.int64()),
            })
        return fn

    out = frontier.map_batches(emit(0), batch_format="pyarrow")
    for t_step in range(1, steps + 1):
        def advance(t: pa.Table, _s=t_step) -> pa.Table:
            wid = t["walk_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = t["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
            deg_ = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            keep = (wid * 1000003 + _s * 10007) % deg_ == idx
            return pa.table({"walk_id": pa.array(wid[keep]),
                             "cur": pa.array(dst[keep])})

        frontier = bucketed_hash_join(
            frontier, edges_idx, on="cur", right_on="src",
            left_schema=fr_schema, right_schema=ei_schema,
        ).map_batches(advance, batch_format="pyarrow").materialize()
        out = out.union(frontier.map_batches(emit(t_step),
                                             batch_format="pyarrow"))

    return out.sort(["walk_id", "step"])


# ---------------------------------------------------------------------------
# Host-level link graph extracted from raw html
# ---------------------------------------------------------------------------

_HREF_RE = None
_HOST_RE = None


def anchor_text_profile(sf_dir: str):
    """Per-TARGET in-link profile recovered from raw page html: total
    in-anchors, distinct source hosts, and the anchor text — the
    anchor-text evidence table a web-KG pipeline aggregates per entity
    page (anchor text is how the rest of the web describes a page; the
    anchor-text entity-linking op consumes exactly this signal).  Like
    :func:`host_link_graph`, the engine PARSES the anchors out of the
    html bytes while the SQL oracle regenerates the deterministic edge
    set + phrase table arithmetically — the gate verifies the parse.

    Shape: stateless anchor-extract map emits (dst_url, src_host, text)
    rows (html never leaves the task); per-batch collapse to distinct
    (dst_url, src_host) with counts + a min-text carry, ONE dst_url sort,
    co-located final computes the exact distinct-host count.  Output:
    (dst_url, n_inlinks, n_src_hosts, anchor_text), dst-sorted."""
    import re

    from lexmapr_ray.sources.pages import linked_pages_from_documents

    anchor_re = re.compile(rb'<a href="([^"]+)">([^<]*)</a>')
    host_re = re.compile(r"://([^/:?#]+)")

    pages = linked_pages_from_documents(sf_dir)

    def extract(t: pa.Table) -> pa.Table:
        dsts, hosts, texts = [], [], []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            # hostile-crawl guards (advisor r4): a url with no '://'
            # contributes nothing instead of AttributeError-ing the task,
            # and non-UTF8 anchor bytes decode with replacement instead
            # of killing the whole block
            hm = host_re.search(u)
            if hm is None:
                continue
            sh = hm.group(1)
            for m in anchor_re.finditer(h):
                dsts.append(m.group(1).decode("utf-8", errors="replace"))
                hosts.append(sh)
                texts.append(m.group(2).decode("utf-8", errors="replace"))
        return pa.table({"dst_url": pa.array(dsts, pa.string()),
                         "src_host": pa.array(hosts, pa.string()),
                         "anchor_text": pa.array(texts, pa.string())})

    edges = pages.map_batches(extract, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        if "cnt" not in t.column_names:
            t = t.append_column("cnt", pa.array(np.ones(len(t), dtype=np.int64)))
        return t.group_by(["dst_url", "src_host"], use_threads=False).aggregate(
            [("anchor_text", "min"), ("cnt", "sum")]
        ).rename_columns(["dst_url", "src_host", "anchor_text", "cnt"])

    def final(t: pa.Table) -> pa.Table:
        return partial(t).group_by("dst_url", use_threads=False).aggregate(
            [("cnt", "sum"), ("src_host", "count_distinct"), ("anchor_text", "min")]
        ).rename_columns(["dst_url", "n_inlinks", "n_src_hosts", "anchor_text"]) \
            .sort_by("dst_url")

    return sorted_group_reduce(edges, "dst_url", partial, final)


def host_link_graph(sf_dir: str):
    """Host-level link graph parsed out of raw page html: how many anchors
    point from pages on ``src_host`` to urls on ``dst_host`` — the
    domain-graph build a Common-Crawl pipeline runs for spam/authority
    signals before any per-page scoring.

    Unlike :func:`doc_links` (which generates edges arithmetically), the
    edges here are RECOVERED FROM THE HTML BYTES — regex anchor extraction
    over the pages of ``sources/pages.py::linked_pages_from_documents``;
    the SQL oracle regenerates the same edge set arithmetically (the
    synthesis is a pure function of the documents table), so the gate
    verifies the parse, not just the aggregate.

    Scale shape: stateless extract map (compiled regexes, one pass per
    page; emits only (src_host, dst_host) — html never leaves the task)
    -> ``grouped_sum_count`` on the host pair (per-batch Arrow combiner;
    shuffle <= |host pairs| per batch, i.e. domain-bounded, never
    page-scale).  Output: ``(src_host, dst_host, n_links)``, pair-sorted.
    """
    import re

    global _HREF_RE, _HOST_RE
    if _HREF_RE is None:
        _HREF_RE = re.compile(rb'<a href="([^"]+)"')
        _HOST_RE = re.compile(r"://([^/:?#]+)")

    from lexmapr_ray.sources.pages import linked_pages_from_documents

    pages = linked_pages_from_documents(sf_dir)

    def extract(t: pa.Table) -> pa.Table:
        href_re, host_re = _HREF_RE, _HOST_RE
        srcs: list[str] = []
        dsts: list[str] = []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            # hostile-crawl guards: host-less urls / non-UTF8 or host-less
            # hrefs are skipped instead of killing the task (advisor r4)
            hm = host_re.search(u)
            if hm is None:
                continue
            sh = hm.group(1)
            for m in href_re.finditer(h):
                dm = host_re.search(m.group(1).decode("utf-8",
                                                      errors="replace"))
                if dm is None:
                    continue
                srcs.append(sh)
                dsts.append(dm.group(1))
        return pa.table({"src_host": pa.array(srcs, pa.string()),
                         "dst_host": pa.array(dsts, pa.string())})

    edges = pages.map_batches(extract, batch_format="pyarrow")
    return grouped_sum_count(edges, ["src_host", "dst_host"],
                             count_alias="n_links")


def redirect_resolve(sf_dir: str, rounds: int = 4):
    """Redirect-chain resolution with loop detection — the crawl-frontier
    pass that maps every fetched URL to its final destination before any
    dedup/canonicalization keyed on URL can be trusted (HTTP 3xx chains
    and redirect LOOPS are endemic in web crawls; cf. the reference's
    single-URL fetch in ontofetch.py:158-213 which follows redirects one
    page at a time).

    Synthetic redirect model (pure function of ``doc_id``, same contract
    as the link model above): page ``d`` is terminal iff ``d % 3 == 0``,
    otherwise it redirects to ``(d * 17 + 3) mod N`` — a pseudo-random
    functional graph whose chains either reach a terminal or fall into a
    cycle, so the loop-detection path is genuinely exercised.

    Shape: POINTER DOUBLING (path halving), the scale-correct resolver —
    ``rounds`` bucketed self-joins bound chases of length ``2**rounds``,
    where naive per-hop chasing would take 2**rounds joins and a
    driver-side loop would not be distributed at all.  State row
    ``(node, ptr, hops)`` means "ptr is node's position after
    min(steps_to_terminal, hops) steps"; each round composes the state
    with itself (join on ptr = node), exactly squaring the bound.  The
    SQL oracle unrolls the SAME bound as 2**rounds LINEAR steps — a
    different algorithm arriving at the definitionally identical
    fixpoint, so the gate verifies the doubling logic, not a replay.

    Output: (doc_id, final_id, hops, resolved) — resolved=0 rows ended
    ``2**rounds`` hops deep without a terminal (loop participants/tails).
    """
    i64 = pa.int64()
    n_docs = _read_docs(sf_dir, ["doc_id"]).count()

    def init(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        term = d % 3 == 0
        return pa.table({
            "node": d,
            "ptr": np.where(term, d, (d * 17 + 3) % n_docs),
            "hops": np.where(term, 0, 1).astype(np.int64),
        })

    state = _read_docs(sf_dir, ["doc_id"]).map_batches(
        init, batch_format="pyarrow")
    st_schema = pa.schema([("node", i64), ("ptr", i64), ("hops", i64)])

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["jnode", "jptr", "jhops"])

    def compose(t: pa.Table) -> pa.Table:
        ptr, hops = (t[c].to_numpy(zero_copy_only=False) for c in ("ptr", "hops"))
        done = ptr % 3 == 0
        return pa.table({
            "node": t["node"],
            "ptr": np.where(done, ptr, t["jptr"].to_numpy(zero_copy_only=False)),
            "hops": np.where(done, hops,
                             hops + t["jhops"].to_numpy(zero_copy_only=False)),
        })

    j_schema = pa.schema([("jnode", i64), ("jptr", i64), ("jhops", i64)])
    for _ in range(rounds):
        # functional graph: every ptr value exists as a node, so the inner
        # join is total; materialize keeps the per-round lineage flat
        state = bucketed_hash_join(
            state, state.map_batches(rename, batch_format="pyarrow"),
            on="ptr", right_on="jnode",
            left_schema=st_schema, right_schema=j_schema,
            block_fn=compose,
        ).materialize()

    def finish(t: pa.Table) -> pa.Table:
        ptr = t["ptr"].to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(t["node"], i64),
            "final_id": pc.cast(t["ptr"], i64),
            "hops": pc.cast(t["hops"], i64),
            "resolved": pa.array((ptr % 3 == 0).astype(np.int64), i64),
        })

    return state.map_batches(finish, batch_format="pyarrow").sort("doc_id")
