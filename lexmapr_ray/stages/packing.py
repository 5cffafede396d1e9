"""Sequence packing: assign documents to fixed token-budget training
sequences via a distributed prefix sum.

The packing rule is the deterministic contiguous one (the order-preserving
variant of the packing used when assembling LM training batches): documents
are laid end-to-end in ``doc_id`` order and ``seq_id = floor(start_offset /
budget)`` where ``start_offset`` is the total token count of all preceding
documents.  Content-independent of engine/partitioning, so DuckDB's window
``SUM() OVER (ORDER BY doc_id)`` is an exact oracle.  The offsets come from
:func:`lexmapr_ray.functions.ranks.prefix_sums` over the narrow
(doc_id, n_tokens) table: text is dropped before any shuffle.
"""

from __future__ import annotations

import pyarrow as pa

from lexmapr_ray.functions.ranks import prefix_sums
from lexmapr_ray.stages.textstats import (_read_documents, _shuffle_order,
                                          _token_counts)


def _pack(ds, budget: int):
    """(doc_id, n_tokens, seq_id) over a (doc_id, n_tokens) Dataset."""
    packed, _ = prefix_sums(ds, "doc_id", sums=["n_tokens"])
    return packed.map_batches(lambda t: pa.table({
        "doc_id": t["doc_id"],
        "n_tokens": t["n_tokens"],
        "seq_id": pa.array(t["n_tokens_before"].to_numpy() // budget),
    }), batch_format="pyarrow")


def sequence_pack(sf_dir: str, budget: int = 512):
    """(doc_id, n_tokens, seq_id) for every document; ``seq_id`` groups
    consecutive docs into sequences of ~``budget`` tokens (a doc belongs to
    the sequence its first token lands in; oversized docs spill forward)."""

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(_token_counts(t["text"]), pa.int64()),
        })

    return _pack(_read_documents(sf_dir, ["doc_id", "text"])
                 .map_batches(narrow, batch_format="pyarrow"), budget)


def curate_pack_shuffle(sf_dir: str, budget: int = 512):
    """The composed curation flagship a training ingest actually runs, as
    ONE streaming pipeline: Gopher quality gate -> exact dedup (min doc_id
    per distinct text) -> contiguous token-budget packing over the
    SURVIVING set -> deterministic md5 training-order rank.  One manifest
    row per surviving document: (doc_id, n_tokens, seq_id, shuffle_rank).

    Composition, not re-implementation: the quality flags, content digest
    and token count come out of ONE corpus pass (``_doc_token_profile`` —
    thresholds literally ``gopher_quality_filter``'s defaults); the dedup
    election is the standard combine -> digest sort -> reduce
    (``dedup_exact`` semantics); packing and the shuffle rank are
    ``sequence_pack``'s and ``corpus_shuffle_order``'s own passes over the
    tiny surviving narrow table.  Because every sub-op's semantics
    are published, the SQL oracle is their CTE composition and the gate is
    value-exact end-to-end — the composability guarantee a pipeline user
    cares about (filters change survivor sets change seq boundaries).
    """
    import hashlib

    import pyarrow.compute as pc

    from lexmapr_ray.functions.groupagg import run_starts, sorted_group_reduce
    from lexmapr_ray.stages.textstats import _doc_token_profile

    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def survivors(t: pa.Table) -> pa.Table:
        n_tok, _, top_n, sum_chars, n_stop = _doc_token_profile(t)
        keep = (n_tok >= 10) & (n_tok <= 100_000) & \
               (100 * sum_chars >= 300 * n_tok) & \
               (100 * sum_chars <= 1000 * n_tok) & \
               (n_stop >= 2) & (100 * top_n <= 20 * n_tok)
        texts = t["text"].to_pylist()
        tb = pa.table({
            "digest": pa.array(
                [hashlib.md5(s.encode("utf-8")).hexdigest() for s in texts],
                pa.string()),
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
        })
        return tb.filter(pa.array(keep))

    def elect(t: pa.Table) -> pa.Table:
        t = t.sort_by([("digest", "ascending"), ("doc_id", "ascending")])
        return t.take(run_starts(t, ["digest"]))

    win = sorted_group_reduce(
        ds.map_batches(survivors, batch_format="pyarrow"),
        "digest", elect, elect,
    ).map_batches(lambda t: t.select(["doc_id", "n_tokens"]),
                  batch_format="pyarrow")
    return _shuffle_order(_pack(win, budget))


def chunk_documents(sf_dir: str, window: int = 64, overlap: int = 16):
    """Cut every document into fixed-size overlapping token chunks — the
    context-window splitting step of RAG indexing and long-document
    pretraining prep (each chunk becomes its own training/index row).

    Chunk ``i`` of a document covers tokens ``[i*stride, i*stride+window)``
    with ``stride = window - overlap``; the last chunk keeps the remainder
    (length in ``(overlap, window]``), and a document of <= ``window``
    tokens is one chunk.  Tokenless documents emit no chunks (the engine's
    standard empty-text contract).  Output per chunk: (doc_id, chunk_idx,
    n_chunk_tokens, chunk_fp) where ``chunk_fp`` is the md5 hex of the
    space-joined chunk tokens — the identity a downstream chunk-level
    dedup or index keys on, and what makes the DuckDB oracle (list_slice +
    md5 over the same \\s+ token lists) value-exact.

    Scale shape: embarrassingly parallel one-pass flat map — no shuffle at
    all; chunk rows stream straight to the consumer.  Arrow does the
    tokenization (trim + RE2 split); the per-chunk md5 join is the same
    no-Arrow-kernel hash loop as ``doc_fingerprint`` (adjudicated fine).
    """
    import hashlib

    import pyarrow.compute as pc

    from lexmapr_ray.stages.textstats import _read_documents, _token_lists

    stride = window - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than window")

    def chunk(t: pa.Table) -> pa.Table:
        trimmed, splits = _token_lists(t["text"])
        empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
        doc_ids = t["doc_id"].to_numpy()
        toks_rows = splits.to_pylist()
        out_doc: list = []
        out_idx: list = []
        out_n: list = []
        out_fp: list = []
        for d, toks, e in zip(doc_ids, toks_rows, empty):
            if e:
                continue
            n = len(toks)
            n_chunks = 1 if n <= window else (n - window + stride - 1) // stride + 1
            for i in range(n_chunks):
                s = i * stride
                epos = min(s + window, n)
                out_doc.append(int(d))
                out_idx.append(i)
                out_n.append(epos - s)
                out_fp.append(hashlib.md5(
                    " ".join(toks[s:epos]).encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "chunk_idx": pa.array(out_idx, pa.int64()),
            "n_chunk_tokens": pa.array(out_n, pa.int64()),
            "chunk_fp": pa.array(out_fp, pa.string()),
        })

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        chunk, batch_format="pyarrow", batch_size=65536)
