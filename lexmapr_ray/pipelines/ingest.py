"""Incremental crawl-batch ingest: the ONE surface that strings together
the engine's proven incremental pieces (VERDICT r4 #6) —

    new pages batch
      -> near-dup gate vs the PERSISTED banded-LSH index   (stages/dedup.py
         _index_dedup_verdicts, the minhash_index_dedup_persisted topology)
      -> accepted pages appended to the corpus store        (per-batch dir)
      -> accepted banded rows appended to the index         (per-batch dir)
      -> matcher tasks -> triple dedup                      (pipelines/kg.py)
      -> merged into the existing sorted graph              (versioned dirs)

Equality contract (pinned by tests/test_resumable.py): ingesting a corpus
in K batches with no cross-batch near-dups yields the SAME graph,
bit-for-bit, as one full-corpus run — triple extraction is per-page and
dedup is associative (the kg_incremental_merge property), and the index
gate only ever REMOVES near-duplicate pages.  This mirrors the reference's
cache-reuse spirit (pipeline_resources.py:52-71: fetch once, reuse on the
next run) lifted to corpus scale.

Scale notes: the index holds (doc_id, bucket) int64 rows — ~128 B/page,
petabyte-corpus-safe; only the NEW batch's text is ever banded; the
exact-Jaccard verify joins candidate ids against the corpus STORE (point
lookups through a bucketed join — the non-candidate corpus never loads
text).  Graph merge reads the current sorted graph + the batch's triples
through ONE dedup sort; each version directory is immutable, `_CURRENT`
is a one-line pointer flip, and a crashed ingest leaves the previous
version intact (re-run: the batch's `_COMMITTED` marker makes corpus and
index appends idempotent).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray import _configure_data_context

# this module's engine imports are all deferred, so apply the Ray Data
# defaults here, as the Ray-facing packages do
_configure_data_context()

DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("url", pa.string()),
                         ("text", pa.string()), ("lang", pa.string())])


def _url_doc_ids(urls: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Stable 63-bit ids from urls (md5 prefix, sign bit cleared) — the
    join/index key; collision odds at 10^12 docs ~ 5e-8."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big") >> 1
         for u in urls.to_pylist()),
        dtype=np.int64, count=len(urls))


def _pages_to_docs(pages_ds):
    """pages (url, text, ...) -> (doc_id, url, text) rows."""
    def conv(t: pa.Table) -> pa.Table:
        lang = pc.cast(t["lang"], pa.string()) if "lang" in t.column_names \
            else pa.array(["en"] * t.num_rows, pa.string())
        return pa.table({
            "doc_id": pa.array(_url_doc_ids(t["url"]), pa.int64()),
            "url": pc.cast(t["url"], pa.string()),
            "text": pc.cast(t["text"], pa.string()),
            "lang": lang,
        })

    return pages_ds.map_batches(conv, batch_format="pyarrow")


def _parquet_files(root: str) -> list[str]:
    """Committed parquet under per-batch dirs (``_COMMITTED`` marker)."""
    import glob as _glob

    out = []
    if not os.path.isdir(root):
        return out
    for d in sorted(os.listdir(root)):
        bdir = os.path.join(root, d)
        if os.path.isdir(bdir) and \
                os.path.exists(os.path.join(bdir, "_COMMITTED")):
            out.extend(sorted(_glob.glob(os.path.join(bdir, "*.parquet"))))
    return out


def _current_graph_files(graph_dir: str) -> list[str]:
    """Parquet files of the published graph version.  A pointer that exists
    but names a missing/empty version dir FAILS LOUDLY: silently returning
    [] would make the next ingest publish a graph containing only its own
    batch, dropping all prior history (review r5)."""
    import glob as _glob

    ptr = os.path.join(graph_dir, "_CURRENT")
    if not os.path.exists(ptr):
        return []
    with open(ptr) as f:
        version = f.read().strip()
    files = sorted(_glob.glob(
        os.path.join(graph_dir, version, "*.parquet"))) if version else []
    if not files:
        raise RuntimeError(
            f"dangling graph pointer: {ptr} names {version!r} but no "
            f"parquet found — restore the pointer to a valid version "
            f"directory before ingesting")
    return files


def near_dup_gate(batch_docs, index_dir: str, corpus_dir: str,
                  threshold: float = 0.8, concurrency=None):
    """(doc_id, dup_of, jaccard_pct) verdicts for new docs near-duplicating
    the already-ingested corpus: bands ONLY the new batch, unions the
    persisted (doc_id, bucket) index rows pretagged as existing, and runs
    the shared candidate/exact-verify/argmax tail with texts
    joined from batch ∪ corpus store.  Empty index -> no verdicts."""
    import ray.data as rd

    from lexmapr_ray.stages.dedup import (MinHasher, _auto_concurrency,
                                          _index_dedup_verdicts)

    # materialize: the banding pass is the gate's dominant CPU cost and
    # BOTH the verdict pipeline and the index append consume these rows —
    # unmaterialized, the MinHasher stage would execute twice (review r5)
    new_banded = batch_docs.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow"
    ).map_batches(
        MinHasher("word"), batch_format="pyarrow",
        concurrency=_auto_concurrency(concurrency),
    ).materialize()
    index_files = _parquet_files(index_dir)
    if not index_files:
        return None, new_banded

    def tag(flag: bool):
        def f(t: pa.Table) -> pa.Table:
            return t.select(["doc_id", "bucket"]).append_column(
                "is_new", pa.array(np.full(t.num_rows, flag)))
        return f

    banded = new_banded.map_batches(tag(True), batch_format="pyarrow").union(
        rd.read_parquet(index_files, columns=["doc_id", "bucket"])
        .map_batches(tag(False), batch_format="pyarrow"))

    corpus_files = _parquet_files(corpus_dir)
    docs = batch_docs.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow")
    if corpus_files:
        docs = docs.union(
            rd.read_parquet(corpus_files, columns=["doc_id", "text"]))
    verdicts = _index_dedup_verdicts(banded, docs, threshold, pretagged=True)
    return verdicts, new_banded


def ingest_batch(pages_ds, *, graph_dir: str, index_dir: str,
                 corpus_dir: str, batch_id: str, lexicon_ref=None,
                 threshold: float = 0.8, bucket: bool = False,
                 concurrency=None, batch_size: int = 256) -> dict:
    """Ingest one crawl batch; returns run metrics.  Idempotent per
    ``batch_id``: a committed batch is skipped entirely."""
    import ray
    import ray.data as rd

    from lexmapr_ray.pipelines.kg import (broadcast_lexicon, dedup_triples,
                                          extract_triples)

    os.makedirs(graph_dir, exist_ok=True)
    cdir = os.path.join(corpus_dir, f"batch_{batch_id}")
    idir = os.path.join(index_dir, f"batch_{batch_id}")
    # skip only when BOTH appends committed.  A crash between the two
    # marker writes leaves corpus-committed / index-uncommitted: keying
    # the skip on cdir alone would silently lose the batch's LSH rows
    # forever — every later batch's near-dup gate blind to these pages
    # (review r5).  Split-brain falls through to a full redo, which is
    # safe: the rmtree below clears both appends and the graph merge is
    # set-idempotent (dedup), so re-merging already-published triples is
    # a no-op.  Single-writer assumption as documented.
    if os.path.exists(os.path.join(cdir, "_COMMITTED")) and \
            os.path.exists(os.path.join(idir, "_COMMITTED")):
        return {"batch_id": batch_id, "skipped": True}

    t0 = time.time()
    if lexicon_ref is None:
        lexicon_ref = broadcast_lexicon()

    # a crashed earlier attempt may have left PARTIAL parquet in the
    # uncommitted (or half-committed, see the skip check) batch dirs;
    # clear them or the re-run would append a second copy of every row
    # next to the stale files (review r5)
    import shutil

    for d in (cdir, idir):
        if os.path.isdir(d):
            shutil.rmtree(d)

    batch_docs = _pages_to_docs(pages_ds).materialize()
    n_in = batch_docs.count()

    verdicts, new_banded = near_dup_gate(
        batch_docs, index_dir, corpus_dir, threshold, concurrency)
    if verdicts is None:
        dup_ids: set = set()
    else:
        # verdict volume is bounded by the BATCH size (one row per flagged
        # new doc), never corpus-scale — safe to collect for the filter
        dup_ids = {r["doc_id"] for r in verdicts.take_all()}
    dup_ref = ray.put(np.fromiter(sorted(dup_ids), dtype=np.int64,
                                  count=len(dup_ids)))

    def keep_accepted(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        drop = np.isin(ids, ray.get(dup_ref))
        return t.filter(pa.array(~drop))

    accepted = batch_docs.map_batches(keep_accepted, batch_format="pyarrow") \
        .materialize()
    n_accepted = accepted.count()

    # commit corpus + index appends for THIS batch (marker last)
    accepted.write_parquet(cdir)
    accepted_banded = new_banded.map_batches(keep_accepted,
                                             batch_format="pyarrow")
    accepted_banded.write_parquet(idir)

    # extract + merge into the sorted graph (new version dir, pointer flip)
    pages_accepted = accepted.map_batches(
        lambda t: t.select(["url", "text", "lang"]), batch_format="pyarrow")
    triples = extract_triples(pages_accepted, lexicon_ref, bucket=bucket,
                              pre_extracted=True, concurrency=concurrency,
                              batch_size=batch_size)
    cur = _current_graph_files(graph_dir)
    merged = triples.union(rd.read_parquet(cur)) if cur else triples
    graph = dedup_triples(merged).materialize()
    n_triples = graph.count()
    version = f"v{int(time.time() * 1000)}_{batch_id}"
    version_dir = os.path.join(graph_dir, version)
    graph.write_parquet(version_dir)
    if n_triples == 0:
        # write_parquet of a 0-row dataset writes NO files, so the pointer
        # flip below would publish a version dir _current_graph_files
        # rejects as a torn pointer, permanently bricking later ingests
        # (review r5, reproduced).  An empty graph is a legitimate state
        # (e.g. a first batch with no lexicon matches): materialize it as
        # an explicit empty parquet with the triples schema.
        import pyarrow.parquet as pq

        from lexmapr_ray.stages.match import TRIPLES_SCHEMA

        os.makedirs(version_dir, exist_ok=True)
        pq.write_table(TRIPLES_SCHEMA.empty_table(),
                       os.path.join(version_dir, "part-empty.parquet"))
    # atomic pointer flip: write-temp + os.replace — a crash mid-write
    # must never leave a truncated/empty _CURRENT (review r5)
    ptr_tmp = os.path.join(graph_dir, "_CURRENT.tmp")
    with open(ptr_tmp, "w") as f:
        f.write(version)
        f.flush()
        os.fsync(f.fileno())
    os.replace(ptr_tmp, os.path.join(graph_dir, "_CURRENT"))

    # markers LAST: everything above is re-runnable until these land
    # (makedirs: write_parquet of a fully-deduped 0-row batch writes no
    # files, but the batch is still committed)
    os.makedirs(cdir, exist_ok=True)
    os.makedirs(idir, exist_ok=True)
    open(os.path.join(cdir, "_COMMITTED"), "w").close()
    open(os.path.join(idir, "_COMMITTED"), "w").close()
    metrics = {
        "batch_id": batch_id, "skipped": False, "pages_in": int(n_in),
        "near_dup_dropped": len(dup_ids), "pages_accepted": int(n_accepted),
        "graph_triples": int(n_triples), "graph_version": version,
        "wall_s": round(time.time() - t0, 3),
    }
    with open(os.path.join(graph_dir, f"ingest_{batch_id}.json"), "w") as f:
        json.dump(metrics, f)
    return metrics
