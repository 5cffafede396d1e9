"""Guard against stale committed oracle parquet.

`expected/*.parquet` pins the driver's DuckDB oracles for the non-SQL
operators.  If an intentional semantic change lands without regenerating
them (tools/make_kg_expected.py + tools/make_op_expected.py), the driver
gate fails opaquely — this test recomputes the sf0.001 slices serially and
compares them to the committed files, so the drift is caught at pytest
time with a pointed message.  (No Ray involved: pure serial loops.)
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq
import pytest

from tests.conftest import REFERENCE_RESOURCES, requires_path

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(REPO, "expected")
SF = "/root/testdata/sf0.001"
sys.path.insert(0, os.path.join(REPO, "tools"))

# the kg expected files were computed from the reference lexicon
needs_reference_lexicon = requires_path(REFERENCE_RESOURCES)
MSG = "committed expected parquet is stale — rerun tools/make_kg_expected.py and tools/make_op_expected.py"


def _committed(name: str, tag_col: str, tag: int):
    t = pq.read_table(os.path.join(EXPECTED, f"{name}.parquet"))
    t = t.filter(__import__("pyarrow").compute.equal(t[tag_col], tag))
    return [tuple(r[c] for c in t.column_names if c != tag_col)
            for r in t.to_pylist()]


def _docs():
    d = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return d["doc_id"].to_pylist(), d["text"].to_pylist()


def _langs():
    return pq.read_table(f"{SF}/documents.parquet",
                         columns=["lang"])["lang"].to_pylist()


@pytest.fixture(scope="module")
def corpus():
    ids, texts = _docs()
    return ids, texts, sum(len(t) for t in texts)


def test_op_expected_fresh(corpus):
    import make_op_expected as ops

    ids, texts, corpus_len = corpus
    checks = {
        "op_simhash_signatures": ops.serial_simhash(ids, texts),
        "op_lang_id_heuristic": ops.serial_lang_id(ids, texts),
        "op_rolling_fingerprint": ops.serial_rolling_fp(ids, texts),
        "op_winnowing": ops.serial_winnowing(ids, texts),
        "op_winnowing_pairs": ops.serial_winnowing_pairs(ids, texts),
        "op_compression_ratio": ops.serial_compression_ratio(ids, texts),
        "op_media_features": ops.serial_media_features(ids, texts),
        "op_minhash_dedup_pairs": ops.serial_lsh_pairs(
            ids, texts, ops.word_shingles, b"word", 0.8),
        "op_ngram_jaccard_pairs": ops.serial_lsh_pairs(
            ids, texts, ops.char_shingles, b"char", 0.5),
        "op_hll_distinct_tokens": ops.serial_hll_distinct(_langs(), texts),
        "op_kmv_token_quantiles": ops.serial_kmv_quantiles(ids, _langs(), texts),
        "op_cms_heavy_hitters": ops.serial_cms_heavy_hitters(texts),
        "op_media_resize_features": ops.serial_media_resize(ids, texts),
        "op_video_frame_features": ops.serial_video_frames(ids, texts),
        "op_k_core": ops.serial_k_core(texts, len(ids)),
        "op_host_near_dup": ops.serial_host_near_dup(ids, texts),
    }
    word_pairs = checks["op_minhash_dedup_pairs"]
    checks["op_near_dup_clusters"] = ops.serial_union_find_clusters(ids, word_pairs)
    for name, rows in checks.items():
        committed = _committed(name, "corpus_len", corpus_len)
        assert sorted(committed) == sorted(tuple(r) for r in rows), f"{name}: {MSG}"


@needs_reference_lexicon
def test_kg_expected_fresh(corpus):
    import make_kg_expected as kg

    ids, texts, corpus_len = corpus
    raw = kg.serial_triples(SF, bucket=False)
    assert sorted(_committed("kg_triples", "corpus_len", corpus_len)) == \
        sorted(kg.serial_dedup(raw)), f"kg_triples: {MSG}"
    assert sorted(_committed("kg_entities", "corpus_len", corpus_len)) == \
        sorted(kg.serial_canonical(raw)), f"kg_entities: {MSG}"
    assert sorted(_committed("kg_confidence", "corpus_len", corpus_len)) == \
        sorted(kg.serial_confidence(raw)), f"kg_confidence: {MSG}"
    assert sorted(_committed("kg_contexts", "corpus_len", corpus_len)) == \
        sorted(kg.serial_contexts(SF)), f"kg_contexts: {MSG}"
    assert sorted(_committed("kg_snapshot_diff", "corpus_len", corpus_len)) == \
        sorted(kg.serial_snapshot_diff(SF)), f"kg_snapshot_diff: {MSG}"


@needs_reference_lexicon
def test_anchor_expected_fresh():
    import make_kg_expected as kg

    t = pq.read_table(os.path.join(EXPECTED, "op_anchor_phrase_terms.parquet"))
    committed = [tuple(r[c] for c in t.column_names) for r in t.to_pylist()]
    assert sorted(committed) == sorted(kg.serial_anchor_phrase_terms()), \
        f"op_anchor_phrase_terms: {MSG}"


def test_kmeans_expected_fresh():
    import numpy as np
    import make_op_expected as ops

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    vec_ids = t["vec_id"].to_pylist()
    m = np.asarray(t["embedding"].combine_chunks().flatten(),
                   dtype=np.float64).reshape(len(vec_ids), -1)
    tag = int(np.floor(m[:, 0] * 1_000_000).astype(np.int64).sum())
    committed = _committed("op_embedding_kmeans", "emb_checksum", tag)
    assert sorted(committed) == ops.serial_kmeans(vec_ids, m), \
        f"op_embedding_kmeans: {MSG}"
    committed = _committed("op_semantic_dedup", "emb_checksum", tag)
    assert sorted(committed) == ops.serial_semantic_dedup(vec_ids, m), \
        f"op_semantic_dedup: {MSG}"
    committed = _committed("op_knn_graph", "emb_checksum", tag)
    assert sorted(committed) == sorted(ops.serial_knn_graph(vec_ids, m)), \
        f"op_knn_graph: {MSG}"
    committed = _committed("op_rerank_topk", "emb_checksum", tag)
    assert sorted(committed) == sorted(ops.serial_rerank(vec_ids, m)), \
        f"op_rerank_topk: {MSG}"
