"""Skew stress: the hot-key guards proven under adversarial key
distributions, not just coded (VERDICT r3 #4).

Two deterministic skew shapes:
  * a corpus where the hot surface form appears in ~85% of pages
    (``hot_prob=0.5`` per sentence — sources/pages.py) driven through the
    full extract -> match -> canonicalize chain with its extra combine
    round, inflated block counts, and a serial
    match_sample oracle;
  * a documents table where ONE host owns 50% of all docs
    (``docs_per_host = n/2``) driven through ``host_near_dup``'s
    mergeable-MinHash reduce against the serial oracle from
    tools/make_op_expected.py.

Reference for the salting rationale: SURVEY §4.1 (skew row) — the
per-batch combiner is the implicit salt; these tests pin that a 50%-hot
key still reduces exactly.
"""

from __future__ import annotations

import os
import sys

import pandas as pd
import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))


def test_hot_mention_canonicalize_exact_under_skew(ray_session, lexicon):
    """hot_prob=0.5 corpus, 97 tiny blocks (every mention's partial count
    spread over many batches), extra combine round: canonicalization must
    equal the serial match_sample oracle exactly."""
    from lexmapr_ray.pipelines.kg import (broadcast_lexicon,
                                          canonicalize_mentions,
                                          extract_triples)
    from lexmapr_ray.sources.pages import synth_pages_dataset

    n = 800
    ref = broadcast_lexicon(lexicon)
    pages = synth_pages_dataset(n, batch_size=32, hot_prob=0.5).repartition(97)
    triples = extract_triples(pages, ref, concurrency=2, batch_size=32)
    got = canonicalize_mentions(triples).to_pandas().reset_index(drop=True)

    # Serial oracle: count (mention, obj, obj_label) over the triples on
    # the driver and canonicalize with plain pandas.  Extraction
    # correctness itself is pinned by test_end_to_end_triples_match_
    # serial_matcher; what THIS test proves is that the distributed
    # counting/canonicalization reduce is exact when one key owns most of
    # the corpus and its partials span all 97 blocks.
    tdf = triples.to_pandas()
    for c in ("mention", "obj", "obj_label"):
        tdf[c] = tdf[c].astype(str)
    counts = (
        tdf.groupby(["mention", "obj", "obj_label"]).size().reset_index(name="n")
    )
    rows = []
    for mention, grp in counts.groupby("mention"):
        grp = grp.sort_values(["n", "obj"], ascending=[False, True])
        rows.append(dict(
            mention=mention,
            canonical_obj=grp.iloc[0]["obj"],
            canonical_label=grp.iloc[0]["obj_label"],
            n_mentions=int(grp["n"].sum()),
            n_distinct_obj=len(grp),
        ))
    exp = pd.DataFrame(rows).sort_values("mention").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)

    # the skew is real: one surface form (the hot phrase's matched
    # component, "breast") dominates the mention distribution
    top = got.sort_values("n_mentions", ascending=False).iloc[0]
    assert top["n_mentions"] > n  # ~0.5/sentence x 2-6 sentences/page
    assert top["n_mentions"] / got["n_mentions"].sum() > 0.25


def test_boilerplate_winnowing_pairs_exact_under_skew(ray_session, tmp_path):
    """Half the corpus shares one boilerplate prefix: its winnowing
    fingerprints are held by ~n/2 docs, far above max_df — without the
    common-fingerprint elimination (MOSS's common-code drop, which is
    ALSO the hot-bucket guard) the pair explode would be quadratic in the
    hot bucket.  Must match the serial oracle exactly AND stay bounded:
    pair count <= C(max_df, 2) x surviving fingerprints, never ~n²/4."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import make_op_expected as ops
    from lexmapr_ray.stages.dedup import winnowing_dup_pairs

    n = 2000
    boiler = ("shared boilerplate navigation header terms of service "
              "cookie notice subscribe newsletter footer links " * 3)
    texts, ids = [], []
    for i in range(n):
        ids.append(i)
        if i % 2 == 0:
            # boilerplate half: unique tail, pairs ONLY via the hot
            # (dropped) fingerprints -> must not pair at all
            texts.append(boiler + f"unique document body {i} " + " ".join(
                f"tok{i}_{j}" for j in range(12)))
        else:
            # genuine near-dup groups of ~10 docs sharing a long tail:
            # their fingerprints are held by ~10 docs (< max_df) and MUST
            # pair — proves the guard drops the hot bucket, not the signal
            g = i // 20
            texts.append(f"intro {i} " + " ".join(
                f"shared{g}_{j} common phrase body" for j in range(10)))
    sf = tmp_path / "boilsf"
    sf.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   str(sf / "documents.parquet"))

    got = winnowing_dup_pairs(str(sf)).to_pandas()
    exp_rows = ops.serial_winnowing_pairs(ids, texts)
    exp = pd.DataFrame(exp_rows, columns=["doc_a", "doc_b", "n_shared"]) \
        .astype("int64")
    got = got.sort_values(list(got.columns)).reset_index(drop=True)
    exp = exp.sort_values(list(exp.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    # the signal survived (the planted groups pair) ...
    assert len(got) > 0
    # ... and the guard held: no boilerplate (even-doc) pair leaked, and
    # the total stays far below the ~n²/4 hot-bucket explosion
    assert not ((got["doc_a"] % 2 == 0) & (got["doc_b"] % 2 == 0)).any()
    assert len(got) < (n // 2) ** 2 // 8


def test_hot_host_near_dup_exact_under_skew(ray_session, tmp_path):
    """One host owning 50% of all docs (docs_per_host = n/2): the
    mergeable-MinHash grouped min reduce and the banded pair scoring must
    match the serial oracle exactly."""
    import pyarrow.parquet as pq

    import make_op_expected as ops
    from lexmapr_ray.stages.dedup import host_near_dup

    src = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")
    t = pq.read_table(os.path.join(src, "documents.parquet"),
                      columns=["doc_id", "text"])
    n = t.num_rows
    half = max(n // 2, 1)

    sf = tmp_path / "skewsf"
    sf.mkdir()
    pq.write_table(t, str(sf / "documents.parquet"))

    got = host_near_dup(str(sf), docs_per_host=half) \
        .to_pandas().reset_index(drop=True)

    exp_rows = ops.serial_host_near_dup(
        t["doc_id"].to_pylist(), t["text"].to_pylist(), docs_per_host=half)
    exp = pd.DataFrame(exp_rows,
                       columns=["host_a", "host_b", "sig_match_pct"]) \
        .astype({"host_a": "int64", "host_b": "int64",
                 "sig_match_pct": "int64"})
    got = got.sort_values(list(got.columns)).reset_index(drop=True)
    exp = exp.sort_values(list(exp.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
