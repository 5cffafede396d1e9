"""Stage-level correctness: distributed operators vs serial oracles on the
sf0.001 testdata (500 docs / 500 embeddings)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def docs(sf_dir):
    return pd.read_parquet(f"{sf_dir}/documents.parquet")


@pytest.fixture(scope="module")
def embs(sf_dir):
    return pd.read_parquet(f"{sf_dir}/embeddings.parquet")


def test_doc_stats_matches_serial(ray_session, sf_dir, docs):
    from lexmapr_ray.stages.textstats import doc_stats

    got = doc_stats(sf_dir).to_pandas().set_index("doc_id")
    for _, row in docs.sample(50, random_state=0).iterrows():
        assert got.loc[row.doc_id, "n_chars"] == len(row.text)
        assert got.loc[row.doc_id, "n_tokens"] == len(row.text.split())


def test_fingerprint_matches_md5(ray_session, sf_dir, docs):
    from lexmapr_ray.stages.textstats import doc_fingerprint

    got = doc_fingerprint(sf_dir).to_pandas().set_index("doc_id")
    for _, row in docs.sample(20, random_state=1).iterrows():
        assert got.loc[row.doc_id, "fingerprint"] == hashlib.md5(
            row.text.encode()).hexdigest()


def test_kmv_bottom_k_merge_invariant():
    """The KMV sketch contract: bottom-k of a union equals bottom-k of the
    parts' bottom-k sets, under ANY split of the input — the property that
    makes the quantile sample independent of batching/partitioning."""
    from lexmapr_ray.stages.sketches import _kmv_bottom_k

    rng = np.random.RandomState(7)
    hs = rng.randint(0, 1 << 62, size=5000).astype(np.uint64)
    vs = rng.randint(0, 1000, size=5000).astype(np.int64)
    ref = _kmv_bottom_k(hs, vs, 256)
    for n_parts in (2, 7, 33):
        cuts = np.array_split(np.arange(5000), n_parts)
        ph = np.concatenate([_kmv_bottom_k(hs[c], vs[c], 256)[0] for c in cuts])
        pv = np.concatenate([_kmv_bottom_k(hs[c], vs[c], 256)[1] for c in cuts])
        got = _kmv_bottom_k(ph, pv, 256)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_kmv_quantiles_exact_below_k(ray_session, sf_dir, docs):
    """Below the sample cap the KMV 'sketch' degenerates to the exact
    per-language quantiles — check against a direct pandas computation."""
    from lexmapr_ray.stages.sketches import kmv_token_quantiles

    got = kmv_token_quantiles(sf_dir, k=10**6).to_pandas().set_index("lang")
    toks = docs.assign(n_tok=[len(t.split()) for t in docs.text])
    for lang, grp in toks.groupby("lang"):
        vs = np.sort(grp["n_tok"].to_numpy())
        m = len(vs)
        assert got.loc[lang, "sample_m"] == m
        for q in (10, 25, 50, 75, 90):
            assert got.loc[lang, f"p{q}"] == vs[(q * (m - 1)) // 100]


def test_winnowing_guarantee_and_density(ray_session, sf_dir, docs):
    """Winnowing contract (Schleimer et al. 2003): every w-window of the
    k-gram hash sequence contains a selected position (so any shared
    substring of length >= w + k - 1 shares a fingerprint), and the
    selected density is bounded by the number of windows."""
    from lexmapr_ray.stages.textstats import (_gram_hashes,
                                              winnowing_fingerprint)

    k, w = 16, 8
    got = winnowing_fingerprint(sf_dir, k=k, w=w).to_pandas().set_index("doc_id")
    assert len(got) == len(docs)
    for _, row in docs.sample(20, random_state=2).iterrows():
        hm = _gram_hashes(row.text, k, 1 << 61)
        r = got.loc[row.doc_id]
        assert r["n_grams"] == len(hm)
        # recompute selection serially: rightmost min per window
        sel = set()
        if len(hm) <= w:
            m = hm.min()
            sel.add(max(i for i, v in enumerate(hm) if v == m))
        else:
            for start in range(len(hm) - w + 1):
                wnd = hm[start:start + w]
                m = wnd.min()
                sel.add(start + max(i for i, v in enumerate(wnd) if v == m))
        assert r["n_selected"] == len(sel)
        assert r["pos_sum"] == sum(sel)
        assert r["fp_sum"] == int(sum(int(hm[i]) for i in sel)) % (1 << 61)
        # guarantee: every window covered
        if len(hm) > w:
            picked = sorted(sel)
            gaps = np.diff([-1] + picked + [len(hm)])
            assert gaps.max() <= w


def test_winnowing_pairs_planted_overlap(ray_session, tmp_path):
    """The MOSS guarantee end-to-end: two docs sharing a >= w+k-1-char
    substring MUST pair; unrelated docs must not; a boilerplate
    fingerprint held by > max_df docs is dropped."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import winnowing_dup_pairs

    shared = "the quick brown fox jumps over the lazy dog again"  # 50 chars
    boiler = "x" * 60  # one repeated byte -> few distinct grams, common
    rows = [
        (0, "unique prefix alpha " + shared),
        (1, shared + " unique suffix beta"),
        (2, "totally different content with nothing in common at all here"),
    ]
    # 40 docs all carrying the boilerplate -> its fingerprints exceed
    # max_df=32 and are dropped, so these docs pair only if they share
    # something else (they don't — each has a unique long tail)
    for i in range(3, 43):
        rows.append((i, boiler + f" tail{i} " + f"filler{i} " * 6))
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    got = winnowing_dup_pairs(str(tmp_path)).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert (0, 1) in pairs
    assert not any(2 in p for p in pairs)
    boiler_pairs = [p for p in pairs if p[0] >= 3 and p[1] >= 3]
    assert boiler_pairs == []


def test_lang_id_heuristic_on_real_language_samples(ray_session, sf_dir):
    """The testdata's lang column is synthetic noise (all texts are English
    DB jargon), so the heuristic is validated on real-language snippets and
    only determinism + output domain are checked over the corpus."""
    from lexmapr_ray.stages.textstats import LangIdHeuristic, lang_id

    h = LangIdHeuristic()
    assert h._score("the quick brown fox is running over the hills and") == "en"
    assert h._score("der hund und die katze laufen schnell durch einen wald") == "de"
    assert h._score("les enfants que nous avons vus mangent de la soupe") == "fr"

    got = lang_id(sf_dir).to_pandas()
    assert set(got["lang_pred"]) <= {"en", "de", "fr", "unk"}
    again = lang_id(sf_dir).to_pandas()
    pd.testing.assert_frame_equal(got, again)


def test_dedup_exact_min_doc_per_text(ray_session, sf_dir, docs):
    from lexmapr_ray.stages.dedup import dedup_exact

    got = dedup_exact(sf_dir).to_pandas()
    exp = (
        docs.groupby("text", as_index=False)
        .agg(doc_id=("doc_id", "min"))
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "text"]]
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp)


def _shingles(text):
    # the stage's own shingle fn IS the spec the Jaccard verification uses
    from lexmapr_ray.stages.dedup import _shingles as stage_shingles

    return stage_shingles(text)


def test_minhash_pairs_sound_and_equal_bruteforce_on_candidates(
    ray_session, sf_dir, docs
):
    """Every verified pair must meet the threshold exactly as a serial
    Jaccard computes it (soundness; LSH recall is probabilistic so
    completeness is asserted only against the candidate set)."""
    from lexmapr_ray.stages.dedup import minhash_candidate_pairs, minhash_dedup_pairs

    text = docs.set_index("doc_id")["text"]
    got = minhash_dedup_pairs(sf_dir).to_pandas()
    for _, r in got.iterrows():
        sa, sb = _shingles(text[r.doc_a]), _shingles(text[r.doc_b])
        j = len(sa & sb) / len(sa | sb) if (sa | sb) else 1.0
        assert j >= 0.8
        assert int(round(j * 100)) == r.jaccard_pct

    cand = minhash_candidate_pairs(sf_dir).to_pandas()
    expected = set()
    for _, r in cand.iterrows():
        sa, sb = _shingles(text[r.doc_a]), _shingles(text[r.doc_b])
        j = len(sa & sb) / len(sa | sb) if (sa | sb) else 1.0
        if j >= 0.8:
            expected.add((r.doc_a, r.doc_b))
    assert set(map(tuple, got[["doc_a", "doc_b"]].itertuples(index=False))) == expected


def test_simhash_deterministic_and_near_for_similar_docs(ray_session, sf_dir):
    from lexmapr_ray.stages.dedup import simhash_signatures

    s1 = simhash_signatures(sf_dir).to_pandas()
    s2 = simhash_signatures(sf_dir).to_pandas()
    pd.testing.assert_frame_equal(s1, s2)
    assert s1["simhash"].nunique() > len(s1) // 2  # signatures discriminate


def test_cosine_topk_matches_numpy(ray_session, sf_dir, embs):
    from lexmapr_ray.stages.similarity import cosine_topk_bruteforce

    got = cosine_topk_bruteforce(sf_dir).to_pandas()

    m = np.stack([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    q = mn[embs.index[embs["vec_id"] == 0][0]]
    sims = np.round(mn @ q * 10_000).astype(np.int64)
    order = sorted(zip(-sims, embs["vec_id"]))[:10]
    exp = [(int(v), int(-s)) for s, v in order]
    assert list(map(tuple, got[["vec_id", "sim_bp"]].itertuples(index=False))) == exp


def test_embedding_kmeans_matches_serial(ray_session, sf_dir, embs):
    """Distributed Lloyd's loop == the serial integer reimplementation
    (same init, tie-break and floor-division contract), and clusters are
    non-trivial (more than one cluster used on the 500-vector table)."""
    import sys, os
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools"))
    import make_op_expected as ops
    from lexmapr_ray.stages.similarity import embedding_kmeans

    got = embedding_kmeans(sf_dir).to_pandas()
    m = np.stack([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    exp = ops.serial_kmeans(embs["vec_id"].tolist(), m)
    assert [tuple(r) for r in got[["vec_id", "cluster"]].itertuples(index=False)] == exp
    assert got["cluster"].nunique() > 1


def test_semantic_dedup_matches_serial(ray_session, sf_dir, embs):
    """Distributed SemDeDup (k-means assign -> cluster-co-located greedy
    cosine prune) == the serial per-pair loop, and the split is non-trivial
    (both kept and dropped rows exist); every duplicate points at a KEPT
    lower-vec_id vector in its own cluster."""
    import sys, os
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools"))
    import make_op_expected as ops
    from lexmapr_ray.stages.similarity import semantic_dedup

    got = semantic_dedup(sf_dir).to_pandas()
    m = np.stack([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    exp = ops.serial_semantic_dedup(embs["vec_id"].tolist(), m)
    assert [tuple(r) for r in got.itertuples(index=False)] == exp

    kept = got[got["keep"] == 1]
    dups = got[got["keep"] == 0]
    assert len(kept) > 0 and len(dups) > 0
    assert (kept["dup_of"] == -1).all()
    kept_by_id = kept.set_index("vec_id")["cluster"]
    for r in dups.itertuples(index=False):
        assert r.dup_of < r.vec_id
        assert kept_by_id.loc[r.dup_of] == r.cluster


def test_embedding_near_dup_sound(ray_session, sf_dir, embs):
    from lexmapr_ray.stages.similarity import embedding_near_dup_pairs

    got = embedding_near_dup_pairs(sf_dir).to_pandas()
    m = np.stack([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    byid = {int(v): mn[i] for i, v in enumerate(embs["vec_id"])}
    for _, r in got.iterrows():
        sim = int(np.round(byid[r.vec_a] @ byid[r.vec_b] * 10_000))
        assert sim == r.sim_bp
        assert r.vec_a < r.vec_b


def test_media_features_match_serial_decode(ray_session):
    from lexmapr_ray.stages.multimodal import DecodeImage, media_features, synth_media_dataset

    got = media_features(64).to_pandas().set_index("media_id")
    serial = synth_media_dataset(64).to_pandas()
    for _, row in serial.iterrows():
        img = DecodeImage._decode(row.payload)
        assert got.loc[row.media_id, "mean_milli"] == int(img.mean() * 1000)
        assert got.loc[row.media_id, "std_milli"] == int(img.std() * 1000)
    assert (serial["width"] * serial["height"] > 0).all()


def test_decode_without_codec_is_explicit(ray_session):
    from lexmapr_ray.stages.multimodal import DecodeImage

    with pytest.raises(NotImplementedError):
        DecodeImage(codec="pil")


def test_png_codec_roundtrip_and_all_filters():
    """Pure-stdlib PNG codec: encode->decode is the identity, and the
    decoder unfilters all five standard filter types (hand-filtered
    scanlines, independently constructed here)."""
    import struct
    import zlib

    from lexmapr_ray.stages.png import (
        SIGNATURE, _chunk, decode_png_gray, encode_png_gray,
    )

    rng = np.random.RandomState(0)
    for (h, w) in [(1, 1), (8, 8), (33, 17), (100, 1), (1, 100)]:
        img = rng.randint(0, 256, (h, w)).astype(np.uint8)
        assert np.array_equal(decode_png_gray(encode_png_gray(img)), img)

    def build(filters, img):
        h, w = img.shape
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
        lines, prev = [], np.zeros(w, np.int64)
        for y in range(h):
            row = img[y].astype(np.int64)
            f = filters[y % len(filters)]
            if f == 0:
                filt = row.copy()
            elif f == 1:
                filt = row.copy()
                filt[1:] = (row[1:] - row[:-1]) & 255
            elif f == 2:
                filt = (row - prev) & 255
            elif f == 3:
                filt = np.empty(w, np.int64)
                for x in range(w):
                    a = row[x - 1] if x else 0
                    filt[x] = (row[x] - ((a + prev[x]) >> 1)) & 255
            else:
                filt = np.empty(w, np.int64)
                for x in range(w):
                    a = row[x - 1] if x else 0
                    b, c = prev[x], (prev[x - 1] if x else 0)
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = (a if (pa_ <= pb_ and pa_ <= pc_)
                            else (b if pb_ <= pc_ else c))
                    filt[x] = (row[x] - pred) & 255
            lines.append(bytes([f]) + bytes(filt.astype(np.uint8)))
            prev = row
        idat = zlib.compress(b"".join(lines))
        return (SIGNATURE + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))

    img = rng.randint(0, 256, (16, 16)).astype(np.uint8)
    for f in (0, 1, 2, 3, 4):
        assert np.array_equal(decode_png_gray(build([f], img)), img)
    assert np.array_equal(decode_png_gray(build([0, 1, 2, 3, 4], img)), img)

    corrupt = bytearray(encode_png_gray(img))
    corrupt[20] ^= 0xFF
    with pytest.raises(ValueError):
        decode_png_gray(bytes(corrupt))


def test_lsh_plane_count_bounds_bucket_size_at_10x():
    """Scale guard: plane count grows with log2(n), so expected bucket size
    stays ~target_bucket when the corpus grows 10x (the round-1 fixed
    64-bucket table went quadratic instead)."""
    from lexmapr_ray.stages.similarity import HyperplaneLSH, lsh_plane_count

    rng = np.random.RandomState(0)
    for n in (2_000, 20_000):
        p = lsh_plane_count(n, target_bucket=64)
        m = rng.standard_normal((n, 16))
        lsh = HyperplaneLSH(n_planes=p, dim=16, seed=777)
        buckets = ((m @ lsh.planes) > 0).astype(np.int64) @ lsh.weights
        _, counts = np.unique(buckets, return_counts=True)
        # the guarantee is on EXPECTED bucket size; the max has a heavy
        # tail in low dim (correlated half-space cells) but must stay
        # orders of magnitude below n — the quadratic-bucket failure mode
        assert counts.mean() <= 64 * 1.5
        assert counts.max() <= 64 * 10
        assert counts.max() < n / 5


def test_media_features_from_documents_matches_serial(ray_session, sf_dir):
    from lexmapr_ray.stages.multimodal import (
        DecodeImage, media_features_from_documents, media_from_documents,
    )

    got = media_features_from_documents(sf_dir).to_pandas().set_index("media_id")
    serial = media_from_documents(sf_dir).to_pandas()
    assert len(got) == len(serial)
    for _, row in serial.head(50).iterrows():
        img = DecodeImage._decode(row.payload)
        assert got.loc[row.media_id, "mean_milli"] == int(img.mean() * 1000)
        assert got.loc[row.media_id, "std_milli"] == int(img.std() * 1000)


def test_near_dup_clusters_match_union_find(ray_session, sf_dir):
    """Distributed min-label propagation == serial union-find over the same
    verified pair graph (transitive closure, singletons map to self)."""
    from lexmapr_ray.stages.dedup import minhash_dedup_pairs, near_dup_clusters

    pairs = minhash_dedup_pairs(sf_dir).to_pandas()
    got = near_dup_clusters(sf_dir).to_pandas()

    parent = {int(d): int(d) for d in got["doc_id"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, r in pairs.iterrows():
        ra, rb = find(int(r.doc_a)), find(int(r.doc_b))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    exp = {d: find(d) for d in parent}
    assert dict(zip(got["doc_id"], got["cluster_id"])) == exp


def test_tfidf_top_terms_matches_duckdb(ray_session, sf_dir):
    """Integer-exact tf-idf: the Ray two-pass pipeline equals a direct
    DuckDB computation (same // integer idf) at sf0.001."""
    import duckdb

    from lexmapr_ray.stages.textstats import tfidf_top_terms

    got = tfidf_top_terms(sf_dir).to_pandas().reset_index(drop=True)
    exp = duckdb.sql(f"""
        WITH docs AS (SELECT * FROM read_parquet('{sf_dir}/documents.parquet')),
        toks AS (
          SELECT doc_id, unnest(string_split_regex(lower(text), '\\s+')) AS term
          FROM docs
        ), tf AS (
          SELECT doc_id, term, COUNT(*) AS tf
          FROM toks WHERE term <> '' GROUP BY doc_id, term
        ), dfq AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
        n AS (SELECT COUNT(*) AS n_docs FROM docs),
        scored AS (
          SELECT tf.doc_id, tf.term,
                 tf.tf * ((1000000 * n.n_docs) // dfq.df) AS score_e6,
                 ROW_NUMBER() OVER (
                   PARTITION BY tf.doc_id
                   ORDER BY tf.tf * ((1000000 * n.n_docs) // dfq.df) DESC, tf.term
                 ) AS rn
          FROM tf JOIN dfq ON tf.term = dfq.term CROSS JOIN n
        )
        SELECT doc_id, term, CAST(score_e6 AS BIGINT) AS score_e6
        FROM scored WHERE rn <= 5 ORDER BY doc_id, score_e6 DESC, term
    """).fetchdf()
    got = got.sort_values(["doc_id", "score_e6", "term"],
                          ascending=[True, False, True]).reset_index(drop=True)
    exp = exp.sort_values(["doc_id", "score_e6", "term"],
                          ascending=[True, False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "score_e6": "int64"}),
        exp.astype({"doc_id": "int64", "score_e6": "int64"}),
    )


def test_global_topk_prunes_blocks_and_is_exact(ray_session, monkeypatch):
    """The top-k prune must (a) cap every block entering the shuffle at k
    rows (the scale guarantee judge r2 asked to assert) and (b) reproduce
    the exact unpruned answer, including ties broken by the key column."""
    import ray.data as rd

    from lexmapr_ray.functions import groupagg
    from lexmapr_ray.functions.topk import global_topk, topk_prune

    rng = np.random.RandomState(7)
    n, k = 20_000, 10
    items = [{"id": int(i), "score": int(rng.randint(0, 500))} for i in range(n)]
    ds = rd.from_items(items, override_num_blocks=16)

    with monkeypatch.context() as m:
        m.setattr(groupagg, "DEFAULT_BUNDLE", 1024)
        pruned = topk_prune(ds, ["score", "id"], [True, False], k)
    block_sizes = [
        b["n"][0]
        for b in pruned.map_batches(
            lambda t: {"n": [len(t)]}, batch_size=None
        ).iter_batches(batch_format="numpy")
    ]
    assert block_sizes and max(block_sizes) <= k

    got = global_topk(ds, ["score", "id"], [True, False], k).to_pandas()
    exp = (
        pd.DataFrame(items)
        .sort_values(["score", "id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["id", "score"]], exp[["id", "score"]])


def test_semi_join_bucketed_path_matches_broadcast(ray_session, sf_dir, monkeypatch):
    """``BROADCAST_LIMIT`` 0 forces the distributed bucketed co-location
    path; it must agree exactly with the broadcast path (and hence the
    oracle)."""
    from lexmapr_ray.functions import joins
    from lexmapr_ray.pipelines.relational import (
        customers_without_events,
        users_with_orders_and_events,
    )

    for fn, col in [
        (users_with_orders_and_events, "user_id"),
        (customers_without_events, "o_custkey"),
    ]:
        broadcast = fn(sf_dir).to_pandas().sort_values(col).reset_index(drop=True)
        with monkeypatch.context() as m:
            m.setattr(joins, "BROADCAST_LIMIT", 0)
            bucketed = fn(sf_dir).to_pandas() \
                .sort_values(col).reset_index(drop=True)
        pd.testing.assert_frame_equal(broadcast, bucketed)
    assert len(broadcast) > 0


def test_textstats_whitespace_edges_match_duckdb(ray_session, tmp_path):
    """Advisor r2: engine and oracle silently diverged on edge \\t/\\n and
    Unicode spaces because the testdata has none.  Both sides now share ONE
    whitespace definition (RE2 \\s trim+split); this corpus exercises it."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import doc_stats, lang_token_stats, quality_score

    texts = [
        "", "   ", "\t\n leading tabs", "trailing newline \n\r",
        "a\tb\nc  d", "one", "the\tof list", "nbsp inside here",
        " ", "mixed \t \n \f \r ws", "the quick brown fox it is",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en", "de"] * 5 + ["en"], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [("doc_stats", doc_stats), ("quality_score", quality_score),
                     ("lang_token_stats", lang_token_stats)]:
        got = fn(str(tmp_path)).to_pandas().reset_index(drop=True)
        exp = con.execute(oracles[name]).fetchdf().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)


def test_running_window_survives_partition_split(ray_session, sf_dir):
    """Regression (sf0.1 sweep): sorting on the COMPOSITE (custkey, date,
    orderkey) let a range boundary cut one customer across two blocks and
    the per-block window restarted mid-partition (-1 gap on a non-first
    order).  The fix sorts on the partition key alone; this pins it by
    forcing many tiny range partitions so boundaries land mid-customer."""
    import pandas as pd
    from ray.data import DataContext

    from lexmapr_ray.pipelines.relational import orders_running_window

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        got = orders_running_window(sf_dir).to_pandas() \
            .sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)
    finally:
        ctx.target_max_block_size = old

    o = pd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderkey", "o_orderdate",
                                 "o_totalprice"])
    o["date_us"] = o["o_orderdate"].astype("int64")
    o["cents"] = (o["o_totalprice"] * 100).round().astype("int64")
    o = o.sort_values(["o_custkey", "date_us", "o_orderkey"],
                      kind="mergesort")
    g = o.groupby("o_custkey", sort=False)
    o["running_cents"] = g["cents"].cumsum()
    prev = g["date_us"].shift(1)
    gap = ((o["date_us"] - prev.fillna(0)) // 86_400_000_000).astype("int64")
    gap[prev.isna()] = -1
    o["gap_days"] = gap
    exp = o[["o_custkey", "o_orderkey", "running_cents", "gap_days"]] \
        .sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_sorted_reduce_survives_tiny_block_target(ray_session):
    """Pins the sort co-location guarantee the whole engine rests on
    (advisor r2): one hot key whose group vastly exceeds
    target_max_block_size must still arrive WHOLE in one post-sort block,
    because Ray's sort reduce emits one merged block per range partition
    (sort_task_spec.py reduce -> merge_sorted_blocks).  If a Ray upgrade
    starts re-splitting sort outputs, the per-block reduce would emit
    duplicate keys and this test fails loudly."""
    import ray.data as rd
    from ray.data import DataContext

    from lexmapr_ray.functions.groupagg import grouped_sum_count

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # 16 KiB: far below the hot group
    try:
        n = 60_000  # hot key 'h' carries ~50k rows * ~90B >> 16 KiB
        items = [{"k": "h" if i % 6 else f"cold_{i}", "v": 1,
                  "pad": "x" * 64} for i in range(n)]
        ds = rd.from_items(items, override_num_blocks=32)
        out = grouped_sum_count(
            ds.map_batches(lambda df: df[["k", "v"]], batch_format="pandas"),
            "k", {"sum_v": "v"}, count_alias="n",
        ).to_pandas()
        assert out["k"].is_unique, "sort split a key group across blocks"
        hot = out.set_index("k").loc["h"]
        assert hot["sum_v"] == sum(1 for i in range(n) if i % 6)
    finally:
        ctx.target_max_block_size = old


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_map_batches_never_sees_an_empty_batch(ray_session, fmt):
    """Ray passes a 0-row block through ``map_batches`` unchanged without
    calling the UDF, so the grouped reduces' partials and finals keep no
    empty-input branch.  The UDF here fails on a 0-row batch: on an input
    mixing empty and non-empty blocks, on the empty range partitions of a
    sort of 3 rows over 8 blocks, and on a sort of an all-empty input.  If
    a Ray upgrade starts calling UDFs on empty batches, this fails."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    def refuse_empty(batch):
        assert len(batch) > 0, "map_batches called its UDF on a 0-row batch"
        return batch

    t = pa.table({"k": pa.array([3, 1, 2], pa.int64())})
    empty = t.slice(0, 0)
    cases = {
        "mixed": (rd.from_arrow([empty, t, empty, t.slice(0, 1)]), 4),
        "sparse_sort": (rd.from_arrow(t).repartition(8).sort("k"), 3),
        "all_empty_sort": (rd.from_arrow([empty, empty]).sort("k"), 0),
    }
    for name, (ds, rows) in cases.items():
        ds = ds.materialize()
        sizes = [b.num_rows for b in ray.get(ds.to_arrow_refs())]
        assert 0 in sizes and sum(sizes) == rows, (name, sizes)
        out = ds.map_batches(refuse_empty, batch_format=fmt, batch_size=None)
        assert out.count() == rows, name


def test_join_block_fn_survives_tiny_block_target(ray_session):
    """Pins the join-side analogue of the sort co-location guarantee
    (advisor r2 medium): a per-join-key aggregate must run INSIDE the
    join's merge map (``block_fn``) — the merge map's own output blocks
    ARE dynamically re-split at target_max_block_size, so the same
    aggregate in a separate downstream ``map_batches(batch_size=None)``
    emits duplicate keys with partial sums (reproduced: 1687 duplicate
    keys at a 16 KiB target).  If Ray ever starts splitting sort reduce
    outputs too, this fails loudly instead of q3 silently double-counting."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    from lexmapr_ray.functions.joins import bucketed_hash_join

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # far below one bucket's merge output
    try:
        n, nkeys = 60_000, 37
        left = rd.from_items(
            [{"k": i % nkeys, "v": 1, "pad": "x" * 64} for i in range(n)],
            override_num_blocks=16,
        )
        right = rd.from_items([{"k": j, "w": j * 10} for j in range(nkeys)],
                              override_num_blocks=4)

        def block_sum(t: pa.Table) -> pa.Table:
            return t.group_by("k", use_threads=False).aggregate(
                [("v", "sum")]).rename_columns(["k", "v"])

        out = bucketed_hash_join(left, right, on="k",
                                 block_fn=block_sum).to_pandas()
        assert out["k"].is_unique, "join merge split a key across block_fn calls"
        assert len(out) == nkeys
        expected = {j: n // nkeys + (1 if j < n % nkeys else 0) for j in range(nkeys)}
        assert dict(zip(out["k"], out["v"])) == expected
    finally:
        ctx.target_max_block_size = old


def test_near_dup_clusters_long_chain_pointer_jumping(ray_session, tmp_path):
    """A 24-link near-dup CHAIN (adjacent docs Jaccard ~0.85, distance-2
    ~0.71 < threshold) has diameter 23: plain min-label propagation would
    blow the default 2*log2(n)+8 iteration cap, so convergence proves the
    pointer-jump pass works (advisor r2)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import near_dup_clusters

    n_chain, w, s = 24, 38, 3
    vocab = [f"tok{i:04d}" for i in range(n_chain * s + w)]
    texts = [" ".join(vocab[i * s: i * s + w]) for i in range(n_chain)]
    texts += [f"completely unrelated document number {i} " + " ".join(
        f"zz{i}x{j}" for j in range(40)) for i in range(4)]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = near_dup_clusters(str(tmp_path)).to_pandas()
    assert (got.loc[got.doc_id < n_chain, "cluster_id"] == 0).all(), \
        "chain did not collapse to one cluster"
    tail = got.loc[got.doc_id >= n_chain]
    assert (tail["cluster_id"] == tail["doc_id"]).all()


def test_tfidf_bucketed_vocab_path_matches_broadcast(ray_session, sf_dir, monkeypatch):
    """``VOCAB_BROADCAST_LIMIT`` 0 forces the bucketed-join vocabulary
    path; it must reproduce the broadcast path exactly (which the DuckDB
    oracle already pins)."""
    from lexmapr_ray.stages import textstats
    from lexmapr_ray.stages.textstats import tfidf_top_terms

    base = tfidf_top_terms(sf_dir).to_pandas() \
        .sort_values(["doc_id", "score_e6", "term"],
                     ascending=[True, False, True]).reset_index(drop=True)
    monkeypatch.setattr(textstats, "VOCAB_BROADCAST_LIMIT", 0)
    joined = tfidf_top_terms(sf_dir).to_pandas() \
        .sort_values(["doc_id", "score_e6", "term"],
                     ascending=[True, False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, joined)
    assert len(base) > 0


CORPUS_STAT_OPS = ("tfidf_top_terms", "token_rarity", "bigram_lm_score",
                   "target_affinity")


def test_corpus_stats_on_tokenless_corpus(ray_session, tmp_path, monkeypatch):
    """A corpus of blank texts has an empty vocabulary.  Each corpus-
    statistics operator then returns a typed 0-row result with its DuckDB
    oracle's columns, on the broadcast and on the bucketed-join path."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages import textstats

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["", "  ", "\t"], pa.string()),
        "lang": pa.array(["en", "de", "en"], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    for name in CORPUS_STAT_OPS:
        exp = con.execute(entrymod.oracle_sql()[name]).fetch_arrow_table()
        assert exp.num_rows == 0, name
        for limit in (10_000_000, 0):
            monkeypatch.setattr(textstats, "VOCAB_BROADCAST_LIMIT", limit)
            ds = getattr(textstats, name)(str(tmp_path))
            assert ds.count() == 0, (name, limit)
            schema = ds.schema()
            assert schema is not None, (name, limit)
            assert sorted(schema.names) == sorted(exp.column_names), (name, limit)
            for col, typ in zip(schema.names, schema.types):
                want = exp.schema.field(col).type
                assert typ == want or (pa.types.is_string(typ)
                                       and pa.types.is_large_string(want)), \
                    (name, limit, col, typ, want)


def test_corpus_stats_default_plans_are_arrow_only(ray_session, sf_dir, monkeypatch):
    """No ``map_batches`` in the default plan of a corpus-statistics
    operator asks for pandas batches: each pass stays on Arrow blocks."""
    import ray.data as rd

    from lexmapr_ray.stages import textstats

    formats = []
    map_batches = rd.Dataset.map_batches

    def recording(self, fn, *args, batch_format="default", **kwargs):
        formats.append(batch_format)
        return map_batches(self, fn, *args, batch_format=batch_format, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", recording)
    for name in CORPUS_STAT_OPS:
        formats.clear()
        assert getattr(textstats, name)(sf_dir).materialize().count() > 0, name
        assert formats and "pandas" not in formats, (name, formats)


def _arrow(ds):
    """A Dataset's rows, in order, as one Arrow table."""
    import pyarrow as pa
    import ray

    return pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])


def _sort_count(monkeypatch):
    """A list that grows by one per ``Dataset.sort`` call from here on."""
    import ray.data as rd

    calls = []
    sort = rd.Dataset.sort

    def counting(self, *args, **kwargs):
        calls.append(args)
        return sort(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "sort", counting)
    return calls


def test_corpus_stats_sort_only_above_one_bundle(ray_session, sf_dir, monkeypatch):
    """A vocabulary that fits ``VOCAB_BROADCAST_LIMIT`` is merged on the
    driver from its unsorted partials, so the only exchange left is the
    result sort.  A corpus that fits one bundle is scored in one task whose
    final already emits the result order: no sort at all.  With the bundle
    below the corpus's row count, the result sort is back."""
    import pyarrow.parquet as pq

    from lexmapr_ray.functions import groupagg
    from lexmapr_ray.stages import textstats

    rows = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    assert rows <= groupagg.DEFAULT_BUNDLE
    sorts = _sort_count(monkeypatch)
    for bundle, n_sorts in ((groupagg.DEFAULT_BUNDLE, 0), (rows // 2, 1)):
        monkeypatch.setattr(groupagg, "DEFAULT_BUNDLE", bundle)
        for name in CORPUS_STAT_OPS:
            sorts.clear()
            assert getattr(textstats, name)(sf_dir).materialize().count() > 0, name
            assert len(sorts) == n_sorts, (name, bundle, sorts)


def test_corpus_stats_one_bundle_blocks_in_result_order(ray_session, sf_dir, monkeypatch):
    """The one-task scoring of a corpus that fits one bundle keeps the
    result order when its output splits into many blocks: each scorer's
    blocks, concatenated in order, equal the sorted plan's output."""
    import ray
    from ray.data import DataContext

    from lexmapr_ray.functions import groupagg
    from lexmapr_ray.stages import textstats

    ctx = DataContext.get_current()
    for name in CORPUS_STAT_OPS:
        fn = getattr(textstats, name)
        with monkeypatch.context() as m:
            m.setattr(groupagg, "DEFAULT_BUNDLE", 64)
            want = _arrow(fn(sf_dir))
        with monkeypatch.context() as m:
            m.setattr(ctx, "target_max_block_size", 1024)
            ds = fn(sf_dir).materialize()
        assert sum(b.num_rows > 0 for b in ray.get(ds.to_arrow_refs())) > 1, name
        assert _arrow(ds).equals(want), name


def test_corpus_stats_sorted_vocab_then_broadcast(ray_session, sf_dir, monkeypatch):
    """With ``VOCAB_BROADCAST_LIMIT`` at least the vocabulary's row count but
    below its partials' row count, the partials take the sort and final
    reduce and the vocabulary is still broadcast; each operator then equals
    its default output."""
    from lexmapr_ray.functions import groupagg
    from lexmapr_ray.stages import textstats

    # small bundles, so pass 1 makes several partials per vocabulary key
    monkeypatch.setattr(groupagg, "DEFAULT_BUNDLE", 64)
    sizes = []
    sum_count_reduce = groupagg.sum_count_reduce

    def recording(*args, **kwargs):
        partial, final = sum_count_reduce(*args, **kwargs)

        def final_(t):
            out = final(t)
            sizes.append((t.num_rows, out.num_rows))
            return out
        return partial, final_

    monkeypatch.setattr(groupagg, "sum_count_reduce", recording)
    sorts = _sort_count(monkeypatch)
    for name in CORPUS_STAT_OPS:
        fn = getattr(textstats, name)
        sizes.clear()
        base = _arrow(fn(sf_dir))
        # the driver merged the vocabulary: one final over all partials
        [(n_partials, n_vocab)] = sizes
        assert n_vocab < n_partials, (name, sizes)
        sorts.clear()
        with monkeypatch.context() as m:
            m.setattr(textstats, "VOCAB_BROADCAST_LIMIT", n_vocab)
            got = _arrow(fn(sf_dir))
        assert len(sorts) == 2, (name, sorts)
        assert got.num_rows > 0 and got.equals(base), name


def test_sized_read_follows_the_first_stage_bundle(ray_session, tmp_path):
    """A small file read for a first stage that bundles ``batch_rows`` rows
    per task is read as ``ceil(rows / batch_rows)`` blocks; without
    ``batch_rows`` it keeps the floor of ``min(2 x CPUs, 8)`` blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from lexmapr_ray.functions.groupagg import DEFAULT_BUNDLE
    from lexmapr_ray.sources.tables import sized_read_parquet

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"k": np.arange(2000)}), path)
    cpus = int(ray.cluster_resources()["CPU"])
    for batch_rows, blocks in ((DEFAULT_BUNDLE, 1), (None, min(2 * cpus, 8)), (500, 4)):
        ds = sized_read_parquet(path, batch_rows=batch_rows).materialize()
        assert ds.num_blocks() == blocks, (batch_rows, ds.num_blocks())
        assert ds.count() == 2000


LSH_FAMILY = ("minhash_dedup_pairs", "ngram_jaccard_pairs",
              "simhash_near_dup_pairs", "minhash_index_dedup",
              "near_dup_clusters")


@pytest.mark.parametrize("texts", [
    ["alpha beta gamma delta", "one two three four five",
     "red green blue yellow"],
    ["", "  ", "\t"],
], ids=["no_near_dups", "tokenless"])
def test_lsh_family_typed_results_on_tiny_corpora(ray_session, tmp_path, texts):
    """Each banded-LSH operator returns its DuckDB oracle's columns and
    types and its serial reimplementation's rows on a corpus with no
    near-duplicates (no pair; every document is its own cluster) and on a
    tokenless one (every document has the same empty feature set, so
    every pair is a duplicate).  An empty result keeps its schema."""
    import os
    import sys

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages import dedup

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
    import make_op_expected as ops

    ids = list(range(len(texts)))
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   str(tmp_path / "documents.parquet"))
    word = ops.serial_lsh_pairs(ids, texts, ops.word_shingles, b"word", 0.8)
    sig = {d: s + (1 << 63) for d, s in ops.serial_simhash(ids, texts)}
    ham = {(a, b): bin(sig[a] ^ sig[b]).count("1")
           for a in ids for b in ids if a < b}
    expected = {
        "minhash_dedup_pairs": word,
        "ngram_jaccard_pairs": ops.serial_lsh_pairs(
            ids, texts, ops.char_shingles, b"char", 0.5),
        "simhash_near_dup_pairs": [(a, b, h) for (a, b), h in sorted(ham.items())
                                   if h <= 3],
        "minhash_index_dedup": ops.serial_index_dedup(ids, texts, word),
        "near_dup_clusters": ops.serial_union_find_clusters(ids, word),
    }
    if texts[0]:
        assert not word and expected["near_dup_clusters"] == [(d, d) for d in ids]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    for name in LSH_FAMILY:
        want = con.execute(entrymod.oracle_sql()[name]).fetch_arrow_table().schema
        ds = getattr(dedup, name)(str(tmp_path))
        schema = ds.schema()
        assert schema is not None, name
        assert (schema.names, schema.types) == (want.names, want.types), \
            (name, schema, want)
        got = sorted(tuple(r[c] for c in want.names) for r in ds.take_all())
        assert got == sorted(expected[name]), (name, got)


LSH_PLAN_OPS = ("minhash_candidate_pairs", "minhash_dedup_pairs",
                "ngram_jaccard_pairs", "simhash_near_dup_pairs",
                "minhash_index_dedup")


def test_lsh_family_plans_are_lazy_and_arrow_only(ray_session, sf_dir, monkeypatch):
    """Building the default plan of a banded-LSH operator executes nothing:
    candidates come from the one bucket sort, so no pass in front of it is
    materialized or streamed to the driver.  No ``map_batches`` in the plan
    asks for pandas batches."""
    import ray.data as rd

    calls = []

    def recording(name):
        orig = getattr(rd.Dataset, name)

        def f(self, *args, **kwargs):
            calls.append((name, kwargs.get("batch_format", "default")))
            return orig(self, *args, **kwargs)
        monkeypatch.setattr(rd.Dataset, name, f)

    for name in ("map_batches", "materialize", "iter_batches"):
        recording(name)
    from lexmapr_ray.stages import dedup

    for op in LSH_PLAN_OPS:
        calls.clear()
        getattr(dedup, op)(sf_dir)
        assert calls, op
        assert all(c == "map_batches" for c, _ in calls), (op, calls)
        assert "pandas" not in [f for _, f in calls], (op, calls)


def test_bucket_pairs_kernel_matches_bruteforce():
    """The LSH pair kernel against a Python all-pairs enumeration, in both
    modes: ordered pairs ``doc_a < doc_b`` and (new, existing) cross pairs.
    The block holds a hot bucket, a pair repeated across buckets, a doc
    twice in one bucket (index rows unioned with new rows), an all-new and
    an all-existing bucket, and singleton buckets; an empty block yields
    nothing.  ``_distinct_pairs`` keeps each pair once, pair-ordered."""
    import pyarrow as pa

    from lexmapr_ray.stages.dedup import _bucket_pairs, _distinct_pairs

    rows = (
        [(7, d, d % 2 == 0) for d in range(40)]        # hot bucket
        + [(1, 100, True), (1, 101, False),            # pair 100/101 ...
           (2, 101, False), (2, 100, True)]            # ... in two buckets
        + [(3, 200, True), (3, 200, False), (3, 201, False),
           (3, 200, True)]                             # doc 200 twice per side
        + [(4, 300, True), (4, 301, True)]             # all new
        + [(5, 400, False), (5, 401, False)]           # all existing
        + [(6, 500, True), (8, 501, False)]            # singletons
    )
    order = np.random.RandomState(0).permutation(len(rows))
    bucket = np.array([rows[i][0] for i in order], np.int64)
    doc = np.array([rows[i][1] for i in order], np.int64)
    new = np.array([rows[i][2] for i in order])
    n = len(rows)

    def brute(keep):
        return sorted((i, j) for i in range(n) for j in range(n)
                      if i != j and bucket[i] == bucket[j] and keep(i, j))

    ia, ib = _bucket_pairs(bucket, doc)
    assert sorted(zip(ia.tolist(), ib.tolist())) == \
        brute(lambda i, j: doc[i] < doc[j])
    ia, ib = _bucket_pairs(bucket, doc, new)
    cross = brute(lambda i, j: new[i] and not new[j])
    assert sorted(zip(ia.tolist(), ib.tolist())) == cross
    assert (200, 200) in {(doc[i], doc[j]) for i, j in cross}

    got = _distinct_pairs(pa.table({"doc_a": doc[ia], "doc_b": doc[ib]}))
    assert list(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist())) == \
        sorted({(doc[i], doc[j]) for i, j in cross})

    empty = np.array([], np.int64)
    for is_new in (None, np.array([], bool)):
        ia, ib = _bucket_pairs(empty, empty, is_new)
        assert len(ia) == len(ib) == 0


def test_simhash_near_dup_pairs_hamming_bound_is_inclusive(ray_session, tmp_path):
    """A pair at exactly ``max_hamming`` is kept, one bit further is not:
    the base text and two one-token edits of it at hamming 3 and 4, each
    sharing a 16-bit band with the base, so both are candidates."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import (SIMHASH_BANDS, _popcount64,
                                          _simhash_block,
                                          simhash_near_dup_pairs)

    base = " ".join(f"w{i}" for i in range(30))
    edits = [base.replace("w5 ", f"x{i} ") for i in range(400)]
    tbl = pa.table({"doc_id": pa.array(range(len(edits) + 1), pa.int64()),
                    "text": pa.array([base] + edits, pa.string())})
    sig = _simhash_block(tbl)["simhash"].to_numpy().view(np.uint64)
    ham = _popcount64(sig[1:] ^ sig[0])
    bands = [(sig >> np.uint64(16 * b)) & np.uint64(0xFFFF)
             for b in range(SIMHASH_BANDS)]
    shares = np.any([band[1:] == band[0] for band in bands], axis=0)
    pick = {h: 1 + int(np.flatnonzero((ham == h) & shares)[0]) for h in (3, 4)}
    texts = [base, edits[pick[3] - 1], edits[pick[4] - 1]]
    pq.write_table(pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   str(tmp_path / "documents.parquet"))

    for bound, want in ((3, {(0, 1, 3)}), (4, {(0, 1, 3), (0, 2, 4)})):
        got = simhash_near_dup_pairs(str(tmp_path), max_hamming=bound).take_all()
        got = {(r["doc_a"], r["doc_b"], r["hamming"]) for r in got}
        assert {p for p in got if p[0] == 0} == want, (bound, got)


def test_repetition_gopher_source_match_duckdb(ray_session, tmp_path):
    """r3 curation trio (repetition_stats / gopher_quality_filter /
    source_stats) against their DuckDB oracles on an adversarial corpus:
    empty / whitespace-only docs, heavy within-doc repetition, duplicate
    texts across sources, stopword-free docs, edge \\t/\\n whitespace."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.dedup import ngram_decontaminate
    from lexmapr_ray.stages.packing import sequence_pack
    from lexmapr_ray.stages.textstats import (
        corpus_split, gopher_quality_filter, pii_scrub, repetition_stats,
        source_cap, source_mix, source_stats, text_normalize)

    texts = [
        "",                                   # empty
        " \t\n ",                             # whitespace-only
        "batch batch batch batch batch",      # one-token doc, max repetition
        "the of a to in is it and extra words making the doc long enough ok",
        "dup text", "dup text", "dup text",   # exact dups across sources
        "the and of to in is it one two three four five six seven eight nine",
        "zz yy xx ww vv uu tt ss rr qq pp oo nn mm ll kk jj ii hh gg",  # no stops
        "tabs\tand\nnewlines the of it split tokens fine here today yes",
        "mail a.b+c@ex-1.co.uk or 10.0.0.1 call 12345678901 ref 123456789",
        "v1.2.3.4000 is not 1.2.3.4 and x@y.z beats x@y only 999 digits",
    ]
    srcs = ["s0", "s0", "s1", "s1", "s0", "s1", "s2", "s2", "s2", "s0",
            "s1", "s2"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(srcs, pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [("repetition_stats", repetition_stats),
                     ("gopher_quality_filter", gopher_quality_filter),
                     ("source_stats", source_stats),
                     ("corpus_split", corpus_split),
                     ("text_normalize", text_normalize),
                     ("pii_scrub", pii_scrub),
                     ("source_cap", source_cap),
                     ("source_mix", source_mix),
                     ("sequence_pack", sequence_pack),
                     ("ngram_decontaminate", ngram_decontaminate)]:
        got = fn(str(tmp_path)).to_pandas().reset_index(drop=True)
        exp = con.execute(oracles[name]).fetchdf().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)],
            check_dtype=False, obj=name)


def test_ngram_decontaminate_binding_split(ray_session, tmp_path):
    """Decontamination with a split that actually bites: doc_ids are chosen
    so the md5 permille gate (at permille=500) puts roughly half the docs in
    the test set, and train texts deliberately share (or just miss) the
    k=3 gram overlap with test texts.  Compared against an inline DuckDB
    mirror of the rule at the same (k, permille)."""
    import duckdb
    import hashlib as _h
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import ngram_decontaminate

    def gate(d):
        return int(_h.md5(str(d).encode()).hexdigest()[:8], 16) % 1000

    ids = list(range(40))
    test_ids = [d for d in ids if gate(d) < 500]
    train_ids = [d for d in ids if gate(d) >= 500]
    assert len(test_ids) >= 5 and len(train_ids) >= 5

    leak = "alpha beta gamma delta"            # shared 3-grams
    texts = {}
    for i, d in enumerate(test_ids):
        texts[d] = f"{leak} unique test tail {i}" if i % 2 == 0 \
            else f"clean test doc number {i} nothing shared"
    for i, d in enumerate(train_ids):
        if i % 3 == 0:
            texts[d] = f"prefix {leak} suffix {i}"          # contaminated
        elif i % 3 == 1:
            texts[d] = f"alpha beta X gamma delta {i}"      # gram broken -> clean
        else:
            texts[d] = f"wholly original training text {i}"
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[d] for d in ids], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = ngram_decontaminate(str(tmp_path), k=3, test_permille=500) \
        .to_pandas().reset_index(drop=True)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute("""
        WITH h AS (
            SELECT doc_id, text,
                   CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                        AS BIGINT) % 1000 AS hh FROM documents),
        t AS (SELECT doc_id, hh, string_split_regex(TRIM(text), '\\s+') AS tk
              FROM h WHERE TRIM(text) <> ''),
        g AS (SELECT doc_id, hh,
                     unnest(list_transform(range(1, len(tk) - 3 + 2),
                            i -> array_to_string(tk[i:i+2], ' '))) AS gram
              FROM t),
        cont AS (SELECT DISTINCT doc_id FROM g WHERE hh >= 500
                 AND gram IN (SELECT gram FROM g WHERE hh < 500))
        SELECT h.doc_id,
               (CASE WHEN cont.doc_id IS NULL THEN 0 ELSE 1 END)::BIGINT
                   AS contaminated
        FROM h LEFT JOIN cont ON h.doc_id = cont.doc_id
        WHERE h.hh >= 500 ORDER BY h.doc_id
    """).fetchdf().reset_index(drop=True)

    assert exp["contaminated"].sum() > 0          # the rule actually fires
    assert (exp["contaminated"] == 0).any()       # and spares the clean docs
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_media_resize_and_frame_sample_match_serial(ray_session, sf_dir):
    """Resize + frame-sample plumbing vs a serial decode of the same
    derived payloads: exact integer box-downsample and stride sampling."""
    import numpy as np

    from lexmapr_ray.stages.multimodal import (
        DecodeImage, ResizeImage, SampleFrames, media_from_documents,
        media_resize_features, video_frame_features, video_from_documents,
    )

    got = media_resize_features(sf_dir).to_pandas().set_index("media_id")
    serial = media_from_documents(sf_dir).to_pandas()
    rs = ResizeImage(target=8)
    for _, row in serial.head(40).iterrows():
        small = rs._resize(DecodeImage._decode(row.payload))
        assert got.loc[row.media_id, "resized_mean_milli"] == int(small.mean() * 1000)
        assert got.loc[row.media_id, "resized_min"] == int(small.min())
        assert got.loc[row.media_id, "resized_max"] == int(small.max())
        assert small.shape == (8, 8)

    vf = video_frame_features(sf_dir, stride=2).to_pandas()
    vids = video_from_documents(sf_dir).to_pandas()
    by_id = vf.groupby("media_id")
    for _, row in vids.head(40).iterrows():
        frames = SampleFrames._frames(row.payload)
        g = by_id.get_group(row.media_id).sort_values("frame_idx")
        assert list(g["frame_idx"]) == list(range(0, frames.shape[0], 2))
        for idx, mean in zip(g["frame_idx"], g["frame_mean_milli"]):
            assert mean == int(frames[idx].mean() * 1000)

    with pytest.raises(NotImplementedError):
        ResizeImage(codec="pil")
    with pytest.raises(NotImplementedError):
        SampleFrames(codec="pil")


def test_cosine_topk_multi_matches_numpy(ray_session, sf_dir, embs):
    from lexmapr_ray.stages.similarity import cosine_topk_multi

    got = cosine_topk_multi(sf_dir, n_queries=4, k=3).to_pandas()
    m = np.stack([np.asarray(e, dtype=np.float64) for e in embs["embedding"]])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    ids = embs["vec_id"].to_numpy()
    exp_rows = []
    for q in range(4):
        qv = mn[np.flatnonzero(ids == q)[0]]
        bp = np.round(mn @ qv * 10_000).astype(np.int64)
        order = sorted(zip(-bp, ids))[:3]
        exp_rows += [(q, int(v), int(-s)) for s, v in order]
    assert [tuple(r) for r in got[["query_id", "vec_id", "sim_bp"]]
            .itertuples(index=False)] == exp_rows


def test_new_curation_ops_adversarial_oracle(ray_session, tmp_path):
    """vocab_topk / stratified_sample / span_dedup vs their DuckDB oracles
    on a corpus built to bite: edge \t/\n whitespace, an exact-duplicate
    document (every span loses -> the doc vanishes from span_dedup), a
    shared 3-token prefix across docs, and empty/whitespace-only texts."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.dedup import span_dedup
    from lexmapr_ray.stages.textstats import stratified_sample, vocab_topk

    texts = [
        "alpha beta gamma delta epsilon zeta eta theta iota",
        "alpha beta gamma OTHER tail words here now",   # shares span 0
        "alpha beta gamma delta epsilon zeta eta theta iota",  # exact dup
        "\t leading ws alpha beta gamma delta epsilon zeta \n",
        "", "   ", "solo",
        "x y z x y z x y z",  # internal span repeats
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en", "de", "en", "zh", "en", "de", "en", "es"],
                         pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [("vocab_topk", vocab_topk),
                     ("stratified_sample", stratified_sample),
                     ("span_dedup", span_dedup)]:
        got = fn(str(tmp_path)).to_pandas().reset_index(drop=True)
        exp = con.execute(oracles[name]).fetchdf().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)],
            check_dtype=False, obj=name)
    # the exact-duplicate doc 2 must vanish (all its spans lose to doc 0)
    out = span_dedup(str(tmp_path)).to_pandas()
    assert 2 not in set(out["doc_id"])
    # internal repeats: doc 7's later "x y z" spans lose to its own span 0
    assert out.set_index("doc_id").loc[7, "text_clean"] == "x y z"


def test_events_zscore_outliers_adversarial_oracle(ray_session, tmp_path):
    """events_zscore_outliers vs its HUGEINT oracle on data built to bite:
    a zero-variance type (bound 0, strict > keeps nothing), a type where
    one wild point dominates, and negative values."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import events_zscore_outliers

    vals = ([10.0] * 30 + [1000.0]          # type a: one wild point
            + [5.0] * 10                    # type b: zero variance
            + [-3.0, -3.0, -3.0, 50.0])     # type c: negatives + outlier
    types = ["a"] * 31 + ["b"] * 10 + ["c"] * 4
    tbl = pa.table({
        "event_id": pa.array(range(len(vals)), pa.int64()),
        "ts": pa.array([1_600_000_000_000_000 + i for i in range(len(vals))],
                       pa.timestamp("us")),
        "user_id": pa.array([1] * len(vals), pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(vals, pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    got = events_zscore_outliers(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    exp = con.execute(entrymod.oracle_sql()["events_zscore_outliers"]) \
        .fetchdf().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    assert 30 in set(got["event_id"])           # the wild 1000.0
    assert not (got["event_type"] == "b").any()  # zero variance -> none


def test_hybrid_search_matches_duckdb(ray_session, sf_dir):
    """hybrid_search vs its DuckDB oracle (keyword gate + dense rerank),
    plus the semantic contract: every hit's document really contains the
    keyword token and scores are non-increasing."""
    import duckdb

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.similarity import hybrid_search

    got = hybrid_search(sf_dir).to_pandas().reset_index(drop=True)

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    exp = con.execute(entrymod.oracle_sql()["hybrid_search"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)
    assert len(got) > 0
    assert (got["sim_bp"].diff().dropna() <= 0).all()

    import pyarrow.parquet as pq
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .set_index("doc_id")["text"]
    for d in got["doc_id"]:
        assert "spark" in docs.loc[d].split()


def test_curate_pack_shuffle_adversarial_oracle(ray_session, tmp_path):
    """The composed curation pipeline vs its CTE oracle on a corpus built
    to bite: an exact duplicate that passes the Gopher gate (loser must
    vanish BEFORE packing so seq boundaries shift), docs failing each
    quality rule (too short / no stopwords / one-token repetition), and
    a doc landing exactly on a 512-token sequence boundary."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.packing import curate_pack_shuffle

    good = "the quick brown fox jumps over a lazy dog of the north " * 20
    texts = [
        good,                                 # survives, ~220 tokens
        "short",                              # fails n_tokens >= 10
        good,                                 # exact dup of 0 -> electorally dropped
        "zz " * 50,                           # no stopwords + repetition fail
        "the of " + "wwww xxxx yyyy zzzz vvvv uuuu tttt ssss qqqq rrrr " * 40,  # survives, 402 tokens
        good.replace("dog", "cat"),           # survives, distinct text
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = curate_pack_shuffle(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["curate_pack_shuffle"]) \
        .fetchdf().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    assert set(got["doc_id"]) == {0, 4, 5}      # dup 2 and failers gone
    assert got["shuffle_rank"].sort_values().tolist() == [0, 1, 2]
    # packing is contiguous over SURVIVORS in doc_id order
    s = got.set_index("doc_id")
    assert s.loc[0, "seq_id"] == 0


def test_hashed_classifier_score_adversarial_oracle(ray_session, tmp_path):
    """hashed_classifier_score vs its DuckDB oracle on a corpus with edge
    whitespace, repeats (weight counted per OCCURRENCE, not per unique),
    and empty/ws-only docs (no row); also pins the weight function."""
    import hashlib

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import (_CLF_BUCKETS, _CLF_MOD,
                                              _CLF_MULT,
                                              hashed_classifier_score)

    texts = ["alpha beta alpha", "\t gamma \n", "", "   ", "alpha"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = hashed_classifier_score(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["hashed_classifier_score"]) \
        .fetchdf().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    assert set(got["doc_id"]) == {0, 1, 4}  # empty/ws-only docs emit no row

    def wt(tok):
        b = int(hashlib.md5(tok.encode()).hexdigest()[:8], 16) % _CLF_BUCKETS
        return (b * _CLF_MULT) % _CLF_MOD - 1000

    s = got.set_index("doc_id")["logit_milli"]
    assert s[0] == 2 * wt("alpha") + wt("beta")  # occurrences, not uniques
    assert s[4] == wt("alpha")


def test_knn_graph_matches_serial_and_is_ranked(ray_session, sf_dir):
    """knn_graph vs the serial LSH+rank reimplementation; also pins the
    rank contract (contiguous 1..n per vector, sims non-increasing)."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools"))
    import pyarrow.parquet as pq

    import make_op_expected as ops
    from lexmapr_ray.stages.similarity import knn_graph

    got = knn_graph(sf_dir).to_pandas().sort_values(
        ["vec_id", "rank"]).reset_index(drop=True)

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    vec_ids = t["vec_id"].to_pylist()
    m = np.asarray(t["embedding"].combine_chunks().flatten(),
                   dtype=np.float64).reshape(len(vec_ids), -1)
    exp = ops.serial_knn_graph(vec_ids, m)
    assert [tuple(r) for r in got.itertuples(index=False)] == exp

    for _, g in got.groupby("vec_id"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert (g["sim_bp"].diff().dropna() <= 0).all()


def test_chunk_documents_adversarial_oracle(ray_session, tmp_path):
    """chunk_documents vs its DuckDB oracle on boundary-sized docs: token
    counts straddling the window (63/64/65) and the second-stride boundary
    (112/113), a tiny doc, empty and whitespace-only texts (no chunks), and
    edge \\t/\\n whitespace.  Also pins the chunk geometry directly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.packing import chunk_documents

    def words(n):
        return " ".join(f"t{i}" for i in range(n))

    texts = [words(63), words(64), words(65), words(112), words(113),
             "solo", "", "   \t\n", "\t " + words(70) + " \n"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = chunk_documents(str(tmp_path)).to_pandas() \
        .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["chunk_documents"]).fetchdf() \
        .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    n_chunks = got.groupby("doc_id").size()
    # 63/64 tokens -> 1 chunk; 65 -> 2; 112 -> 2; 113 -> 3; no rows for 6/7
    assert n_chunks.to_dict() == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 1, 8: 2}
    last = got[(got.doc_id == 4) & (got.chunk_idx == 2)]
    assert last["n_chunk_tokens"].tolist() == [113 - 2 * 48]


def test_simhash_near_dup_pairs_vs_bruteforce(ray_session, tmp_path):
    """Banded hamming search vs an in-test all-pairs popcount: recall for
    hamming <= 3 is guaranteed by the 4x16-bit pigeonhole, precision by the
    SWAR verify; includes an exact-dup pair (hamming 0), a one-token edit
    (small hamming), and unrelated docs (filtered)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import (_popcount64, _simhash_block,
                                          simhash_near_dup_pairs)

    base = ("w%d " * 40) % tuple(range(40))
    texts = [
        base,
        base,                                # dup of 0 -> hamming 0
        base.replace("w7 ", "EDIT "),        # one-token edit of 0
        "completely different vocabulary entirely unrelated words",
        " ".join(f"v{i}" for i in range(50)),
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = simhash_near_dup_pairs(str(tmp_path), max_hamming=3).to_pandas()

    sigs = _simhash_block(tbl).column("simhash").to_numpy().view(np.uint64)
    exp = []
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            h = int(_popcount64(np.array([sigs[a] ^ sigs[b]], np.uint64))[0])
            if h <= 3:
                exp.append((a, b, h))
    assert [tuple(r) for r in got.itertuples(index=False)] == exp
    assert (0, 1, 0) in exp  # the exact-dup pair really is in the answer


def test_quantiles_centroids_fullouter_adversarial_oracle(ray_session, tmp_path):
    """doc_length_quantiles / event_value_quantiles / customer_event_activity
    / embedding_centroids vs their DuckDB oracles on data built to bite:
    single-member groups, tied values, rank-boundary group sizes (n=4, n=20
    where ceil(q*n) lands exactly on an integer), negative money, negative
    embedding values (floor-toward--inf semantics), and users present on
    only one side of the full outer join."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import (
        customer_event_activity, event_value_quantiles)
    from lexmapr_ray.stages.similarity import embedding_centroids
    from lexmapr_ray.stages.textstats import doc_length_quantiles

    # documents: lang 'a' has n=4 (rank boundaries exact), 'b' n=20 with
    # heavy ties, 'c' a singleton
    langs, lens = [], []
    for l in (10, 20, 30, 40):
        langs.append("a"); lens.append(l)
    for i in range(20):
        langs.append("b"); lens.append(5 if i < 15 else 100 + i)
    langs.append("c"); lens.append(7)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(langs)), pa.int64()),
        "text": pa.array(["x" * n for n in lens], pa.string()),
        "lang": pa.array(langs, pa.string()),
        "n_chars": pa.array(lens, pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    # events: user 1 shared with customer, user 999 event-only; one type
    # with a single event; negative values
    import pandas as pd_
    ev = pd_.DataFrame({
        "event_id": range(8),
        "ts": pd_.to_datetime([1_000_000_000 + i * 3600 for i in range(8)], unit="s"),
        "user_id": [1, 1, 1, 999, 999, 2, 2, 2],
        "event_type": ["x", "x", "x", "x", "y", "x", "x", "x"],
        "value": [1.25, -2.5, 3.75, 10.0, -0.25, 5.5, 5.5, 5.5],
    })
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    # customers: 1 (has events), 2 (has events), 3 (no events, negative bal)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_acctbal": pa.array([12.34, 0.0, -987.65], pa.float64()),
    }), str(tmp_path / "customer.parquet"))

    # embeddings: label 0 singleton with negatives, label 1 two vectors
    rng = np.random.RandomState(7)
    embs = [(-rng.rand(8)).astype(np.float32),
            rng.standard_normal(8).astype(np.float32),
            rng.standard_normal(8).astype(np.float32)]
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([e.tolist() for e in embs],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 1, 1], pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))

    con = duckdb.connect()
    for tbl in ("documents", "events", "customer", "embeddings"):
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{tbl}.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [
        ("doc_length_quantiles", doc_length_quantiles),
        ("event_value_quantiles", event_value_quantiles),
        ("customer_event_activity", customer_event_activity),
        ("embedding_centroids", embedding_centroids),
    ]:
        got = fn(str(tmp_path)).to_pandas()
        got = got[sorted(got.columns)].sort_values(sorted(got.columns)) \
            .reset_index(drop=True)
        exp = con.execute(oracles[name]).fetchdf()
        exp = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False, obj=name)


def test_length_trim_and_shuffle_order_adversarial_oracle(ray_session, tmp_path):
    """length_trim / corpus_shuffle_order vs their DuckDB oracles on a
    corpus with a singleton language (its only doc must survive its own
    p05..p95), heavy length ties, and doc_ids dense from 0 (md5-order
    ranks are a full permutation 0..N-1)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import corpus_shuffle_order, length_trim

    langs, lens = [], []
    for i in range(40):  # 'a': outliers at both ends, ties in the middle
        langs.append("a")
        lens.append(1 if i == 0 else (9999 if i >= 38 else 50))
    langs.append("b"); lens.append(7)  # singleton language
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(langs)), pa.int64()),
        "text": pa.array(["x" * min(n, 100) for n in lens], pa.string()),
        "lang": pa.array(langs, pa.string()),
        "n_chars": pa.array(lens, pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [("length_trim", length_trim),
                     ("corpus_shuffle_order", corpus_shuffle_order)]:
        got = fn(str(tmp_path)).to_pandas()
        got = got[sorted(got.columns)].sort_values(sorted(got.columns)) \
            .reset_index(drop=True)
        exp = con.execute(oracles[name]).fetchdf()
        exp = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False, obj=name)
    # the singleton language survives its own trivial quantile window
    out = length_trim(str(tmp_path)).to_pandas()
    assert 40 in set(out["doc_id"])
    # ranks are a dense permutation
    ranks = corpus_shuffle_order(str(tmp_path)).to_pandas()["shuffle_rank"]
    assert sorted(ranks) == list(range(41))


def test_rarity_index_hll_adversarial_oracle(ray_session, tmp_path, monkeypatch):
    """token_rarity / inverted_index vs their DuckDB oracles, and the HLL
    sketch vs exact distinct counts, on a corpus with edge whitespace,
    exact duplicates, a high-repetition doc, and empty texts.  min_df is
    lowered so the index keeps multi-doc terms of this tiny corpus."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages import textstats
    from lexmapr_ray.stages.sketches import hll_distinct_tokens
    from lexmapr_ray.stages.textstats import inverted_index, token_rarity

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",   # exact dup
        "\t the rare xylophone quetzal \n",               # edge ws + hapax
        "spam spam spam spam spam",                      # repetition
        "", "   ",                                       # tokenless
        "the of and to in it is was",                    # all-common
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en", "en", "en", "de", "en", "de", "en"],
                         pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracles = entrymod.oracle_sql()
    for name, fn in [("token_rarity", token_rarity),
                     ("inverted_index", lambda d: inverted_index(d, min_df=2))]:
        got = fn(str(tmp_path)).to_pandas().reset_index(drop=True)
        sql = oracles[name].replace(">= 5", ">= 2")
        exp = con.execute(sql).fetchdf().reset_index(drop=True)
        got = got[sorted(got.columns)].sort_values(sorted(got.columns)) \
            .reset_index(drop=True)
        exp = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False, obj=name)

    # VOCAB_BROADCAST_LIMIT 0 forces the bucketed-join vocabulary path; it
    # must reproduce the broadcast path exactly
    base = token_rarity(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    with monkeypatch.context() as m:
        m.setattr(textstats, "VOCAB_BROADCAST_LIMIT", 0)
        joined = token_rarity(str(tmp_path)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, joined)
    assert len(base) == 5

    # HLL: per-lang estimates land within the p=12 error envelope of the
    # exact distinct counts (tiny cardinalities -> linear counting regime,
    # which is near-exact)
    got = hll_distinct_tokens(str(tmp_path)).to_pandas().set_index("lang")
    exact = con.execute("""
        SELECT lang, COUNT(DISTINCT term) AS n FROM (
            SELECT lang, UNNEST(string_split_regex(
                TRIM(text, concat(' ', chr(9), chr(10), chr(12), chr(13))),
                '\\s+')) AS term
            FROM documents
            WHERE TRIM(text, concat(' ', chr(9), chr(10), chr(12), chr(13))) <> ''
        ) GROUP BY lang""").fetchdf().set_index("lang")
    for lang in exact.index:
        e, a = int(exact.loc[lang, "n"]), int(got.loc[lang, "approx_distinct"])
        assert abs(a - e) <= max(2, int(0.05 * e)), (lang, e, a)


def test_hll_sketch_merge_and_accuracy():
    """Register-level properties, no Ray: (1) folding a token stream in
    any batching yields identical registers (the merge is an element-wise
    max, so the distributed combine is exact); (2) the estimate is within
    ~3 sigma of the p=12 standard error (1.04/sqrt(4096) ~ 1.6%) at 50k
    distinct values."""
    import numpy as np

    from lexmapr_ray.stages.sketches import (
        HLL_M, hash_tokens, hll_estimate, hll_update)

    toks = [f"token-{i}" for i in range(50_000)]
    whole = np.zeros(HLL_M, dtype=np.uint8)
    hll_update(whole, hash_tokens(toks))

    merged = np.zeros(HLL_M, dtype=np.uint8)
    for lo in range(0, len(toks), 1337):
        part = np.zeros(HLL_M, dtype=np.uint8)
        hll_update(part, hash_tokens(toks[lo:lo + 1337]))
        np.maximum(merged, part, out=merged)
    assert np.array_equal(whole, merged)

    est = hll_estimate(whole)
    assert abs(est - 50_000) < 0.05 * 50_000, est


def test_bloom_decontaminate_equals_exact(ray_session, tmp_path):
    """The Bloom-pruned path must be output-identical to the exact n-gram
    path (no false negatives by construction; false positives die in the
    exact verify).  Corpus engineered so the md5 permille gate puts at
    least one doc in the test split that shares an 8-gram with a train
    doc, plus clean train docs and short no-gram docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import bloom_decontaminate, ngram_decontaminate
    from lexmapr_ray.stages.textstats import md5_permille

    shared = "one two three four five six seven eight"
    texts, langs = [], []
    for i in range(40):
        if i % 3 == 0:
            texts.append(f"{shared} tail-{i} filler words beyond the gram")
        elif i % 3 == 1:
            texts.append(f"unique-{i} " * 12)
        else:
            texts.append("short text")  # < 8 tokens, no grams
        langs.append("en")
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    # the gate must split the shared-gram docs across test/train for the
    # case to bind
    h = md5_permille(tbl["doc_id"])
    shared_ids = [i for i in range(40) if i % 3 == 0]
    assert any(h[i] < 500 for i in shared_ids) and \
        any(h[i] >= 500 for i in shared_ids)

    exact = ngram_decontaminate(str(tmp_path), test_permille=500).to_pandas()
    bloom = bloom_decontaminate(str(tmp_path), test_permille=500).to_pandas()
    pd.testing.assert_frame_equal(exact, bloom)
    assert exact["contaminated"].sum() > 0  # the case actually binds


def test_cms_heavy_hitters_overestimate_contract(ray_session, sf_dir):
    """CMS point estimates are one-sided: est >= exact count for every
    reported word, and within the eps*T bound (eps = e/w)."""
    import math

    from lexmapr_ray.stages.sketches import CMS_W, cms_heavy_hitters
    from lexmapr_ray.stages.textstats import _read_documents

    out = cms_heavy_hitters(sf_dir, k=10).to_pandas()
    assert len(out) == 10
    assert (out["cms_est"] >= out["cnt"]).all()
    total_tokens = int(
        _read_documents(sf_dir, ["text"]).to_pandas()["text"]
        .str.split().map(len).sum())
    eps = math.e / CMS_W
    assert (out["cms_est"] - out["cnt"] <= eps * total_tokens * 3).all()


def test_bigram_lm_adversarial_and_join_path(ray_session, tmp_path, monkeypatch):
    """bigram_lm_score vs its DuckDB oracle on an adversarial corpus
    (edge whitespace, single-token / empty docs, heavy repetition, an
    exact dup), then ``VOCAB_BROADCAST_LIMIT`` 0 forces the bucketed-join
    model attach — it must reproduce the broadcast path exactly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages import textstats
    from lexmapr_ray.stages.textstats import bigram_lm_score

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",   # exact dup
        "\t the rare xylophone quetzal \n",               # edge ws
        "spam spam spam spam spam",                      # repetition
        "", "   ",                                       # tokenless
        "one",                                           # single token: no bigram
        "the of and to in it is was the of and to",      # all-common
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    got = bigram_lm_score(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exp = con.execute(entrymod.oracle_sql()["bigram_lm_score"]).fetchdf() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)
    # single-token and tokenless docs are absent from both sides
    assert set(got["doc_id"]) == {0, 1, 2, 3, 7}
    # the repetition doc's "spam spam" bigram is maximally probable ->
    # strictly lower surprise than the hapax-chain doc
    s = got.set_index("doc_id")["surprise_e3"]
    assert s[3] < s[2]

    monkeypatch.setattr(textstats, "VOCAB_BROADCAST_LIMIT", 0)
    joined = bigram_lm_score(str(tmp_path)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, joined)


def test_minhash_index_dedup_flags_cross_side_dups(ray_session, tmp_path):
    """minhash_index_dedup on a corpus of exact-duplicate groups: every NEW
    doc (md5 permille gate) whose text also exists on the EXISTING side is
    flagged with jaccard 100 and dup_of = the minimum matching existing id;
    new docs with only new-side twins or unique text are not flagged."""
    import hashlib as _hl

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import minhash_index_dedup

    def pm(d):
        return int(_hl.md5(str(d).encode()).hexdigest()[:8], 16) % 1000

    # 60 ids -> ~42 existing / ~18 new at the default 700 gate; 12 shared
    # texts spread over 5 ids each guarantee cross-side collisions
    ids = list(range(60))
    texts = [f"shared text block number {i % 12} with enough tokens to shingle"
             for i in ids[:60]]
    # a few unique new-side docs
    for d in ids:
        if pm(d) >= 700 and d % 7 == 0:
            texts[d] = f"completely unique document {d} " + " ".join(
                f"tok{d}_{j}" for j in range(8))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * len(ids), pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = minhash_index_dedup(str(tmp_path)).to_pandas()

    existing_by_text: dict = {}
    for d in ids:
        if pm(d) < 700:
            existing_by_text.setdefault(texts[d], []).append(d)
    expected = {}
    for d in ids:
        if pm(d) >= 700 and texts[d] in existing_by_text:
            expected[d] = min(existing_by_text[texts[d]])
    assert dict(zip(got["doc_id"], got["dup_of"])) == expected
    assert (got["jaccard_pct"] == 100).all()
    assert list(got["doc_id"]) == sorted(expected)


def test_target_affinity_adversarial_and_join_path(ray_session, tmp_path, monkeypatch):
    """target_affinity vs its DuckDB oracle on a corpus where target (en)
    and non-target (de) vocabularies partially overlap, plus edge
    whitespace/empty docs; ``VOCAB_BROADCAST_LIMIT`` 0 must reproduce the
    broadcast path exactly.  Also pins the semantics: a doc written in the
    target's vocabulary outranks one of equally-common non-target words."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages import textstats
    from lexmapr_ray.stages.textstats import target_affinity

    texts = [
        "wiki article text about science and history",   # en (target)
        "wiki article text about art and science",       # en
        "der schnelle braune fuchs springt",              # de
        "der schnelle braune hund springt",               # de
        "science history article text",                   # de doc, en words
        "\t der fuchs \n", "", "   ",
    ]
    langs = ["en", "en", "de", "de", "de", "de", "en", "de"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(langs, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    got = target_affinity(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exp = con.execute(entrymod.oracle_sql()["target_affinity"]).fetchdf() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    s = got.set_index("doc_id")["affinity_e3"]
    # the de doc made of en-corpus words scores far above the pure-de docs
    assert s[4] > s[2] and s[4] > s[3]
    # tokenless docs absent
    assert 6 not in s.index and 7 not in s.index

    monkeypatch.setattr(textstats, "VOCAB_BROADCAST_LIMIT", 0)
    joined = target_affinity(str(tmp_path)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, joined)


def test_bpe_train_matches_textbook_serial(ray_session, tmp_path, monkeypatch):
    """bpe_train vs an inline textbook BPE on the classic Sennrich-style
    toy vocabulary; also pins the tie-break (max count, then lexicographic
    (left, right)) and the min_freq hapax prune."""
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages import bpe
    from lexmapr_ray.stages.bpe import bpe_train

    words = (["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
             + ["hapax"])  # freq 1: pruned by min_freq=2
    texts = [" ".join(words[i::4]) for i in range(4)]
    tbl = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * 4, pa.string())})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = bpe_train(str(tmp_path), n_merges=8).to_pandas()

    wc = Counter(words)
    vocab = [[list(w) + ["</w>"], f] for w, f in wc.items() if f >= 2]
    exp = []
    for rank in range(8):
        pcnt = Counter()
        for syms, f in vocab:
            for i in range(len(syms) - 1):
                pcnt[(syms[i], syms[i + 1])] += f
        if not pcnt:
            break
        (left, right), cnt = min(pcnt.items(), key=lambda kv: (-kv[1], kv[0]))
        merged = left + right
        exp.append((rank, left, right, merged, cnt))
        for ent in vocab:
            syms, out, i = ent[0], [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            ent[0] = out
    assert [tuple(r) for r in got.itertuples(index=False)] == exp
    # first merge must involve the dominant 'newest'/'widest' suffix family
    assert got.loc[0, "pair_count"] == 9  # 's t' from newest(6) + widest(3)

    # the size-switch is transparent: forcing the distributed merge rounds
    # (DRIVER_VOCAB_LIMIT 0) yields bit-identical merges
    monkeypatch.setattr(bpe, "DRIVER_VOCAB_LIMIT", 0)
    dist = bpe_train(str(tmp_path), n_merges=8).to_pandas()
    pd.testing.assert_frame_equal(got, dist)


def test_dup_span_trim_adversarial_oracle(ray_session, tmp_path, monkeypatch):
    """dup_span_trim vs its DuckDB oracle on a corpus built to bite:
    cross-doc shared 8-gram, within-doc repeated 8-gram (multiplicity
    counts), a doc trimmed to nothing, empty text, <8-token doc, and a
    doc needing only whitespace normalization — on BOTH the broadcast and
    the forced bucketed-join paths."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.functions import joins
    from lexmapr_ray.stages.dedup import dup_span_trim

    common = "the quick brown fox jumps over the lazy dog"
    texts = [
        "alpha " + common + " beta gamma",
        common + " delta epsilon zeta eta theta",
        "u1 u2 u3 u4 u5 u6 u7 u8 u9 u10",
        "short doc",
        "",
        "r1 r2 r3 r4 r5 r6 r7 r8 x r1 r2 r3 r4 r5 r6 r7 r8",
        common,
        "  spaced   out    tokens here now yes no maybe ok fine ",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["dup_span_trim"]).fetchdf() \
        .reset_index(drop=True)

    for bl in (2_000_000, 1):
        monkeypatch.setattr(joins, "BROADCAST_LIMIT", bl)
        got = dup_span_trim(str(tmp_path)).to_pandas() \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)],
            check_dtype=False)

    g = got.set_index("doc_id")
    assert g.loc[6, "text_trimmed"] == ""          # fully covered doc
    assert g.loc[5, "text_trimmed"] == "x"         # within-doc repeat trims
    assert g.loc[3, "n_removed"] == 0              # <8 tokens untouched
    assert g.loc[7, "text_trimmed"].count("  ") == 0   # normalized


def test_token_triangles_adversarial_oracle(ray_session, tmp_path):
    """token_triangles on a hand-built graph that exercises the
    degree-ordered orientation: a clean triangle (clustering 1000 mpt), a
    4-cycle with no diagonals (degree 2, zero triangles), a 5-spoke hub
    (high degree, zero triangles), and a pendant edge — plus the DuckDB
    oracle equality."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.webgraph import token_triangles

    edges = [("p", "q"), ("q", "r"), ("p", "r"),              # triangle
             ("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"),  # square
             ("h", "h1"), ("h", "h2"), ("h", "h3"),
             ("h", "h4"), ("h", "h5"),                        # hub
             ("s", "t")]                                      # pendant
    texts = [f"{a} {b} {a} {b}" for a, b in edges]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = token_triangles(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["token_triangles"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index("token")
    for n in ("p", "q", "r"):
        assert g.loc[n, "triangles"] == 1
        assert g.loc[n, "clustering_mpt"] == 1000
    for n in ("w", "x", "y", "z"):
        assert g.loc[n, "triangles"] == 0 and g.loc[n, "degree"] == 2
    assert g.loc["h", "degree"] == 5 and g.loc["h", "triangles"] == 0
    assert g.loc["s", "degree"] == 1 and g.loc["s", "clustering_mpt"] == 0


def test_embedding_covariance_adversarial_oracle(ray_session, tmp_path):
    """embedding_covariance vs its HUGEINT oracle on vectors built to
    bite: perfectly anti-correlated dims (negative covariance exercises
    the truncate-toward-zero division), a constant dim (zero variance),
    and values whose floor-micro conversion is negative."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.similarity import embedding_covariance

    vecs = [[1.0, -1.0, 0.5, 0.25],
            [-1.0, 1.0, 0.5, -0.75],
            [0.5, -0.5, 0.5, 0.125],
            [-0.5, 0.5, 0.5, -0.3]]
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
        "label": pa.array([0] * len(vecs), pa.int32()),
    })
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    got = embedding_covariance(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    exp = con.execute(entrymod.oracle_sql()["embedding_covariance"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index(["dim_i", "dim_j"])["cov_micro2"]
    assert g.loc[(1, 2)] < 0          # anti-correlated pair
    assert g.loc[(3, 3)] == 0         # constant dim: zero variance
    assert g.loc[(1, 1)] > 0


def test_rrf_search_adversarial_oracle(ray_session, tmp_path):
    """rrf_search vs its DuckDB oracle on a corpus where the two rankings
    disagree: the best-cosine doc has no keyword, the most-keyword doc has
    a poor embedding, tied keyword counts break by doc_id, and fusion must
    surface a middling-in-both doc above single-ranking extremists."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.similarity import rrf_search

    texts = [
        "query probe",                               # doc 0: the query row
        "spark spark spark spark noise",             # doc 1: keyword king
        "no keywords here at all",                   # doc 2: cosine king
        "spark middle doc",                          # doc 3: decent in both
        "spark also here",                           # doc 4: tie-count w/ 3
        "nothing relevant",                          # doc 5
    ]
    vecs = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.5, 0.0, 0.0],     # keyword king: worst cosine
        [1.0, 0.01, 0.0, 0.0],     # cosine king
        [0.8, 0.5, 0.0, 0.0],      # middling
        [0.7, 0.6, 0.0, 0.0],      # middling
        [0.0, 1.0, 0.0, 0.0],
    ], dtype=np.float32)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float32())),
        "label": pa.array([0] * len(vecs), pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))

    got = rrf_search(str(tmp_path), k=6).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    exp = con.execute(entrymod.oracle_sql()["rrf_search"]
                      .replace("LIMIT 10", "LIMIT 6")).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    order = got["doc_id"].tolist()
    # docs in both rankings beat the single-ranking extremists
    assert order.index(3) < order.index(2)
    assert order.index(3) < order.index(1)
    assert (got["rrf_score"].diff().dropna() <= 0).all()


def test_k_core_cascading_peel(ray_session, tmp_path):
    """k_core on a hand-built graph where peeling must CASCADE: a 4-clique
    (the 3-core) with a pendant chain hanging off it — each chain node
    only drops below degree 2 after its outer neighbour is peeled, so a
    single-round filter would get it wrong.  Also checks the serial
    oracle mirror agrees."""
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.pipelines.webgraph import k_core

    clique = [("c1", "c2"), ("c1", "c3"), ("c1", "c4"),
              ("c2", "c3"), ("c2", "c4"), ("c3", "c4")]
    chain = [("c4", "t1"), ("t1", "t2"), ("t2", "t3"), ("t3", "t4")]
    texts = [f"{a} {b} {a} {b}" for a, b in clique + chain]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = k_core(str(tmp_path), k=2).to_pandas().reset_index(drop=True)
    # the whole chain peels away one node per round; the clique survives
    assert got["token"].tolist() == ["c1", "c2", "c3", "c4"]
    assert got["core_degree"].tolist() == [3, 3, 3, 3]

    got3 = k_core(str(tmp_path), k=3).to_pandas()
    assert got3["token"].tolist() == ["c1", "c2", "c3", "c4"]
    got4 = k_core(str(tmp_path), k=4).to_pandas()
    assert len(got4) == 0

    sys.path.insert(0, "/root/repo/tools")
    import make_op_expected as ops
    assert ops.serial_k_core(texts, len(texts), k=2) == \
        list(zip(got["token"], got["core_degree"]))


def test_bfs_distances_matches_serial(ray_session, tmp_path):
    """bfs_distances vs an in-test serial BFS with the same hop cap, on a
    corpus small enough that the cap binds (nodes beyond `hops` levels
    must be absent, not present-with-wrong-distance)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.pipelines.webgraph import bfs_distances

    n = 40
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n, pa.string()),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
        "n_chars": pa.array([1] * n, pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    hops = 3
    got = bfs_distances(str(tmp_path), hops=hops).to_pandas()

    from collections import deque
    dist = {0: 0}
    q = deque([0])
    while q:
        u = q.popleft()
        if dist[u] >= hops:
            continue
        for j in range(1 + u % 3):
            v = (u * 31 + 7 + 13 * j) % n
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    exp = sorted(dist.items())
    assert list(zip(got["node"], got["dist"])) == exp
    assert got["dist"].max() == hops          # the cap binds on this graph


@pytest.mark.parametrize("hops", [1, 2, 4, 6])
def test_bfs_oracle_materialized_rounds_equal_inlined(sf_dir, hops):
    """The bfs_distances oracle materializes each round: the same rows as
    the inlined SQL, which is still cheap enough to run at these hops."""
    import duckdb

    import __ray_entry__ as entrymod

    sql = entrymod._bfs_sql(hops=hops)
    inlined = sql.replace(" AS MATERIALIZED (", " AS (")
    assert inlined.count(" AS (") == sql.count(" AS MATERIALIZED (") + 2 == hops + 2
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{sf_dir}/documents.parquet')")
    got = con.execute(sql).fetchall()
    assert got and got == con.execute(inlined).fetchall()


def test_score_percentile_adversarial_oracle(ray_session, tmp_path):
    """score_percentile vs its ROW_NUMBER oracle on a corpus with tied
    logits (identical texts — tie must break by doc_id), an excluded
    empty doc, and the degenerate denominator guard."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import score_percentile

    texts = ["alpha beta gamma", "alpha beta gamma",   # tied logits
             "delta epsilon", "", "zeta eta theta iota"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = score_percentile(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["score_percentile"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index("doc_id")
    assert 3 not in g.index                      # empty doc excluded
    assert g.loc[0, "logit_milli"] == g.loc[1, "logit_milli"]
    assert g.loc[0, "pct_permille"] < g.loc[1, "pct_permille"]  # id tiebreak
    assert set([g["pct_permille"].min(), g["pct_permille"].max()]) \
        <= set(range(0, 1001))


def test_link_prediction_adversarial_oracle(ray_session, tmp_path):
    """link_prediction on a hand-built graph: two hubs sharing 3 spokes
    but NOT adjacent (the top prediction), an existing edge whose
    endpoints also share neighbors (must be excluded — it exists), and a
    pair sharing exactly one neighbor (below min_common)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.webgraph import link_prediction

    edges = [("p", "s1"), ("p", "s2"), ("p", "s3"),   # hub p
             ("q", "s1"), ("q", "s2"), ("q", "s3"),   # hub q (p-q missing)
             ("a", "b"), ("a", "c"), ("b", "c"),      # triangle: a-b exists
             ("a", "d"), ("b", "d"),                  # a,b also share d
             ("m", "z"), ("n", "z")]                  # m,n share only z
    texts = [f"{x} {y} {x} {y}" for x, y in edges]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = link_prediction(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["link_prediction"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    pairs = {(r.x, r.y): r.common_neighbors for r in got.itertuples()}
    assert pairs.get(("p", "q")) == 3           # the missing-link winner
    assert got.iloc[0][["x", "y"]].tolist() == ["p", "q"]
    assert ("a", "b") not in pairs              # existing edge excluded
    assert ("m", "n") not in pairs              # below min_common


def test_fuzzy_name_pairs_adversarial_oracle(ray_session, tmp_path):
    """fuzzy_name_pairs vs the levenshtein oracle on names built to bite
    the deletion keys: a transposition pair ("ab"/"ba" shares a deletion
    variant but is distance 2 — the (variant, pos) keys must not pair
    it), insertion / deletion / substitution pairs (all distance 1), runs
    of one character (two deletion positions give one variant), one-
    character names, a long shared prefix, and an unrelated name; no pair
    may come out twice."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import fuzzy_name_pairs

    names = ["ab", "ba",          # transposition: distance 2, must NOT pair
             "kitten", "sitten",  # substitution: distance 1
             "cart", "car",       # deletion: distance 1
             "car", "care",       # insertion: distance 1 (car dup'd is fine)
             "aab", "ab",         # deletion at either of two positions
             "aab", "abb",        # substitution inside a run
             "a", "b", "ab",      # one-character names
             "prefix_shared_long_name_x", "prefix_shared_long_name_y",
             "prefix_shared_long_name_", "prefix_shared_long_namex",
             "zzz"]
    names = list(dict.fromkeys(names))   # unique, order-stable
    tbl = pa.table({
        "c_custkey": pa.array(range(len(names)), pa.int64()),
        "c_name": pa.array(names, pa.string()),
        "c_nationkey": pa.array([0] * len(names), pa.int64()),
        "c_mktsegment": pa.array(["BUILDING"] * len(names), pa.string()),
        "c_acctbal": pa.array([0.0] * len(names), pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "customer.parquet"))

    got = fuzzy_name_pairs(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{tmp_path}/customer.parquet')")
    exp = con.execute(entrymod.oracle_sql()["fuzzy_name_pairs"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    pairs = set(map(tuple, got[["name_a", "name_b"]].itertuples(index=False)))
    assert ("ab", "ba") not in pairs
    assert ("kitten", "sitten") in pairs
    assert ("car", "cart") in pairs
    assert ("car", "care") in pairs
    assert not any("zzz" in p for p in pairs)
    assert len(pairs) == len(got)   # no duplicate (name_a, name_b) row
    assert {("aab", "ab"), ("aab", "abb"), ("a", "b"), ("a", "ab")} <= pairs


def test_cluster_top_terms_composition(ray_session, tmp_path):
    """cluster_top_terms vs an in-test pandas recompute from the engine's
    own k-means assignment, on two well-separated embedding clusters with
    engineered token frequencies (ties broken by token)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.similarity import cluster_top_terms, embedding_kmeans

    rng = np.random.RandomState(7)
    n_half, dim = 12, 8
    a = rng.normal(5, 0.1, (n_half, dim)).astype(np.float32)
    b = rng.normal(-5, 0.1, (n_half, dim)).astype(np.float32)
    vecs = np.vstack([a, b])
    texts = (["apple apple banana cherry"] * n_half
             + ["zebra zebra yak xray walrus"] * n_half)
    pq.write_table(pa.table({
        "vec_id": pa.array(range(2 * n_half), pa.int64()),
        "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float32())),
        "label": pa.array([0] * (2 * n_half), pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(2 * n_half), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * (2 * n_half)),
        "source": pa.array(["s"] * (2 * n_half)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = cluster_top_terms(str(tmp_path), top=3).to_pandas() \
        .reset_index(drop=True)

    assign = embedding_kmeans(str(tmp_path)).to_pandas() \
        .set_index("vec_id")["cluster"]
    rows = []
    for doc_id, text in enumerate(texts):
        for tok in text.split():
            rows.append((int(assign.loc[doc_id]), tok))
    exp = (pd.DataFrame(rows, columns=["cluster", "token"])
           .groupby(["cluster", "token"]).size().rename("n").reset_index()
           .sort_values(["cluster", "n", "token"],
                        ascending=[True, False, True])
           .groupby("cluster").head(3).reset_index(drop=True))
    exp["rank"] = exp.groupby("cluster").cumcount() + 1
    pd.testing.assert_frame_equal(
        got[["cluster", "token", "n", "rank"]].reset_index(drop=True),
        exp[["cluster", "token", "n", "rank"]], check_dtype=False)
    # the two text populations must label their clusters differently
    tops = got[got["rank"] == 1].set_index("cluster")["token"]
    assert set(tops) == {"apple", "zebra"}


def test_q10_returned_revenue_oracle(ray_session, sf_dir):
    """q10 (4-table join composition) vs its DuckDB oracle at sf0.001,
    plus the ordering contract."""
    import duckdb

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import q10_returned_revenue

    got = q10_returned_revenue(sf_dir).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    exp = con.execute(entrymod.oracle_sql()["q10_returned_revenue"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)
    assert len(got) > 0
    assert (got["revenue_e4"].diff().dropna() <= 0).all()


def test_events_daily_gapfill_adversarial_oracle(ray_session, tmp_path):
    """Gap-fill vs its spine oracle on events engineered with a 3-day hole
    in one type and a type active on only the first day — the zero rows
    must appear for both."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import events_daily_gapfill

    day_us = 86_400_000_000
    rows = [("a", 0, 1.0), ("a", 0, 2.0), ("a", 4, 3.0),   # a: hole days 1-3
            ("b", 0, 5.0)]                                  # b: day 0 only
    tbl = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([1_600_000_000_000_000 + d * day_us
                        for _, d, _ in rows], pa.timestamp("us")),
        "user_id": pa.array([1] * len(rows), pa.int64()),
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    got = events_daily_gapfill(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    exp = con.execute(entrymod.oracle_sql()["events_daily_gapfill"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    assert len(got) == 10                      # 2 types x 5 days
    g = got.set_index(["event_type", "day"])
    base = got["day"].min()
    for d in (1, 2, 3):
        assert g.loc[("a", base + d), "n"] == 0
    assert g.loc[("b", base + 4), "n"] == 0
    assert g.loc[("a", base), "sum_value_cents"] == 300


def test_referential_audit_detects_orphans(ray_session, tmp_path):
    """referential_audit vs its oracle on tables with PLANTED violations:
    two events pointing at missing customers, one orphan lineitem row, a
    supplier with an unknown nation — and clean vector/doc alignment."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import referential_audit

    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_name": pa.array(["a", "b"]),
        "c_nationkey": pa.array([0, 0], pa.int32()),
        "c_acctbal": pa.array([0.0, 0.0]),
        "c_mktsegment": pa.array(["X", "X"]),
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "ts": pa.array([1] * 3, pa.timestamp("us")),
        "user_id": pa.array([1, 99, 98], pa.int64()),   # 2 orphans
        "event_type": pa.array(["v"] * 3),
        "value": pa.array([1.0] * 3),
    }), str(tmp_path / "events.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10], pa.int64()),
        "o_custkey": pa.array([1], pa.int64()),
        "o_orderdate": pa.array([1], pa.timestamp("us")),
        "o_totalprice": pa.array([1.0]),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 11], pa.int64()),   # 11 orphan
        "l_extendedprice": pa.array([1.0, 1.0]),
        "l_discount": pa.array([0.0, 0.0]),
        "l_returnflag": pa.array(["N", "N"]),
        "l_linestatus": pa.array(["O", "O"]),
        "l_quantity": pa.array([1.0, 1.0]),
        "l_partkey": pa.array([1, 1], pa.int64()),
        "l_shipdate": pa.array([1, 1], pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0], pa.int64()),
        "n_name": pa.array(["X"]),
        "n_regionkey": pa.array([0], pa.int64()),
    }), str(tmp_path / "nation.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 7], pa.int64()),    # 7 unknown
    }), str(tmp_path / "supplier.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["x"]),
        "lang": pa.array(["en"]),
        "source": pa.array(["s"]),
        "n_chars": pa.array([1], pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    pq.write_table(pa.table({
        "vec_id": pa.array([0], pa.int64()),
        "embedding": pa.array([[0.0]], pa.list_(pa.float32())),
        "label": pa.array([0], pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))

    got = referential_audit(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    for t in ("customer", "events", "orders", "lineitem", "nation",
              "supplier", "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    exp = con.execute(entrymod.oracle_sql()["referential_audit"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index("check_name")["n_orphans"]
    assert g["events_user_in_customer"] == 2
    assert g["lineitem_order_in_orders"] == 1
    assert g["supplier_nation_in_nation"] == 1
    assert g["vectors_doc_in_documents"] == 0


def test_corpus_sample_exact_and_degree_histogram(ray_session, tmp_path):
    """corpus_sample_exact returns EXACTLY n rows in hash order;
    degree_histogram's counts sum to the node/edge totals and include the
    in-degree-0 row when pages exist that nothing links to."""
    import hashlib as _hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.pipelines.webgraph import degree_histogram
    from lexmapr_ray.stages.textstats import corpus_sample_exact

    n = 37
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n, pa.string()),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
        "n_chars": pa.array([1] * n, pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = corpus_sample_exact(str(tmp_path), n=10).to_pandas()
    assert len(got) == 10
    exp = sorted(range(n),
                 key=lambda d: (_hashlib.md5(str(d).encode()).hexdigest(), d))[:10]
    assert got["doc_id"].tolist() == exp
    assert got["sample_key"].is_monotonic_increasing

    h = degree_histogram(str(tmp_path)).to_pandas()
    hin = h[h["direction"] == "in"]
    hout = h[h["direction"] == "out"]
    assert hin["n_nodes"].sum() == n                 # every node counted once
    n_edges = sum(1 + d % 3 for d in range(n))
    assert (hout["degree"] * hout["n_nodes"]).sum() == n_edges
    assert (hin["degree"] * hin["n_nodes"]).sum() == n_edges
    assert (h["n_nodes"] > 0).all()


def test_collocations_adversarial_oracle(ray_session, tmp_path):
    """collocations vs its HUGEINT PMI oracle on a corpus where a rare
    but perfectly-bound pair ("hong kong") must out-score a frequent but
    promiscuous pair ("the cat"/"the dog"), and sub-min_count pairs must
    not appear."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import collocations

    texts = (["hong kong"] * 6                      # bound pair, 6x
             + ["the cat sat"] * 10
             + ["the dog ran"] * 10
             + ["rare pair"] * 4                    # below min_count=5
             + ["filler words here"] * 10)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = collocations(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["collocations"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    pairs = list(zip(got["w1"], got["w2"]))
    assert pairs[0] == ("hong", "kong")
    assert ("rare", "pair") not in pairs            # min_count floor
    hk = got.iloc[0]["pmi_scaled"]
    the_cat = got.set_index(["w1", "w2"])["pmi_scaled"].get(("the", "cat"))
    assert the_cat is None or hk > the_cat


def test_vocab_coverage_adversarial_oracle(ray_session, tmp_path):
    """vocab_coverage on a Zipf-like toy corpus with a hand-checkable
    curve: 'a' x 50, 'b' x 30, 'c' x 15, 'd' x 5 — 50% crosses at 1 type
    (exactly at the boundary), 90% at 3, 99% at 4."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import vocab_coverage

    text = " ".join(["a"] * 50 + ["b"] * 30 + ["c"] * 15 + ["d"] * 5)
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([text], pa.string()),
        "lang": pa.array(["en"]),
        "source": pa.array(["s"]),
        "n_chars": pa.array([len(text)], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = vocab_coverage(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["vocab_coverage"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index("permille")
    assert g.loc[500, "n_types"] == 1 and g.loc[500, "tokens_covered"] == 50
    assert g.loc[900, "n_types"] == 3
    assert g.loc[990, "n_types"] == 4


def test_host_near_dup_mirror_detection(ray_session, tmp_path):
    """host_near_dup on a planted mirror: host 1 carries byte-identical
    copies of host 0's docs (100% signature agreement — min-merge of
    identical sketch sets), host 2 shares half the docs (partial
    agreement), host 3 is unrelated noise — plus serial-mirror equality."""
    import sys

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.dedup import host_near_dup

    rng = np.random.RandomState(42)
    vocab = [f"w{i}" for i in range(200)]

    def doc(seed):
        r = np.random.RandomState(seed)
        return " ".join(r.choice(vocab, 40))

    base = [doc(100 + i) for i in range(16)]
    mirror = list(base)                       # host 1 == host 0
    half = base[:8] + [doc(300 + i) for i in range(8)]   # host 2: 50% shared
    noise = [doc(500 + i) for i in range(16)]
    texts = base + mirror + half + noise
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = host_near_dup(str(tmp_path)).to_pandas().reset_index(drop=True)
    pairs = {(r.host_a, r.host_b): r.sig_match_pct for r in got.itertuples()}
    assert pairs.get((0, 1)) == 100          # perfect mirror
    assert (0, 2) in pairs and 5 <= pairs[(0, 2)] < 100
    assert all(3 not in p for p in pairs)    # noise host pairs with no one

    sys.path.insert(0, "/root/repo/tools")
    import make_op_expected as ops
    exp = ops.serial_host_near_dup(list(range(len(texts))), texts)
    assert sorted(map(tuple, got.itertuples(index=False))) == sorted(exp)


def test_max_concurrent_sessions_adversarial_oracle(ray_session, tmp_path):
    """Sweep-line vs its window-cumsum oracle on hand-built overlap: three
    users whose sessions nest (peak 3), a same-instant open/close tie
    (+1 must count before -1), and a later equal-peak that must NOT move
    the earliest-instant answer."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.windows import max_concurrent_sessions

    m = 60_000_000  # one minute in us
    base = 1_700_000_000_000_000
    rows = [
        (1, base + 0 * m), (1, base + 10 * m),        # u1: [0, 10]
        (2, base + 5 * m), (2, base + 12 * m),        # u2: [5, 12]
        (3, base + 10 * m),                           # u3: [10,10] (tie)
        # second window, same peak of 3, later — must not win argmin
        (4, base + 100 * m), (4, base + 110 * m),
        (5, base + 105 * m), (5, base + 112 * m),
        (6, base + 108 * m),
    ]
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "event_type": pa.array(["v"] * len(rows)),
        "value": pa.array([1.0] * len(rows)),
    }), str(tmp_path / "events.parquet"))

    got = max_concurrent_sessions(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    exp = con.execute(
        entrymod.oracle_sql()["max_concurrent_sessions"]).fetchdf()
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    assert got["max_concurrent"].iloc[0] == 3
    assert got["at_ts_us"].iloc[0] == base + 10 * m   # the tie instant


def test_event_transitions_adversarial_oracle(ray_session, tmp_path):
    """event_transitions vs its LAG oracle on hand-built sequences: each
    user's first event starts no transition, cross-user adjacency must
    not leak, and the permille rows of each from-type are exact."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.windows import event_transitions

    seq = [(1, "a"), (1, "b"), (1, "a"), (1, "c"),   # u1: a->b, b->a, a->c
           (2, "b"), (2, "a"), (2, "a")]             # u2: b->a, a->a
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(seq)), pa.int64()),
        "ts": pa.array([1_700_000_000_000_000 + i * 1_000_000
                        for i in range(len(seq))], pa.timestamp("us")),
        "user_id": pa.array([u for u, _ in seq], pa.int64()),
        "event_type": pa.array([t for _, t in seq], pa.string()),
        "value": pa.array([1.0] * len(seq)),
    }), str(tmp_path / "events.parquet"))

    got = event_transitions(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    exp = con.execute(entrymod.oracle_sql()["event_transitions"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index(["from_type", "to_type"])
    assert g.loc[("a", "b"), "n"] == 1 and g.loc[("a", "b"), "p_permille"] == 333
    assert g.loc[("b", "a"), "n"] == 2 and g.loc[("b", "a"), "p_permille"] == 1000
    assert ("c", "b") not in g.index      # u1 ends at c; u2 starts at b
    assert int(got["n"].sum()) == len(seq) - 2   # one lost start per user


def test_new_ops_survive_tiny_block_target(ray_session):
    """End-to-end block-split stress for this round's heavy composite ops:
    dup_span_trim and token_triangles at sf0.001 must produce IDENTICAL
    output under a 16 KiB target_max_block_size (forcing maximal dynamic
    splitting everywhere the pinned invariants allow) as under the
    default — any reliance on 'one key per batch' outside the safe
    placements would surface as a diff here."""
    from ray.data import DataContext

    from lexmapr_ray.pipelines.webgraph import token_triangles
    from lexmapr_ray.stages.dedup import dup_span_trim

    sf = "/root/testdata/sf0.001"
    base_trim = dup_span_trim(sf).to_pandas().reset_index(drop=True)
    base_tri = token_triangles(sf).to_pandas().reset_index(drop=True)

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        tiny_trim = dup_span_trim(sf).to_pandas().reset_index(drop=True)
        tiny_tri = token_triangles(sf).to_pandas().reset_index(drop=True)
    finally:
        ctx.target_max_block_size = old

    pd.testing.assert_frame_equal(base_trim, tiny_trim)
    pd.testing.assert_frame_equal(base_tri, tiny_tri)


@pytest.fixture(scope="module")
def tiny_block_dir(tmp_path_factory, sf_dir):
    """Inputs big enough that a 16 KiB block target splits each exchange
    input below: 20,000 events over 500 users, 300 documents over 12
    sources with a 2,000-word vocabulary, and the test embeddings."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("tiny_blocks")
    rng = np.random.RandomState(11)
    n = 20_000
    pq.write_table(pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pa.array(1_704_067_200_000_000
                       + rng.randint(0, 30 * 86_400_000_000, n), pa.timestamp("us")),
        "user_id": rng.randint(0, 500, n).astype(np.int64),
        "event_type": pa.array(rng.choice(["view", "click", "purchase", "signup"], n)),
        "value": np.round(rng.uniform(0, 500, n), 2),
    }), d / "events.parquet")
    docs = 300
    pq.write_table(pa.table({
        "doc_id": np.arange(docs, dtype=np.int64),
        "source": [f"src{i % 12}" for i in range(docs)],
        "text": [" ".join(f"w{j}" for j in rng.randint(0, 2000, 30))
                 for _ in range(docs)],
    }), d / "documents.parquet")
    shutil.copy(f"{sf_dir}/embeddings.parquet", d / "embeddings.parquet")
    return str(d)


@pytest.mark.parametrize("query, final", [
    ("lexmapr_ray.pipelines.windows.events_funnel", "funnel_block"),
    ("lexmapr_ray.pipelines.relational.events_retention_cohorts", "cohort_block"),
    ("lexmapr_ray.pipelines.relational.event_value_quantiles", "finalize"),
    ("lexmapr_ray.stages.textstats.source_vocab_overlap", "pair_block"),
    ("lexmapr_ray.stages.similarity.embedding_near_dup_pairs", "pairs_block"),
])
def test_colocation_survives_tiny_block_target(ray_session, tiny_block_dir,
                                               monkeypatch, query, final):
    """One query per module whose co-location exchange goes through
    ``groupagg.sorted_final`` (windows, relational, quantiles, textstats,
    similarity) gives the same rows under a 16 KiB block target as under
    the default.  The named ``final`` exchange's input must really reach
    the sort in more than one block, so the split is exercised."""
    import importlib
    import sys

    import ray
    from ray.data import DataContext

    from lexmapr_ray.functions import groupagg

    module, name = query.rsplit(".", 1)
    fn = getattr(importlib.import_module(module), name)

    def rows(ds):
        df = ds.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    base = rows(fn(tiny_block_dir))

    real = groupagg.sorted_final
    blocks = {}

    def recording(partials, keys, final_fn):
        partials = partials.materialize()
        blocks.setdefault(getattr(final_fn, "__name__", ""), []).append(
            sum(1 for b in ray.get(partials.to_arrow_refs()) if b.num_rows))
        return real(partials, keys, final_fn)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lexmapr_ray.") \
                and getattr(mod, "sorted_final", None) is real:
            monkeypatch.setattr(mod, "sorted_final", recording)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 16 * 1024)
    tiny = rows(fn(tiny_block_dir))

    assert max(blocks.get(final, [0])) > 1, blocks
    assert len(base) > 0
    pd.testing.assert_frame_equal(base, tiny)


def test_source_vocab_overlap_adversarial_oracle(ray_session, tmp_path):
    """source_vocab_overlap on sources built to discriminate: identical
    vocabularies (jaccard 1000), half overlap (cross-doc union within a
    source must count types once), and fully disjoint (pair absent)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import source_vocab_overlap

    rows = [("s1", "a b c d"), ("s1", "a b"),        # s1 vocab {a,b,c,d}
            ("s2", "a b"), ("s2", "c d"),            # s2 vocab {a,b,c,d}
            ("s3", "c d e f"),                       # s3: half of s1
            ("s4", "x y z")]                         # s4: disjoint
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([t for _, t in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows)),
        "source": pa.array([s for s, _ in rows], pa.string()),
        "n_chars": pa.array([len(t) for _, t in rows], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = source_vocab_overlap(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["source_vocab_overlap"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index(["source_a", "source_b"])
    assert g.loc[("s1", "s2"), "jaccard_permille"] == 1000
    assert g.loc[("s1", "s3"), "n_common"] == 2          # {c, d}
    assert g.loc[("s1", "s3"), "n_union"] == 6
    assert g.loc[("s1", "s3"), "jaccard_permille"] == 333
    assert ("s1", "s4") not in g.index                   # disjoint pair absent


def test_cluster_representatives_argmax_contract(ray_session, tmp_path):
    """cluster_representatives on two separated clusters where the argmax
    and its doc_id tie-break are hand-computable, with an empty-text doc
    that must be ineligible."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages.similarity import (cluster_representatives,
                                               embedding_kmeans)
    from lexmapr_ray.stages.textstats import hashed_classifier_score

    rng = np.random.RandomState(3)
    n_half, dim = 10, 8
    vecs = np.vstack([rng.normal(5, 0.1, (n_half, dim)),
                      rng.normal(-5, 0.1, (n_half, dim))]).astype(np.float32)
    texts = [f"tok{i} tok{i} filler common words here" for i in range(19)]
    texts.append("")                                  # ineligible empty doc
    pq.write_table(pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float32())),
        "label": pa.array([0] * 20, pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 20),
        "source": pa.array(["s"] * 20),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = cluster_representatives(str(tmp_path)).to_pandas()
    assign = embedding_kmeans(str(tmp_path)).to_pandas() \
        .set_index("vec_id")["cluster"]
    scores = hashed_classifier_score(str(tmp_path)).to_pandas() \
        .set_index("doc_id")["logit_milli"]

    assert 19 not in set(got["doc_id"])               # empty doc excluded
    for row in got.itertuples():
        members = [d for d in scores.index if assign.loc[d] == row.cluster]
        best = sorted(members, key=lambda d: (-scores.loc[d], d))[0]
        assert row.doc_id == best
        assert row.logit_milli == scores.loc[best]


def test_split_drift_adversarial_oracle(ray_session, tmp_path):
    """split_drift vs its HUGEINT oracle on doc ids CHOSEN by their md5
    gate so the splits are controlled: identical distributions must read
    0 permille; fully disjoint vocabularies must read 1000."""
    import hashlib as _h

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import split_drift

    def permille(d):
        return int(_h.md5(str(d).encode()).hexdigest()[:8], 16) % 1000

    test_ids = [d for d in range(4000) if permille(d) < 50][:4]
    train_ids = [d for d in range(4000) if permille(d) >= 50][:4]

    def write(docs, path):
        ids = [d for d, _ in docs]
        texts = [t for _, t in docs]
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(["s"] * len(ids)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }), str(path / "documents.parquet"))

    for texts_fn, expected in (
        (lambda d: "a b c", 0),                               # identical
        (lambda d: "x y z" if permille(d) < 50 else "a b c", 1000),  # disjoint
    ):
        docs = [(d, texts_fn(d)) for d in test_ids + train_ids]
        write(docs, tmp_path)
        got = split_drift(str(tmp_path)).to_pandas()
        con = duckdb.connect()
        con.execute(f"CREATE OR REPLACE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/documents.parquet')")
        exp = con.execute(entrymod.oracle_sql()["split_drift"]).fetchdf()
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)],
            check_dtype=False)
        assert got["drift_permille"].iloc[0] == expected


def test_top_phrases_adversarial_oracle(ray_session, tmp_path):
    """top_phrases vs its oracle: a within-doc repeated phrase counts with
    multiplicity, cross-doc boundaries never join, ties break by phrase,
    and <n-token docs contribute nothing."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.textstats import top_phrases

    texts = ["red green blue red green blue",   # "red green blue" twice-ish
             "alpha beta gamma",
             "alpha beta gamma",
             "tiny doc", ""]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = top_phrases(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["top_phrases"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    g = got.set_index("phrase")["n_occurrences"]
    assert g["red green blue"] == 2
    assert g["alpha beta gamma"] == 2
    assert got["phrase"].iloc[0] == "alpha beta gamma"   # tie-break
    assert "tiny doc" not in g.index


def test_revenue_rollup_level_conservation(ray_session, sf_dir):
    """revenue_rollup vs its oracle at sf0.001, plus the conservation
    laws the levels must obey: each nation subtotal equals the sum of its
    detail years, and the grand total equals the sum of subtotals."""
    import duckdb

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.relational import revenue_rollup

    got = revenue_rollup(sf_dir).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    for t in ("orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    exp = con.execute(entrymod.oracle_sql()["revenue_rollup"]).fetchdf() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False)

    detail = got[(got["yr"] != 0)]
    subs = got[(got["yr"] == 0) & (got["n_name"] != "ALL")]
    grand = got[got["n_name"] == "ALL"]["total_cents"].iloc[0]
    per_nation = detail.groupby("n_name")["total_cents"].sum()
    for row in subs.itertuples():
        assert row.total_cents == per_nation[row.n_name]
    assert grand == subs["total_cents"].sum() == detail["total_cents"].sum()


def test_auto_concurrency_pool_sizing(ray_session):
    """Task-limit contract: the default is the int 7/8 of the session's
    CPUs (at least one); explicit ints are honored but capped to it, so
    re-applying the rule is a no-op; ``frac`` rescales the cap."""
    import ray

    from lexmapr_ray.stages.dedup import _auto_concurrency as auto

    cap = auto()
    cpus = int(ray.cluster_resources()["CPU"])
    assert isinstance(cap, int) and cap == max(1, cpus * 7 // 8)
    assert auto(cap + 100) == cap        # explicit int capped
    assert auto(2) == 2                  # explicit int honored
    assert auto(auto()) == auto()        # idempotent re-application
    assert auto(frac=(1, 2)) == max(1, cpus // 2)


def test_minhash_index_dedup_persisted_equals_recompute(ray_session, sf_dir,
                                                        tmp_path):
    """The persisted-LSH-index ingest topology (band the new side only,
    union with the write-once (doc_id, bucket) parquet index) must yield
    verdicts row-identical to the recompute path — and the second call
    must reuse the index (idempotent _INDEXED marker), not rebuild it."""
    import os

    import pandas as pd

    from lexmapr_ray.stages.dedup import (build_minhash_bucket_index,
                                          minhash_index_dedup,
                                          minhash_index_dedup_persisted)

    idx = str(tmp_path / "mh_index")
    base = minhash_index_dedup(sf_dir).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    got = minhash_index_dedup_persisted(sf_dir, index_dir=idx).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, got)

    marker = os.path.join(idx, "_INDEXED")
    assert os.path.exists(marker)
    stamp = os.path.getmtime(marker)
    again = minhash_index_dedup_persisted(sf_dir, index_dir=idx).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, again)
    assert os.path.getmtime(marker) == stamp  # index not rebuilt


def test_ivf_index_dir_keys_on_layout_version(tmp_path, monkeypatch):
    """The default location of each persisted index (IVF, MinHash bucket)
    changes with its parameter and its layout version, so an index written
    by older code is never read back."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lexmapr_ray.stages import dedup, similarity

    for table in ("embeddings", "documents"):
        pq.write_table(pa.table({"id": [0]}), str(tmp_path / f"{table}.parquet"))
    for mod, where, version in ((similarity, similarity.ivf_index_dir, "IVF_INDEX_VERSION"),
                                (dedup, dedup.minhash_index_dir, "MINHASH_INDEX_VERSION")):
        here = where(str(tmp_path), 16)
        assert here == where(str(tmp_path), 16)
        assert here != where(str(tmp_path), 8)
        with monkeypatch.context() as m:
            m.setattr(mod, version, getattr(mod, version) + 1)
            assert here != where(str(tmp_path), 16)
    assert similarity.ivf_index_dir(str(tmp_path), 16) != dedup.minhash_index_dir(str(tmp_path), 16)


def test_ann_ivf_persisted_index_equals_recompute(ray_session, sf_dir,
                                                  tmp_path):
    """The persisted partitioned-IVF probe (read only the nprobe
    centroid=... partition dirs) must equal the recompute path exactly,
    and the second call must reuse the index."""
    import os

    import pandas as pd

    from lexmapr_ray.stages.similarity import (ann_ivf_topk,
                                               ann_ivf_topk_persisted)

    idx = str(tmp_path / "ivf_index")
    base = ann_ivf_topk(sf_dir).to_pandas().reset_index(drop=True)
    got = ann_ivf_topk_persisted(sf_dir, index_dir=idx).to_pandas() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(base, got)

    marker = os.path.join(idx, "_INDEXED")
    stamp = os.path.getmtime(marker)
    again = ann_ivf_topk_persisted(sf_dir, index_dir=idx).to_pandas() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(base, again)
    assert os.path.getmtime(marker) == stamp
    # the index is genuinely partitioned: >1 centroid directory on disk
    parts = [d for d in os.listdir(os.path.join(idx, "data"))
             if d.startswith("centroid=")]
    assert len(parts) > 1


def test_bm25_search_exact_vs_oracle_and_saturating(ray_session, tmp_path):
    """Adversarial BM25 corpus: term spam (tf saturation), a short doc
    with every query term once, a rare-term-only doc (IDF dominance), an
    empty doc, and heavy filler (dl normalization). Engine must be
    bit-equal to the SQL oracle AND show the two defining BM25 behaviors:
    tf saturates (100x spam does not score 100x) and a short multi-term
    doc beats a long single-term one."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.similarity import bm25_search

    texts = [
        "merge " * 100,                        # 0: term spam
        "spark merge window",                  # 1: all terms, shortest
        "window",                              # 2: rarest-ish single term
        "",                                    # 3: empty (dl 0)
        "spark " + "filler " * 200,            # 4: one term, long doc
        "the quick brown fox",                 # 5: no query term
        "merge spark",                         # 6: two terms
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array([t.strip() for t in texts], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = bm25_search(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["bm25_search"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True),
                                  check_dtype=False)

    score = got.set_index("doc_id")["bm25_e6"]
    assert 5 not in score.index and 3 not in score.index
    # tf saturation: 100 copies of 'merge' score < 3x a single copy
    one_merge = score[6]  # doc 6 has merge tf=1 (plus spark)
    assert score[0] < 3 * one_merge
    # the short all-terms doc outranks the long single-term doc
    assert score[1] > score[4]


def test_crawl_diff_statuses_exact(ray_session, tmp_path):
    """Every status class planted by doc_id residues: absent (in neither
    snapshot: 35), added (multiple of 5 only), removed (multiple of 7
    only), changed (in both, doc_id%3 != 0), unchanged (in both,
    doc_id%3 == 0). Engine must be bit-equal to the FULL OUTER JOIN
    oracle and match the residue-derived expectation per url."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.sources.pages import crawl_diff

    ids = [0, 1, 2, 3, 5, 6, 7, 9, 10, 14, 15, 21, 35, 70]
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([f"content {d}" for d in ids], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = crawl_diff(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["crawl_diff"]).fetchdf()
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False)

    by_url = got.set_index("url")["status"]
    for d in ids:
        in_old, in_new = d % 5 != 0, d % 7 != 0
        if not in_old and not in_new:
            assert f"doc://{d}" not in by_url.index
        elif not in_old:
            assert by_url[f"doc://{d}"] == "added"
        elif not in_new:
            assert by_url[f"doc://{d}"] == "removed"
        else:
            assert by_url[f"doc://{d}"] == (
                "unchanged" if d % 3 == 0 else "changed")
    assert set(by_url.unique()) == {"added", "removed", "changed",
                                    "unchanged"}


def test_weighted_sample_systematic_pps(ray_session, tmp_path):
    """Systematic PPS adversarial cases: zero-weight docs are never
    selected, an oversize doc (> W/n) wins multiple adjacent points,
    exactly n rows come back, and the distributed prefix-sum resolve is
    bit-equal to a serial cumsum replay — also under a 16 KiB block
    target that forces many blocks through the offset path."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from lexmapr_ray.stages.textstats import weighted_sample

    rng = np.random.RandomState(7)
    n_docs, n = 60, 9
    weights = rng.randint(1, 50, n_docs).astype(np.int64)
    weights[[3, 17, 41]] = 0            # never selectable
    weights[25] = 2000                  # oversize: > W/n, multi-win
    tbl = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(["x"] * n_docs, pa.string()),
        "n_chars": pa.array(weights),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    def serial(n_pts):
        cum = np.cumsum(weights)
        w_tot = int(cum[-1])
        rows = []
        for j in range(n_pts):
            s = ((2 * j + 1) * w_tot) // (2 * n_pts)
            rows.append((j, int(np.searchsorted(cum, s, side="right"))))
        return pd.DataFrame(rows, columns=["sample_idx", "doc_id"])

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        got = weighted_sample(str(tmp_path), n=n).to_pandas()
    finally:
        ctx.target_max_block_size = old
    want = serial(n)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_dtype=False)
    assert len(got) == n
    assert not set(got["doc_id"]) & {3, 17, 41}
    assert (got["doc_id"] == 25).sum() >= 2  # oversize doc wins repeatedly


@pytest.mark.parametrize("case", ["many_blocks", "sparse_partitions", "empty"])
def test_prefix_sums_matches_serial_lexsort(ray_session, case):
    """prefix_sums vs a serial numpy lexsort + cumsum under a 16 KiB block
    target: ``row`` is each row's position in (a asc, b desc) order and
    ``w_before`` the running sum of ``w`` over earlier rows.  The leading
    key column is heavily tied, ``w`` holds zeros, and the inputs are
    many blocks, 3 rows over 8 sort partitions, and no rows at all."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from lexmapr_ray.functions.ranks import prefix_sums

    n = {"many_blocks": 20_000, "sparse_partitions": 3, "empty": 0}[case]
    rng = np.random.RandomState(5)
    a = rng.randint(0, 3, n).astype(np.int64)
    b = rng.permutation(n).astype(np.int64)
    w = rng.randint(0, 4, n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"a": a, "b": b, "w": w}))
    ds = ds.repartition(20 if case == "many_blocks" else 8)

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        out, totals = prefix_sums(ds, ["a", "b"], descending=[False, True],
                                  sums=["w"])
        blocks = [t for t in ray.get(out.materialize().to_arrow_refs())
                  if t.num_rows]
    finally:
        ctx.target_max_block_size = old

    order = np.lexsort((-b, a))
    assert totals == {"rows": n, "w": int(w.sum())}
    got = {c: np.concatenate([t[c].to_numpy() for t in blocks]
                             or [np.zeros(0, np.int64)])
           for c in ("a", "b", "w", "row", "w_before")}
    # blocks may arrive in any order; ``row`` places every row
    by_row = np.argsort(got["row"])
    got = {c: v[by_row] for c, v in got.items()}
    assert np.array_equal(got["row"], np.arange(n))
    assert np.array_equal(got["a"], a[order])
    assert np.array_equal(got["b"], b[order])
    assert np.array_equal(got["w_before"], np.cumsum(w[order]) - w[order])
    if case == "many_blocks":
        assert len(blocks) > 1


def test_prefix_sums_raises_on_duplicate_block_keys(ray_session, monkeypatch):
    """Equal keys are co-partitioned, so no two sorted blocks start with
    the same key.  When the stats rows say otherwise, prefix_sums raises
    instead of applying a wrong block offset."""
    import ray.data as rd

    from lexmapr_ray.functions.ranks import prefix_sums

    seen = []
    take_all = rd.Dataset.take_all

    def same_first_key(self, *args, **kwargs):
        rows = take_all(self, *args, **kwargs)
        seen.append(len(rows))
        return [{**r, "k0": rows[0]["k0"]} for r in rows]

    monkeypatch.setattr(rd.Dataset, "take_all", same_first_key)
    with pytest.raises(RuntimeError, match="same key"):
        prefix_sums(rd.range(1000).repartition(8), "id")
    assert seen[0] > 1


PREFIX_SUM_OPS = (
    ("lexmapr_ray.stages.packing", "sequence_pack"),
    ("lexmapr_ray.stages.packing", "curate_pack_shuffle"),
    ("lexmapr_ray.stages.textstats", "vocab_coverage"),
    ("lexmapr_ray.stages.textstats", "weighted_sample"),
    ("lexmapr_ray.stages.textstats", "score_percentile"),
    ("lexmapr_ray.stages.textstats", "corpus_shuffle_order"),
    ("lexmapr_ray.stages.similarity", "rrf_search"),
    ("lexmapr_ray.pipelines.windows", "max_concurrent_sessions"),
    ("lexmapr_ray.pipelines.relational", "fuzzy_name_pairs"),
)


def test_prefix_sum_plans_are_arrow_only(ray_session, sf_dir, monkeypatch):
    """No ``map_batches`` of the prefix-sum operators or of
    fuzzy_name_pairs asks for pandas batches."""
    import importlib

    import ray.data as rd

    formats = []
    map_batches = rd.Dataset.map_batches

    def recording(self, fn, *args, batch_format="default", **kwargs):
        formats.append(batch_format)
        return map_batches(self, fn, *args, batch_format=batch_format, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", recording)
    for module, name in PREFIX_SUM_OPS:
        formats.clear()
        op = getattr(importlib.import_module(module), name)
        assert op(sf_dir).materialize().count() > 0, name
        assert formats and "pandas" not in formats, (name, formats)


def test_paragraph_dedup_adversarial_exact(ray_session, tmp_path):
    """Paragraph-dedup winner semantics on a corpus the testdata can't
    produce (its docs are single-paragraph): within-doc duplicate
    paragraphs, cross-doc duplicates where position decides the winner,
    a doc whose EVERY paragraph loses (kept_text=''), and the trailing
    '.' that makes the final split piece distinct. Engine bit-equal to
    the ROW_NUMBER oracle."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.stages.dedup import paragraph_dedup

    texts = [
        "x. y. x. z.",        # doc 0: within-doc dup ('x' pos 3 loses)
        "y. w.",              # doc 1: 'y' loses to doc 0 pos 2
        "y. w.",              # doc 2: full duplicate of doc 1 -> kept_text ''
        "unique alpha. z.",   # doc 3: 'z.' (trailing dot) loses to doc 0
        "x",                  # doc 4: single paragraph, loses to doc 0 pos 1
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    got = paragraph_dedup(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["paragraph_dedup"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True),
                                  check_dtype=False)

    by_doc = got.set_index("doc_id")
    assert by_doc.loc[0, "kept_text"] == "x. y. z."   # pos-3 'x' removed
    assert by_doc.loc[0, ["n_paras", "n_kept", "n_removed"]].tolist() == [4, 3, 1]
    assert by_doc.loc[1, "kept_text"] == "w."         # 'y' lost cross-doc
    assert by_doc.loc[2, "kept_text"] == ""           # full duplicate doc
    assert by_doc.loc[2, "n_removed"] == 2
    assert by_doc.loc[3, "kept_text"] == "unique alpha"  # 'z.' lost
    assert by_doc.loc[4, "kept_text"] == ""           # single-para loser


def test_url_canonicalize_rules_and_oracle(ray_session, tmp_path):
    """canonicalize_url edge rules (fragment, case, both default ports,
    trailing slashes, tracking-param prefixes vs lookalikes, param sort,
    bare root path) + engine vs the independent DuckDB regexp/list
    formulation over doc_ids covering every variant-count residue."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.sources.pages import canonicalize_url, url_canonicalize

    cases = {
        "HTTP://WWW.Ex.COM:80/A/b//#x?y": "http://www.ex.com/A/b",
        "https://ex.com:443/": "https://ex.com/",
        "https://ex.com": "https://ex.com/",
        "https://ex.com/p?b=2&a=1&utm_campaign=z&ref=hp":
            "https://ex.com/p?a=1&b=2",
        # 'utmx' / 'refx' / 'referrer' are NOT tracking params
        "https://ex.com/p?utmx=1&refx=2&referrer=3":
            "https://ex.com/p?referrer=3&refx=2&utmx=1",
        "https://ex.com:8080/p?gclid=1&fbclid=2": "https://ex.com:8080/p",
        "https://ex.com/p?": "https://ex.com/p",
    }
    for raw, want in cases.items():
        assert canonicalize_url(raw) == want, raw

    ids = list(range(23))  # covers d%3 in {0,1,2}, d%7 and %37 variety
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(["t"] * len(ids), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = url_canonicalize(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["url_canonicalize"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True),
                                  check_dtype=False)
    # all three raw variants of one doc collapse to ONE canonical url
    assert got.loc[got["url"] == "https://host2.example/p/2?q=2",
                   "n_captures"].item() == 3


def test_scalar_agg_queries_emit_zero_row_when_filter_matches_nothing(
        ray_session, sf_dir):
    """Advisor r4: SELECT SUM(..), COUNT(*) over an empty filter returns
    ONE (NULL->0, 0) row in SQL; the constant-key grouped reduce used to
    return ZERO rows — a degenerate corpus or narrowed parameters would
    gate-fail on shape.  q6 with an impossible date window must emit the
    (0, 0) row."""
    from lexmapr_ray.pipelines.relational import q6_forecast_revenue

    got = q6_forecast_revenue(sf_dir, date_lo="2050-01-01",
                              date_hi="2050-01-02").to_pandas()
    assert list(got.columns) == ["revenue_e4", "n_items"]
    assert len(got) == 1
    assert int(got["revenue_e4"].iloc[0]) == 0
    assert int(got["n_items"].iloc[0]) == 0


@pytest.mark.parametrize("empty_side", [None, "left", "right"])
def test_join_kinds_match_arrow_join(ray_session, empty_side, tmp_path):
    """Every ``how`` of bucketed_hash_join equals ONE in-process
    ``pa.Table.join`` of the same tables: duplicate keys on both sides,
    keys on one side only, null payloads, null keys (never matched),
    int64 keys past 2^53 and a renamed ``right_on``; ``block_fn`` receives
    an Arrow table, and some call receives more than one distinct key
    (one merge joins several keys).  Rows compare order-insensitively."""
    import uuid

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from lexmapr_ray.functions.joins import _stable_bucket, bucketed_hash_join

    big = (1 << 62) + 12345
    # a null in the batch must not move a key past 2^53 to another bucket
    assert _stable_bucket(pa.array([big, None]))[0] == \
        _stable_bucket(pa.array([big]))[0]
    left = pa.table({
        "k": pa.array([1, 2, 2, 3, big, big + 1, None, 7], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d", "e", "f", "g", None])})
    right = pa.table({
        "rk": pa.array([2, 2, 4, big + 1, None, 5, big], pa.int64()),
        "rv": pa.array([10, None, 40, 50, 60, 70, 80], pa.int64())})
    if empty_side == "left":
        left = left.slice(0, 0)
    elif empty_side == "right":
        right = right.slice(0, 0)
    kinds = {"inner": "inner", "left": "left outer", "outer": "full outer",
             "semi": "left semi", "anti": "left anti"}

    def arrow_only(t):
        if not isinstance(t, pa.Table):
            raise TypeError(f"block_fn got {type(t).__name__}")
        # block_fn runs in a worker: report its distinct keys through a file
        (tmp_path / uuid.uuid4().hex).write_text(
            str(pc.count_distinct(t["k"]).as_py()))
        return t

    def rows(t: pa.Table) -> pa.Table:
        return t.sort_by([(c, "ascending") for c in t.column_names])

    for how, kind in kinds.items():
        want = left.join(right.rename_columns(["k", "rv"]), "k",
                         join_type=kind, use_threads=False)
        got = bucketed_hash_join(
            rd.from_arrow([left.slice(0, 4), left.slice(4)]),
            rd.from_arrow(right), on="k", right_on="rk", how=how,
            block_fn=arrow_only,
            left_schema=left.schema, right_schema=right.schema,
        ).materialize()
        got = pa.concat_tables(ray.get(got.to_arrow_refs()),
                               promote_options="default")
        assert got.column_names == want.column_names, (how, got.schema)
        assert rows(got).equals(rows(want.cast(got.schema))), \
            (how, got.to_pydict(), want.to_pydict())
    assert max(int(f.read_text()) for f in tmp_path.iterdir()) > 1


def test_join_preserves_int64_keys_past_float53(ray_session):
    """bucketed_hash_join regression (r5): the merge block's pandas hop
    used to promote null-bearing int64 columns to float64, silently
    corrupting any key past 2^53 (md5-derived 63-bit doc ids lost their
    low bits and two DISTINCT ids merged as equal).  Keys differing only
    below float53 resolution must join exactly."""
    import pyarrow as pa
    import ray.data as rd

    from lexmapr_ray.functions.joins import bucketed_hash_join

    base = (1 << 62) + 12345
    # pairs of ids that collide under float64 rounding
    ids = [base, base + 1, base + 256, base + 257]
    left = rd.from_items([{"k": i, "tag": f"L{j}"}
                          for j, i in enumerate(ids)])
    right = rd.from_items([{"k": i, "val": f"R{j}"}
                           for j, i in enumerate(ids)])
    out = bucketed_hash_join(
        left, right, on="k",
        left_schema=pa.schema([("k", pa.int64()), ("tag", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("val", pa.string())]),
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert len(out) == 4, out
    assert list(out["k"]) == sorted(ids)
    assert list(out["tag"]) == ["L0", "L1", "L2", "L3"]
    assert list(out["val"]) == ["R0", "R1", "R2", "R3"]

    # outer join: the null-fill side is exactly where the promotion bit
    outer = bucketed_hash_join(
        left, rd.from_items([{"k": ids[0], "val": "R0"}]), on="k",
        how="left",
        left_schema=pa.schema([("k", pa.int64()), ("tag", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("val", pa.string())]),
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert list(outer["k"]) == sorted(ids)
    assert outer["val"].notna().sum() == 1


def test_pandas_batch_sites_ratchet():
    """One batch format: the engine has no ``batch_format="pandas"`` site,
    and pandas is imported only by the modules that still need it —
    ``joins._stable_bucket``'s string hash, ``components._serial_union_find``
    and the driver-side ``to_pandas``/``rd.from_pandas`` finals."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "lexmapr_ray"
    sites = sum(p.read_text().count('batch_format="pandas"')
                for p in pkg.rglob("*.py"))
    assert sites == 0, sites
    importers = {str(p.relative_to(pkg)) for p in pkg.rglob("*.py")
                 if re.search(r"^\s*(import|from)\s+pandas\b", p.read_text(), re.M)}
    assert importers <= {"functions/joins.py", "functions/components.py",
                         "stages/textstats.py", "pipelines/relational.py"}, importers
    for mod in ("stages/similarity.py", "stages/bpe.py",
                "functions/quantiles.py", "pipelines/windows.py"):
        assert mod not in importers



def test_num_buckets_ratchet():
    """The join partitions on the full key hash, so nothing takes a
    bucket count: no parameter or keyword under ``lexmapr_ray/`` is named
    ``num_buckets``."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "lexmapr_ray"
    found = [f"{p.relative_to(pkg)}:{node.lineno}"
             for p in pkg.rglob("*.py")
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, (ast.arg, ast.keyword))
             and node.arg == "num_buckets"]
    assert not found, found


def test_colocation_sort_ratchet():
    """Every co-location exchange goes through ``groupagg.sorted_final``:
    no ``map_batches`` under ``lexmapr_ray/`` is called directly on a
    ``.sort(...)`` outside ``functions/groupagg.py``, which states and
    pins why that chain is exact."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "lexmapr_ray"
    found = sorted(f"{p.relative_to(pkg)}:{node.lineno}"
                   for p in pkg.rglob("*.py")
                   if p.relative_to(pkg).as_posix() != "functions/groupagg.py"
                   for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "map_batches"
                   and isinstance(node.func.value, ast.Call)
                   and isinstance(node.func.value.func, ast.Attribute)
                   and node.func.value.func.attr == "sort")
    assert not found, f"{len(found)} sort -> map_batches sites: {found}"


def _engine_functions():
    """``(path, def)`` for every function defined under ``lexmapr_ray/``."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "lexmapr_ray"
    for p in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield p.relative_to(pkg), node


def _params(fn):
    a = fn.args
    return [x for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]


def test_sizing_parameters_ratchet():
    """Sizing is the engine's decision: a task limit comes from
    ``_auto_concurrency`` and a size switch from its module's constant.
    Only the parameters a real caller sets (the matcher family's
    ``concurrency``/``batch_size``, ``sorted_group_reduce``'s ``bundle``,
    ``sized_read_parquet``'s ``batch_rows``) are left: 20 parameters named
    ``concurrency``, ``batch_size``, ``bundle``, ``batch_rows`` or
    ``*_limit``.  Lower the count when one goes."""
    found = [f"{p}:{fn.lineno} {fn.name}({x.arg})"
             for p, fn in _engine_functions() for x in _params(fn)
             if x.arg in ("concurrency", "batch_size", "bundle", "batch_rows")
             or x.arg.endswith("_limit")]
    assert len(found) == 20, found


def test_no_dead_parameters():
    """Every parameter of a function under ``lexmapr_ray/`` is read by its
    body (``self``, ``cls`` and ``_``-prefixed names excepted): a value a
    caller can set must change something."""
    import ast

    dead = []
    for p, fn in _engine_functions():
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += [f"{p}:{fn.lineno} {fn.name}({x.arg})" for x in _params(fn)
                 if x.arg not in read and x.arg not in ("self", "cls")
                 and not x.arg.startswith("_")]
    assert not dead, dead


def test_join_queries_probe_no_lazy_schema(ray_session, sf_dir, monkeypatch):
    """The joins of these seven queries take declared schemas, so none
    calls ``Dataset.schema()`` on an unexecuted plan (which runs the plan
    up to its first block just to type it, then cancels the rest)."""
    import traceback

    from ray.data.dataset import Dataset, MaterializedDataset

    from lexmapr_ray.pipelines import relational as rel
    from lexmapr_ray.stages.dedup import corpus_clean

    lazy = []
    schema = Dataset.schema

    def counted(self, *args, **kwargs):
        if not isinstance(self, MaterializedDataset):
            caller = traceback.extract_stack()[-2]
            lazy.append(f"{caller.filename}:{caller.lineno}")
        return schema(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "schema", counted)
    for query in (corpus_clean, rel.q7_volume_shipping, rel.q3_topk_revenue,
                  rel.q5_regional_revenue, rel.q5_full_asia_revenue,
                  rel.customer_orders_left, rel.customer_event_activity):
        query(sf_dir).materialize()
    assert not lazy, lazy

def test_key_topk_matches_python_reference():
    """``key_topk`` keeps each key's first k rows under its order, against
    a sort-and-count over plain tuples: random keys with ties in the order
    columns, k below and above the run lengths, one and two key columns,
    with and without the rank column."""
    import random

    import pyarrow as pa

    from lexmapr_ray.functions.topk import key_topk

    rng = random.Random(7)
    rows = [(rng.randrange(4), rng.randrange(3), rng.randrange(5), i)
            for i in range(300)]
    rng.shuffle(rows)
    t = pa.table({c: [r[j] for r in rows] for j, c in enumerate("abvi")})
    order = [("v", "descending"), ("i", "ascending")]
    for by in (["a"], ["a", "b"]):
        runs: dict = {}
        for r in sorted(rows, key=lambda r: ([r["ab".index(c)] for c in by], -r[2], r[3])):
            runs.setdefault(tuple(r["ab".index(c)] for c in by), []).append(r)
        for k in (1, 3, 1000):
            want = [(r, pos + 1) for run in runs.values()
                    for pos, r in enumerate(run[:k])]
            got = key_topk(t, by if len(by) > 1 else by[0], order, k)
            assert got.column_names == ["a", "b", "v", "i"]
            assert list(zip(*[got[c].to_pylist() for c in "abvi"])) == \
                [r for r, _ in want]
            ranked = key_topk(t, by, order, k, rank="rank")
            assert ranked["rank"].to_pylist() == [p for _, p in want]
            assert ranked["rank"].type == pa.int64()
    assert key_topk(t.slice(0, 0), "a", order, 2, rank="rank").num_rows == 0


def test_read_parquet_drops_schema_metadata(ray_session, tmp_path):
    """Parquet written from pandas carries a ``pandas`` schema-metadata
    dict, which Ray's schema dedup cannot hash; the engine reader hands
    Ray the projected schema without it, so no block carries metadata.
    A ``kg-run`` shard of user pages files is read the same way."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from lexmapr_ray.pipelines.resumable import shard_parquet_pages
    from lexmapr_ray.sources.tables import read_parquet, sized_read_parquet

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(
        {"k": np.arange(100), "s": [str(i) for i in range(100)]})), path)
    assert pq.read_schema(path).metadata
    [(make, _, _)] = shard_parquet_pages([path]).values()
    for ds in (read_parquet(path, ["k"]), read_parquet(path),
               sized_read_parquet(path, ["s", "k"]), make()):
        blocks = ray.get(ds.filter(expr="k >= 0").materialize().to_arrow_refs())
        assert sum(b.num_rows for b in blocks) == 100
        assert all(b.schema.metadata is None for b in blocks)
    assert read_parquet(path, ["s", "k"]).schema().names == ["s", "k"]


def test_sized_read_reads_a_small_file_on_the_driver(ray_session, tmp_path):
    """A small file is read on the driver: its blocks, in order, are the
    file's rows in the requested column order and types, with no schema
    metadata, and no ``ReadParquet`` operator runs.  A 0-row file keeps
    its schema."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from lexmapr_ray.sources.tables import sized_read_parquet

    path, empty = str(tmp_path / "t.parquet"), str(tmp_path / "e.parquet")
    df = pd.DataFrame({"k": np.arange(1000), "s": [str(i) for i in range(1000)],
                       "f": np.arange(1000) / 7})
    pq.write_table(pa.Table.from_pandas(df), path)
    pq.write_table(pa.Table.from_pandas(df).slice(0, 0), empty)
    want = pq.read_table(path, columns=["s", "f"]).replace_schema_metadata()
    ds = sized_read_parquet(path, ["f", "s"])
    blocks = ray.get(ds.to_arrow_refs())
    assert len(blocks) > 1
    assert all(b.schema.metadata is None for b in blocks)
    assert pa.concat_tables(blocks).equals(want.select(["f", "s"]))
    out = ds.map_batches(lambda t: t, batch_format="pyarrow").materialize()
    assert out.count() == 1000 and "ReadParquet" not in out.stats()
    none = sized_read_parquet(empty, ["s", "k"])
    assert none.count() == 0
    assert none.schema().base_schema == pa.schema([("s", pa.string()), ("k", pa.int64())])


def test_no_schema_hash_warnings(sf_dir):
    """A run whose inputs are pandas-written Parquet logs no "Failed to
    hash the schemas" line, from the driver or (``log_to_driver``) from a
    worker: the reads drop the metadata that made the schema dedup fail."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys, time, ray\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False,\n"
        "         log_to_driver=True)\n"
        "import __ray_entry__ as entry\n"
        "qs = entry.queries()\n"
        "for name in sys.argv[2:]:\n"
        "    qs[name](sys.argv[1]).materialize()\n"
        "time.sleep(2)  # the log monitor forwards worker lines\n"
        "ray.shutdown()\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, sf_dir,
         "filter_project", "cluster_top_terms", "tfidf_top_terms"],
        cwd=root, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = proc.stdout + proc.stderr
    assert "Failed to hash the schemas" not in out, \
        [line for line in out.splitlines() if "Failed to hash" in line][:5]
