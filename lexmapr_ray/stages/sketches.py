"""Mergeable sketch operators: HyperLogLog approximate distinct counting.

Why a sketch in a corpus engine: the exact distinct-token passes in this
repo (``source_stats``, ``vocab_topk``) shuffle one row per distinct
value — correct, but at 10^12 documents the distinct-token space is
itself corpus-scale.  A register sketch bounds the shuffle at a CONSTANT
per group: each read batch collapses to one 4096-byte register row per
(group, batch), register merge is an associative element-wise max (so
the engine's standard combiner -> sort-co-located final-merge shape
applies unchanged), and the estimate is computed once per group at the
end.  At 100 TB the HLL pass moves ~n_batches x |groups| x 4 KiB —
independent of cardinality.

Determinism: token hashing is blake2b-8 (engine-wide stable hash), the
estimator is the classic Flajolet HLL with linear-counting small-range
correction, and every float step (2^-register sum, log) runs the same
numpy ops over the same 4096-length arrays in the engine and in the
serial oracle (tools/make_op_expected.py), so the driver gate compares
bit-identical integers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HLL_P = 12
HLL_M = 1 << HLL_P  # 4096 registers, 4 KiB per group row
_IDX_SHIFT = np.uint64(64 - HLL_P)
_LOW_MASK = np.uint64((1 << (64 - HLL_P)) - 1)
_MAX_RANK = 64 - HLL_P + 1  # all-zero low bits
_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)


def hash_tokens(tokens) -> np.ndarray:
    """blake2b-8 of each token, one big-endian uint64 per token."""
    blake = hashlib.blake2b
    buf = b"".join(blake(t.encode(), digest_size=8).digest() for t in tokens)
    return np.frombuffer(buf, dtype=">u8").astype(np.uint64)


def hll_update(registers: np.ndarray, hashes: np.ndarray) -> None:
    """Fold 64-bit hashes into a 4096-register uint8 sketch, in place.

    Register index = top 12 bits; rank = leading-zero count of the low 52
    bits + 1.  The bit length of the low part is recovered EXACTLY via
    ``np.frexp`` — every value below 2^52 is exactly representable as a
    float64, so the returned exponent IS the integer bit length (no
    log2 rounding hazard)."""
    idx = (hashes >> _IDX_SHIFT).astype(np.int64)
    low = hashes & _LOW_MASK
    _, exp = np.frexp(low.astype(np.float64))
    rank = np.where(low == 0, _MAX_RANK, (64 - HLL_P) - exp + 1).astype(np.uint8)
    np.maximum.at(registers, idx, rank)


def hll_estimate(registers: np.ndarray) -> int:
    """Classic HLL estimate with linear-counting small-range correction,
    floored to int64 (the 64-bit hash space needs no large-range term)."""
    regs = registers.astype(np.float64)
    raw = _ALPHA * HLL_M * HLL_M / np.sum(np.exp2(-regs))
    zeros = int(np.count_nonzero(registers == 0))
    if raw <= 2.5 * HLL_M and zeros:
        raw = HLL_M * np.log(HLL_M / np.float64(zeros))
    return int(raw)


def hll_distinct_tokens(sf_dir: str):
    """Per-language approximate distinct-token count (HyperLogLog p=12).

    Shape: map_batches folds each batch's tokens into one register row per
    language (4 KiB, regardless of how many tokens the batch held); the
    grouped reduce merges rows with element-wise max and the final block
    computes the estimate.  The shuffle carries |langs| x n_batches rows
    of 4 KiB — the whole point of the sketch vs the exact distinct pass in
    ``source_stats`` (one row per distinct value).  Token definition is
    the engine-wide one (ASCII-ws trim + \\s+ split)."""
    from lexmapr_ray.functions.groupagg import fold_binary, sorted_group_reduce
    from lexmapr_ray.stages.textstats import _read_documents, _token_lists

    ds = _read_documents(sf_dir, ["lang", "text"])

    def sketch_partial(t: pa.Table) -> pa.Table:
        trimmed, splits = _token_lists(t["text"])
        mask = pc.not_equal(trimmed, "")
        langs = t["lang"].to_numpy(zero_copy_only=False)
        out_lang, out_regs = [], []
        for lang in np.unique(langs):
            lmask = pa.array(langs == lang)
            flat = pc.list_flatten(pc.filter(splits, pc.and_(lmask, mask)))
            # batch-local distinct first: hashing each distinct token once
            # is cheaper than hashing every occurrence, and max-folding is
            # multiplicity-blind anyway
            vocab = pc.unique(flat).to_pylist()
            regs = np.zeros(HLL_M, dtype=np.uint8)
            if vocab:
                hll_update(regs, hash_tokens(vocab))
            out_lang.append(lang)
            out_regs.append(regs.tobytes())
        return pa.table({
            "lang": pa.array(out_lang, pa.string()),
            "regs": pa.array(out_regs, pa.binary()),
        })

    def merge(t: pa.Table) -> pa.Table:
        return fold_binary(t, "lang", "regs", np.uint8, np.maximum)

    def finalize(t: pa.Table) -> pa.Table:
        merged = merge(t)
        return pa.table({"lang": merged["lang"], "approx_distinct": pa.array(
            [hll_estimate(np.frombuffer(r, dtype=np.uint8))
             for r in merged["regs"].to_pylist()], pa.int64())})

    return sorted_group_reduce(
        ds.map_batches(sketch_partial, batch_format="pyarrow"),
        "lang", merge, finalize,
    )


# KMV (bottom-k by hash) sample size: 256 (doc_hash, value) pairs = 4 KiB
# per group row — the quantile analogue of the HLL register row above.
KMV_K = 256
KMV_QS = (10, 25, 50, 75, 90)


def _kmv_pack(hs: np.ndarray, vs: np.ndarray) -> tuple[bytes, bytes]:
    return hs.astype(np.uint64).tobytes(), vs.astype(np.int64).tobytes()


def _kmv_unpack(hb: bytes, vb: bytes) -> tuple[np.ndarray, np.ndarray]:
    return (np.frombuffer(hb, dtype=np.uint64),
            np.frombuffer(vb, dtype=np.int64))


def _kmv_bottom_k(hs: np.ndarray, vs: np.ndarray, k: int):
    """Keep the k pairs with the smallest (hash, value) — the merge is a
    set-union + re-truncate, so it is associative, commutative and
    idempotent: ANY batching/partitioning of the input yields the same
    bottom-k set (lexsort tie-break on value makes even a 64-bit hash
    collision deterministic)."""
    order = np.lexsort((vs, hs))[:k]
    return hs[order], vs[order]


def kmv_quantile_points(vs: np.ndarray, qs=KMV_QS) -> list[int]:
    """Nearest-rank-below quantiles of the sample values: index
    floor(q*(m-1)/100) into the ascending value array — pure integer
    arithmetic, mirrored verbatim by the serial oracle."""
    sv = np.sort(vs)
    m = len(sv)
    return [int(sv[(q * (m - 1)) // 100]) for q in qs]


def kmv_token_quantiles(sf_dir: str, k: int = KMV_K, qs=KMV_QS):
    """Per-language approximate token-count quantiles via a KMV
    (K-Minimum-Values, Bar-Yossef et al. 2002) bottom-k-by-hash sample.

    Why this sketch next to the exact pass: ``doc_length_quantiles`` is
    integer-exact but shuffles one row per document into a global sort; at
    10^12 documents the quantile pass is itself corpus-scale.  Keeping the
    k documents whose blake2b-8(doc_id) hashes are SMALLEST is a uniform
    k-sample of the group — and unlike reservoir sampling it is
    merge-order-invariant (bottom-k of a union = bottom-k of the two
    bottom-k sets), so the engine's standard combiner -> sort-co-located
    final-merge shape applies unchanged and the result is bit-identical
    under any partitioning.  Shuffle cost: |langs| x n_batches rows of
    ~4 KiB, independent of corpus size.

    Output per language: (lang, sample_m, p10, p25, p50, p75, p90) of the
    engine token count (``_token_counts``), nearest-rank-below rule.
    """
    from lexmapr_ray.functions.groupagg import run_starts, sorted_group_reduce
    from lexmapr_ray.stages.textstats import _read_documents, _token_counts

    ds = _read_documents(sf_dir, ["doc_id", "lang", "text"])

    def sketch_partial(t: pa.Table) -> pa.Table:
        n_tok = _token_counts(t["text"])
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        hs = hash_tokens([str(d) for d in doc_ids])
        langs = t["lang"].to_numpy(zero_copy_only=False)
        out_lang, out_hs, out_vs = [], [], []
        for lang in np.unique(langs):
            m = langs == lang
            bh, bv = _kmv_bottom_k(hs[m], n_tok[m], k)
            hb, vb = _kmv_pack(bh, bv)
            out_lang.append(lang)
            out_hs.append(hb)
            out_vs.append(vb)
        return pa.table({
            "lang": pa.array(out_lang, pa.string()),
            "hs": pa.array(out_hs, pa.binary()),
            "vs": pa.array(out_vs, pa.binary()),
        })

    def merge(t: pa.Table) -> pa.Table:
        t = t.sort_by("lang")
        bounds = np.append(run_starts(t, ["lang"]), len(t))
        hs, vs = t["hs"].to_pylist(), t["vs"].to_pylist()
        packed = [_kmv_pack(*_kmv_bottom_k(*_kmv_unpack(b"".join(hs[s:e]),
                                                         b"".join(vs[s:e])), k))
                  for s, e in zip(bounds[:-1], bounds[1:])]
        return pa.table({"lang": t["lang"].take(bounds[:-1]),
                         "hs": pa.array([h for h, _ in packed], pa.binary()),
                         "vs": pa.array([v for _, v in packed], pa.binary())})

    def finalize(t: pa.Table) -> pa.Table:
        merged = merge(t)
        samples = [_kmv_unpack(h, v)[1] for h, v in
                   zip(merged["hs"].to_pylist(), merged["vs"].to_pylist())]
        cols = {"lang": merged["lang"],
                "sample_m": pa.array([len(vs) for vs in samples], pa.int64())}
        points = [kmv_quantile_points(vs, qs) for vs in samples]
        for i, q in enumerate(qs):
            cols[f"p{q}"] = pa.array([p[i] for p in points], pa.int64())
        return pa.table(cols)

    return sorted_group_reduce(
        ds.map_batches(sketch_partial, batch_format="pyarrow"),
        "lang", merge, finalize,
    )


# Count-min sketch parameters: 4 rows x 16384 counters (512 KiB of int64).
# Overestimate bound: est <= true + eps*T with eps = e/w (~1.7e-4) at
# delta = e^-d (~1.8%); widen w with corpus size to hold the bound.
CMS_D = 4
CMS_W = 16384


def _cms_positions(h: np.ndarray) -> np.ndarray:
    """(n, CMS_D) counter indices via Kirsch-Mitzenmacher double hashing
    (same published construction the Bloom stage uses)."""
    mask = np.uint64(CMS_W - 1)
    h1 = h >> np.uint64(32)
    h2 = h | np.uint64(1)
    r = np.arange(CMS_D, dtype=np.uint64)
    return ((h1[:, None] + r[None, :] * h2[:, None]) & mask).astype(np.int64)


def cms_heavy_hitters(sf_dir: str, k: int = 20):
    """Count-min-sketch corpus heavy hitters: the exact top-k words (from
    the distributed exact pass, :func:`~...textstats.vocab_topk`) each
    annotated with the CMS estimate of its count — the sketch's
    one-sided-error contract (est >= cnt, est <= cnt + eps*T) made
    inspectable per word.

    Scale shape: the sketch is a CONSTANT 4 x 16384 int64 grid; each batch
    folds its token counts into one grid (pure numpy add.at over hashed
    positions), grids merge by element-wise SUM through the standard
    combiner -> sorted-reduce shape (addition commutes, so the result is
    independent of batching), and only the final 512 KiB grid reaches the
    driver to answer the k point queries.  Against an exact top-k pass
    the CMS trades a bounded overestimate for a shuffle that never grows
    with the vocabulary."""
    from lexmapr_ray.functions.groupagg import fold_binary, sorted_group_reduce
    from lexmapr_ray.stages.textstats import _read_documents, _token_lists, vocab_topk

    ds = _read_documents(sf_dir, ["text"])

    def sketch_partial(t: pa.Table) -> pa.Table:
        trimmed, splits = _token_lists(t["text"])
        mask = pc.not_equal(trimmed, "")
        flat = pc.list_flatten(pc.filter(splits, mask))
        grid = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        if len(flat):
            vc = flat.value_counts()
            words = vc.field("values").to_pylist()
            cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
            pos = _cms_positions(hash_tokens(words))  # (n, d)
            for r in range(CMS_D):
                np.add.at(grid[r], pos[:, r], cnts)
        return pa.table({
            "row": pa.array(np.arange(CMS_D, dtype=np.int64)),
            "regs": pa.array([grid[r].tobytes() for r in range(CMS_D)],
                             pa.binary()),
        })

    def merge(t: pa.Table) -> pa.Table:
        return fold_binary(t, "row", "regs", np.int64, np.add)

    grid_rows = sorted_group_reduce(
        ds.map_batches(sketch_partial, batch_format="pyarrow"),
        "row", merge, merge,
    ).take_all()  # exactly CMS_D rows x 128 KiB
    grid = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for r in grid_rows:
        grid[int(r["row"])] = np.frombuffer(r["regs"], dtype=np.int64)

    top = vocab_topk(sf_dir, k=k).to_pandas()
    pos = _cms_positions(hash_tokens(top["word"].tolist()))
    est = grid[np.arange(CMS_D)[None, :], pos].min(axis=1).astype("int64")
    top = top.assign(cms_est=est)

    import ray.data as rd

    return rd.from_pandas(top[["word", "cnt", "cms_est"]])
