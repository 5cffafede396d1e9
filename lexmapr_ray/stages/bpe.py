"""Distributed BPE tokenizer training over the ``documents`` table.

Byte-pair-encoding merge induction (Sennrich et al. 2016, the subword
tokenizer-training step of every modern LLM data pipeline) in its
scale-correct Ray Data shape: the CORPUS is touched exactly once (one
vectorized word-count pass); every one of the ``n_merges`` refinement
rounds then runs over the VOCABULARY table — (word, freq) rows, orders of
magnitude smaller than the corpus and the textbook domain of the
algorithm — with one vocabulary-scale grouped reduce plus a k=1 exact
top-k per round.  Nothing corpus-scale is ever iterated, shuffled per
round, or collected to the driver; the only driver-side state is the
single winning pair per round (two strings).

Exactness contract (the DuckDB gate hash-compares against a serial
textbook reimplementation in tools/make_op_expected.py): pair counts are
exact int64 sums of word frequencies; the winning pair per round is
max-count with lexicographic (left, right) ascending tie-break — a total
order, so engine and serial agree bit-exactly; merges apply left-to-right
non-overlapping within each word (the textbook scan).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

END_OF_WORD = "</w>"

# The most distinct words whose merge rounds :func:`bpe_train` runs on the
# driver; a larger vocabulary runs them distributed.
DRIVER_VOCAB_LIMIT = 4_000_000


def _merge_word(syms: list, left: str, right: str, merged: str) -> list:
    """Textbook non-overlapping left-to-right merge scan."""
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _serial_merge_loop(words, freqs, n_merges: int):
    """Driver-side merge rounds over a collected (word, freq) vocabulary.

    Bit-identical to the distributed loop by construction: pair counts are
    exact int64 sums over ALL adjacent symbol positions (overlaps counted,
    same as the distributed per-word scan), the winner is (count desc,
    left asc, right asc) — the same total order ``global_topk`` applies —
    and merges apply left-to-right non-overlapping.  Vectorized: the whole
    vocabulary lives in one flat int64 symbol array with a parallel
    word-index array; each round is a handful of numpy kernels, so 30
    rounds over a million-word vocabulary are milliseconds, not 30 Ray
    shuffles.
    """
    sym_id: dict = {}
    syms: list = []

    def sid(s: str) -> int:
        i = sym_id.get(s)
        if i is None:
            i = sym_id[s] = len(syms)
            syms.append(s)
        return i

    flat_l: list = []
    wid_l: list = []
    for wi, w in enumerate(words):
        for ch in w:
            flat_l.append(sid(ch))
        flat_l.append(sid(END_OF_WORD))
        wid_l.extend([wi] * (len(w) + 1))
    flat = np.asarray(flat_l, dtype=np.int64)
    wid = np.asarray(wid_l, dtype=np.int64)
    wfreq = np.asarray(freqs, dtype=np.int64)

    merges = []
    for rank in range(n_merges):
        if len(flat) < 2:
            break
        a, b = flat[:-1], flat[1:]
        same = wid[:-1] == wid[1:]
        if not same.any():
            break
        m_base = len(syms)
        key = a[same] * m_base + b[same]
        uniq, inv = np.unique(key, return_inverse=True)
        cnts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(cnts, inv, wfreq[wid[:-1][same]])
        best = cnts.max()
        # count ties broken lexicographically on the DECODED strings —
        # the same (cnt desc, left asc, right asc) order global_topk uses
        cand = uniq[cnts == best]
        left, right = min(
            (syms[int(k_ // m_base)], syms[int(k_ % m_base)]) for k_ in cand)
        merged = left + right
        merges.append((rank, left, right, merged, int(best)))

        l_id, r_id = sym_id[left], sym_id[right]
        m_id = sid(merged)
        pos = np.nonzero((a == l_id) & (b == r_id) & same)[0]
        if len(pos):
            # left-to-right non-overlap: within each run of consecutive
            # match positions (aaa with pair (a,a)), keep even offsets
            newrun = np.empty(len(pos), dtype=bool)
            newrun[0] = True
            newrun[1:] = pos[1:] != pos[:-1] + 1
            run_start = pos[newrun][np.cumsum(newrun) - 1]
            kept = pos[(pos - run_start) % 2 == 0]
            flat[kept] = m_id
            flat = np.delete(flat, kept + 1)
            wid = np.delete(wid, kept + 1)
    return merges


def bpe_train(sf_dir: str, n_merges: int = 30, min_freq: int = 2):
    """Learn the first ``n_merges`` BPE merges from the corpus.

    Returns one row per learned merge: (rank, left, right, merged,
    pair_count), rank 0-based in learning order.  Stops early if the
    vocabulary runs out of adjacent pairs (every word fully merged).

    The corpus is touched exactly once regardless of path (one distributed
    vectorized word-count pass).  The merge rounds then run over the
    VOCABULARY, whose size decides the topology (the same size switch as
    ``joins.BROADCAST_LIMIT`` and ``textstats.VOCAB_BROADCAST_LIMIT``): at
    or below ``DRIVER_VOCAB_LIMIT`` distinct words the
    rounds run as one vectorized numpy loop on the driver
    (:func:`_serial_merge_loop` — a bounded model-training step over
    reduced statistics, like the k-means centroid update; 30 Ray shuffles
    over a 100k-row table would be pure scheduler overhead); above it each
    round runs distributed: per-batch pair-count combine over the
    symbolized vocabulary -> vocabulary-scale ``grouped_sum_count`` ->
    exact k=1 :func:`global_topk` (per-block prune, one-row sort) -> merge
    applied map-side next round, vocabulary re-materialized per round
    (iterative lineage, the ``embedding_kmeans`` pattern).  Both paths
    produce bit-identical merges (same counts, same total-order
    tie-break); ``tests/test_stages.py`` asserts it.  ``min_freq`` prunes
    hapax words before round 1 — at web scale the freq>=2 vocabulary is
    ~10x smaller and BPE statistics are insensitive to hapax tails.
    """
    from lexmapr_ray.functions.groupagg import grouped_sum_count
    from lexmapr_ray.functions.topk import global_topk
    from lexmapr_ray.stages.textstats import _read_documents, _token_lists

    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def word_counts(t: pa.Table) -> pa.Table:
        trimmed, splits = _token_lists(t["text"])
        mask = pc.not_equal(trimmed, "")
        vc = pc.list_flatten(pc.filter(splits, mask)).value_counts()
        return pa.table({"word": vc.field("values"),
                         "freq": pc.cast(vc.field("counts"), pa.int64())})

    vocab_ds = grouped_sum_count(
        ds.map_batches(word_counts, batch_format="pyarrow", batch_size=65536),
        "word", sum_cols={"freq": "freq"},
    ).materialize()

    import ray.data

    if vocab_ds.count() <= DRIVER_VOCAB_LIMIT:
        kept = vocab_ds.filter(
            expr=f"freq >= {int(min_freq)}") if min_freq > 1 else vocab_ds
        rows = kept.take_all()
        merges = _serial_merge_loop([r["word"] for r in rows],
                                    [r["freq"] for r in rows], n_merges)
        return ray.data.from_arrow(_merges_table(merges))

    syms_type = pa.list_(pa.string())

    def symbolize(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["freq"], min_freq))
        return pa.table({
            "syms": pa.array([list(w) + [END_OF_WORD] for w in t["word"].to_pylist()],
                             syms_type),
            "freq": t["freq"],
        })

    vocab = vocab_ds.map_batches(symbolize, batch_format="pyarrow",
                                 batch_size=65536).materialize()

    merges = []
    for rank in range(n_merges):
        def pair_counts(t: pa.Table) -> pa.Table:
            acc: dict = {}
            for syms, f in zip(t["syms"].to_pylist(), t["freq"].to_pylist()):
                for i in range(len(syms) - 1):
                    key = (syms[i], syms[i + 1])
                    acc[key] = acc.get(key, 0) + f
            return pa.table({
                "left": pa.array([k_[0] for k_ in acc], pa.string()),
                "right": pa.array([k_[1] for k_ in acc], pa.string()),
                "cnt": pa.array(list(acc.values()), pa.int64()),
            })

        pairs = grouped_sum_count(
            vocab.map_batches(pair_counts, batch_format="pyarrow",
                              batch_size=65536),
            ["left", "right"], sum_cols={"cnt": "cnt"},
        )
        top = global_topk(pairs, ["cnt", "left", "right"],
                          [True, False, False], 1).take_all()
        if not top:
            break
        left, right, cnt = top[0]["left"], top[0]["right"], int(top[0]["cnt"])
        merged = left + right
        merges.append((rank, left, right, merged, cnt))

        def apply_merge(t: pa.Table, _l=left, _r=right, _m=merged) -> pa.Table:
            return pa.table({
                "syms": pa.array([_merge_word(s_, _l, _r, _m)
                                  for s_ in t["syms"].to_pylist()], syms_type),
                "freq": t["freq"],
            })

        vocab = vocab.map_batches(apply_merge, batch_format="pyarrow",
                                  batch_size=65536).materialize()

    return ray.data.from_arrow(_merges_table(merges))


def _merges_table(merges) -> pa.Table:
    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "merged": pa.array([m[3] for m in merges], pa.string()),
        "pair_count": pa.array([m[4] for m in merges], pa.int64()),
    })


def bpe_token_counts(sf_dir: str, n_merges: int = 30, min_freq: int = 2):
    """Tokenizer-aware token counting: train the ``n_merges``-rule BPE with
    :func:`bpe_train`, then encode every document and count its BPE tokens
    — the real token budget a packing / pricing / curriculum stage needs
    (whitespace counts over-estimate budgets by the subword ratio;
    :func:`~lexmapr_ray.stages.packing.sequence_pack` consumes budgets like
    these).

    The learned ruleset is 30 tiny rows — collected driver-side (the one
    adjudicated-correct driver materialization class: constant-size model
    state, like k-means centroids) and shipped in the task closure.  Encode
    cost is bounded by UNIQUE words per batch, not tokens: each batch
    builds a word -> token-count cache over ``np.unique`` of its token
    array (web text repeats words heavily), applying the ranked rules with
    the same non-overlapping scan as training.

    Output: (doc_id, n_tokens, n_bpe_tokens); tokenless docs count 0/0.
    """
    import ray.data  # noqa: F401  (Dataset type for the return)

    from lexmapr_ray.stages.textstats import _read_documents, _token_lists

    rules = [(r["left"], r["right"], r["merged"])
             for r in bpe_train(sf_dir, n_merges=n_merges,
                                min_freq=min_freq).take_all()]

    ds = _read_documents(sf_dir, ["doc_id", "text"])

    def encode_len(word: str) -> int:
        syms = list(word) + [END_OF_WORD]
        for left, right, merged in rules:
            if len(syms) < 2:
                break
            syms = _merge_word(syms, left, right, merged)
        return len(syms)

    def count_batch(t: pa.Table) -> pa.Table:
        trimmed, splits = _token_lists(t["text"])
        empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
        n_tok = pc.list_value_length(splits).to_numpy(zero_copy_only=False) \
            .astype("int64")
        n_tok = np.where(empty, 0, n_tok)
        flat = pc.list_flatten(splits).to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(splits).to_numpy(zero_copy_only=False)
        n_bpe = np.zeros(len(t), dtype=np.int64)
        if len(flat):
            uniq, inv = np.unique(flat, return_inverse=True)
            lens = np.fromiter((encode_len(w) for w in uniq),
                               dtype=np.int64, count=len(uniq))
            np.add.at(n_bpe, parents, lens[inv])
        n_bpe = np.where(empty, 0, n_bpe)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
        })

    return ds.map_batches(count_batch, batch_format="pyarrow",
                          batch_size=65536).sort("doc_id")
