"""Materialize SERIAL expected outputs for the flagship KG queries.

The kg_triples / kg_entities / kg_triples_bucket pipelines were rows-only to
the driver in round 1 (``no_oracle``).  The pages -> mentions -> match
function is deterministic, so this tool recomputes the expected results with
a plain single-process Python loop — the serial lexkit matcher, dict-based
dedup/canonicalization, NO Ray, no shuffles, no combiners — and writes them
to ``expected/kg_*.parquet``.  ``oracle_sql()`` then SELECTs from these
files, giving the driver's DuckDB gate full rows+schema+hash coverage of the
distributed KG path (what it verifies is exactly the Ray orchestration:
parallel matching, combiner pre-aggregation, sort-co-located dedup and
argmax canonicalization).

Each parquet carries every scale's rows tagged with ``corpus_len`` (the
total text length of the generating sf directory's documents — sf0.001 and
sf0.01 both have 500 docs, so a row COUNT would not discriminate) so one
static SQL string self-selects the right scale:
``WHERE corpus_len = (SELECT SUM(LENGTH(text)) FROM documents)``.

Usage: python tools/make_kg_expected.py [sf_dir ...]
Defaults to sf0.001, sf0.01 and sf0.1.  Rerun after any matcher/lexicon
change; tests/test_kg_pipeline.py asserts Ray output == these files.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "expected")

TRIPLE_COLS = ["subj", "pred", "obj", "obj_label", "mention", "status"]


def serial_triples(sf_dir: str, bucket: bool) -> list[tuple]:
    """Serial re-derivation of the matcher stage: one python loop per page.

    Mirrors the SEMANTICS of lexmapr_ray.stages.match.MentionMatcher's
    ``emit={"triples"}`` rows (the reference conformance anchor is
    lexmapr/pipeline.py's per-sample loop) without any of the distributed
    machinery.
    """
    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.lexkit.matcher import match_sample
    from lexmapr_ray.stages.match import (
        PRED_CLASSIFIED, PRED_COMPONENT, PRED_FULL, segment_mentions,
    )

    lexicon = build_lexicon()
    classify_fn = None
    if bucket:
        from lexmapr_ray.lexkit.classify import make_classifier

        classify_fn = make_classifier(lexicon)

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    rows = []
    for doc_id, text, lang in zip(docs["doc_id"].to_pylist(),
                                  docs["text"].to_pylist(),
                                  docs["lang"].to_pylist()):
        if lang != "en":
            continue
        url = f"doc://{doc_id}"
        for mention in segment_mentions(text):
            r = match_sample(mention, lexicon, bucket=bucket,
                             classify_fn=classify_fn)
            if not r.matched_components:
                continue
            p = PRED_FULL if r.macro_status == "Full Term Match" else PRED_COMPONENT
            status_repr = str(r.micro_status)
            for comp in r.matched_components:
                label, term_id = comp.rsplit(":", 1)
                surf = r.component_surfaces.get(comp, r.cleaned_sample)
                rows.append((url, p, term_id, label, surf, status_repr))
            if r.classification:
                for lab in r.classification["ifsac_final_labels"]:
                    rows.append((url, PRED_CLASSIFIED, "ifsac:" + lab, lab,
                                 r.cleaned_sample, "[]"))
    return rows


def serial_dedup(rows: list[tuple]) -> list[tuple]:
    """Keep the full-row lexicographic minimum per (subj, pred, obj)."""
    best: dict[tuple, tuple] = {}
    for row in rows:
        k = row[:3]
        if k not in best or row < best[k]:
            best[k] = row
    return [best[k] for k in sorted(best)]


def serial_canonical(rows: list[tuple]) -> list[tuple]:
    """mention -> most frequent (obj, obj_label); ties by smallest obj."""
    counts: Counter = Counter()
    for _, _, obj, obj_label, mention, _ in rows:
        counts[(mention, obj, obj_label)] += 1
    per_mention: dict[str, list] = {}
    for (mention, obj, obj_label), n in counts.items():
        per_mention.setdefault(mention, []).append((obj, obj_label, n))
    out = []
    for mention in sorted(per_mention):
        cands = per_mention[mention]
        top = min(cands, key=lambda c: (-c[2], c[0]))
        out.append((mention, top[0], top[1],
                    sum(c[2] for c in cands), len(cands)))
    return out


def serial_confidence(rows: list[tuple]) -> list[tuple]:
    """Per-(pred, obj) evidence stats over the RAW triple stream + permille
    support vs the predicate's best-supported assertion — plain dict/set
    loops, independent of the engine's quadruple-collapse reduce."""
    from collections import defaultdict

    mentions: Counter = Counter()
    pages: dict = defaultdict(set)
    surfaces: dict = defaultdict(set)
    for subj, pred, obj, _obj_label, surface, _status in rows:
        k = (pred, obj)
        mentions[k] += 1
        pages[k].add(subj)
        surfaces[k].add(surface)
    pred_max: dict = defaultdict(int)
    for (pred, _obj), s in pages.items():
        pred_max[pred] = max(pred_max[pred], len(s))
    return [(pred, obj, mentions[(pred, obj)], len(pages[(pred, obj)]),
             len(surfaces[(pred, obj)]),
             1000 * len(pages[(pred, obj)]) // pred_max[pred])
            for pred, obj in sorted(mentions)]


CONF_COLS = ["pred", "obj", "n_mentions", "n_pages", "n_surfaces",
             "conf_permille"]


def serial_contexts(sf_dir: str, window_tokens: int = 32) -> list[tuple]:
    """Serial evidence-context rows: one plain loop per page, mirroring the
    SEMANTICS of stages/match.py::MentionMatcher(emit={"contexts"}) (raw
    mention window + neighbor windows per distinct matched term) without
    Ray.
    The windowing is re-derived inline (sentence split then fixed token
    windows) rather than imported, so the engine's helper is checked too."""
    import re

    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.lexkit.matcher import match_sample

    sentence_split = re.compile(r"[.!?;\n]+")

    def windows(text: str) -> list[str]:
        out = []
        for raw in sentence_split.split(text):
            toks = raw.strip().split()
            for i in range(0, len(toks), window_tokens):
                out.append(" ".join(toks[i:i + window_tokens]))
        return out

    lexicon = build_lexicon()
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    rows = []
    for doc_id, text, lang in zip(docs["doc_id"].to_pylist(),
                                  docs["text"].to_pylist(),
                                  docs["lang"].to_pylist()):
        if lang != "en":
            continue
        ms = windows(text)
        for i, mention in enumerate(ms):
            r = match_sample(mention, lexicon)
            if not r.matched_components:
                continue
            terms = sorted({c.rsplit(":", 1)[1] for c in r.matched_components})
            before = ms[i - 1] if i > 0 else ""
            after = ms[i + 1] if i + 1 < len(ms) else ""
            for t in terms:
                rows.append((f"doc://{doc_id}", t, i, mention, before, after))
    return rows


CTX_COLS = ["subj", "obj", "mention_idx", "mention", "ctx_before",
            "ctx_after"]


def serial_snapshot_diff(sf_dir: str) -> list[tuple]:
    """Serial KG snapshot diff: re-derive both deterministic crawl
    snapshots (sources/pages.py::snapshot_pages rules, re-stated inline),
    run the serial matcher over each, and set-diff the (subj, pred, obj)
    sets — plain Python sets, independent of the engine's tagged-union
    sorted reduce."""
    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.lexkit.matcher import match_sample
    from lexmapr_ray.stages.match import (
        PRED_COMPONENT, PRED_FULL, segment_mentions,
    )

    lexicon = build_lexicon()
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])

    def triple_set(which: str) -> set:
        s: set = set()
        for d, t, lang in zip(docs["doc_id"].to_pylist(),
                              docs["text"].to_pylist(),
                              docs["lang"].to_pylist()):
            if lang != "en":
                continue
            d = int(d)
            if which == "a":
                if d % 4 == 0:
                    continue
            else:
                if d % 5 == 0:
                    continue
                if d % 7 == 0:
                    t = t + " chicken breast"
            for mention in segment_mentions(t):
                r = match_sample(mention, lexicon)
                if not r.matched_components:
                    continue
                p = PRED_FULL if r.macro_status == "Full Term Match" \
                    else PRED_COMPONENT
                for comp in r.matched_components:
                    _label, term_id = comp.rsplit(":", 1)
                    s.add((f"doc://{d}", p, term_id))
        return s

    sa, sb = triple_set("a"), triple_set("b")
    rows = [(s, p, o, "added") for (s, p, o) in sb - sa] + \
        [(s, p, o, "removed") for (s, p, o) in sa - sb]
    return sorted(rows)


DIFF_COLS = ["subj", "pred", "obj", "change"]


def serial_anchor_phrase_terms() -> list[tuple]:
    """Serial phrase -> triple-payload mapping for the anchor-text
    entity-linking op (pipelines/kg.py::anchor_text_triples).

    The synthetic linked pages carry anchor text
    ``_MATCHABLE_PHRASES[dst % 20]`` — a pure function of the TARGET doc —
    so the committed mapping here is corpus-independent: 20 phrases, each
    run through the serial matcher, deduped per (pred, obj) with the same
    full-row lexicographic-min rule as :func:`serial_dedup` (within one
    target url the text is fixed, so (pred, obj) IS the dedup key).
    ``oracle_sql()['anchor_entity_links']`` regenerates the edge set
    arithmetically and joins this table on ``dst % 20``."""
    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.lexkit.matcher import match_sample
    from lexmapr_ray.sources.pages import _MATCHABLE_PHRASES
    from lexmapr_ray.stages.match import (
        PRED_COMPONENT, PRED_FULL, segment_mentions,
    )

    lexicon = build_lexicon()
    rows: list[tuple] = []
    for i, phrase in enumerate(_MATCHABLE_PHRASES):
        best: dict[tuple, tuple] = {}
        for mention in segment_mentions(phrase):
            r = match_sample(mention, lexicon)
            if not r.matched_components:
                continue
            p = PRED_FULL if r.macro_status == "Full Term Match" else PRED_COMPONENT
            status_repr = str(r.micro_status)
            for comp in r.matched_components:
                label, term_id = comp.rsplit(":", 1)
                surf = r.component_surfaces.get(comp, r.cleaned_sample)
                row = (i, p, term_id, label, surf, status_repr)
                k = (p, term_id)
                if k not in best or row < best[k]:
                    best[k] = row
        rows.extend(best[k] for k in sorted(best))
    return rows


ANCHOR_COLS = ["phrase_idx", "pred", "obj", "obj_label", "mention", "status"]


def write_anchor_table():
    rows = serial_anchor_phrase_terms()
    cols = list(zip(*rows))
    tab = pa.table({
        "phrase_idx": pa.array(list(cols[0]), pa.int64()),
        **{n: pa.array(list(c)) for n, c in zip(ANCHOR_COLS[1:], cols[1:])},
    })
    pq.write_table(tab, os.path.join(EXPECTED_DIR,
                                     "op_anchor_phrase_terms.parquet"))
    print(f"wrote op_anchor_phrase_terms.parquet ({tab.num_rows} rows)")


def _table(rows, names, corpus_len: int) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[] for _ in names]
    arrays = [pa.array(list(c)) for c in cols]
    arrays.append(pa.array([corpus_len] * len(rows), pa.int64()))
    return pa.table(dict(zip(names + ["corpus_len"], arrays)))


def main():
    args = sys.argv[1:]
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    if args and args[0] == "--anchor-only":
        write_anchor_table()
        return
    sf_dirs = args or ["/root/testdata/sf0.001", "/root/testdata/sf0.01",
                       "/root/testdata/sf0.1"]
    triples_tabs, entities_tabs, bucket_tabs, conf_tabs, ctx_tabs, \
        diff_tabs = [], [], [], [], [], []
    for sf_dir in sf_dirs:
        texts = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
        corpus_len = sum(len(t) for t in texts["text"].to_pylist())
        raw = serial_triples(sf_dir, bucket=False)
        triples_tabs.append(_table(serial_dedup(raw), TRIPLE_COLS, corpus_len))
        ent_cols = ["mention", "canonical_obj", "canonical_label",
                    "n_mentions", "n_distinct_obj"]
        entities_tabs.append(_table(serial_canonical(raw), ent_cols, corpus_len))
        conf_tabs.append(_table(serial_confidence(raw), CONF_COLS, corpus_len))
        ctx_tabs.append(_table(serial_contexts(sf_dir), CTX_COLS, corpus_len))
        diff_tabs.append(_table(serial_snapshot_diff(sf_dir), DIFF_COLS,
                                corpus_len))
        raw_b = serial_triples(sf_dir, bucket=True)
        bucket_tabs.append(_table(sorted(raw_b), TRIPLE_COLS, corpus_len))
        print(f"{sf_dir}: corpus_len={corpus_len} raw={len(raw)} "
              f"dedup={triples_tabs[-1].num_rows} "
              f"entities={entities_tabs[-1].num_rows} "
              f"bucket_raw={bucket_tabs[-1].num_rows}")
    pq.write_table(pa.concat_tables(triples_tabs),
                   os.path.join(EXPECTED_DIR, "kg_triples.parquet"))
    pq.write_table(pa.concat_tables(entities_tabs),
                   os.path.join(EXPECTED_DIR, "kg_entities.parquet"))
    pq.write_table(pa.concat_tables(bucket_tabs),
                   os.path.join(EXPECTED_DIR, "kg_triples_bucket.parquet"))
    pq.write_table(pa.concat_tables(conf_tabs),
                   os.path.join(EXPECTED_DIR, "kg_confidence.parquet"))
    pq.write_table(pa.concat_tables(ctx_tabs),
                   os.path.join(EXPECTED_DIR, "kg_contexts.parquet"))
    pq.write_table(pa.concat_tables(diff_tabs),
                   os.path.join(EXPECTED_DIR, "kg_snapshot_diff.parquet"))
    write_anchor_table()
    print(f"wrote {EXPECTED_DIR}/kg_*.parquet")


if __name__ == "__main__":
    main()
