"""Serial recomputations and the output checks built on them.

Each ``check_*`` returns a list of error strings; an empty list means the
output is correct.  The oracles use only the engine's pure-Python matcher
(``match_sample``) and segmentation, or plain pyarrow/Python arithmetic, so
they share no Ray code path with what they check.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.lexkit.matcher import match_sample
from lexmapr_ray.stages.match import PRED_COMPONENT, PRED_FULL, segment_mentions

KEY = ("subj", "pred", "obj")
GRAPH_COLUMNS = ("subj", "pred", "obj", "obj_label", "mention", "status")


def serial_triples(pages, lexicon) -> list[tuple]:
    """Deduplicated, key-sorted triples of *pages* (dicts with url, text,
    lang) computed one mention at a time, as the matcher pool defines them:
    English pages only, one triple per matched component, and the
    lexicographic-minimum row kept per (subj, pred, obj)."""
    rows = []
    for p in pages:
        if p["lang"] not in (None, "en"):
            continue
        for mention in segment_mentions(p["text"]):
            r = match_sample(mention, lexicon)
            pred = PRED_FULL if r.macro_status == "Full Term Match" else PRED_COMPONENT
            for comp in r.matched_components:
                label, term_id = comp.rsplit(":", 1)
                rows.append((p["url"], pred, term_id, label,
                             r.component_surfaces.get(comp, r.cleaned_sample),
                             str(r.micro_status)))
    return _min_per_key(rows)


def _min_per_key(rows: list[tuple]) -> list[tuple]:
    out = []
    for row in sorted(rows):
        if not out or out[-1][:3] != row[:3]:
            out.append(row)
    return out


def _same_key_as_prev(t: pa.Table) -> np.ndarray:
    """For key-sorted *t*: element i is True when row i + 1 repeats row i's key."""
    n = len(t)
    same = np.ones(max(n - 1, 0), dtype=bool)
    for c in KEY:
        a = t[c].combine_chunks()
        same &= pc.equal(a.slice(1), a.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    return same


def check_graph_shape(table: pa.Table, *, ordered: bool) -> list[str]:
    """Columns present, keys unique and, when *ordered*, globally sorted."""
    missing = set(GRAPH_COLUMNS) - set(table.column_names)
    if missing:
        return [f"graph lacks columns {sorted(missing)}"]
    n = len(table)
    if n < 2:
        return []
    idx = pc.sort_indices(table, sort_keys=[(c, "ascending") for c in KEY]).to_numpy()
    errors = []
    if ordered and not np.array_equal(idx, np.arange(n)):
        errors.append("graph is not globally sorted by (subj, pred, obj)")
    same = _same_key_as_prev(table.select(list(KEY)).take(pa.array(idx)))
    if same.any():
        errors.append(f"graph repeats a (subj, pred, obj) key {int(same.sum())} times")
    return errors


def check_graph_sample(table: pa.Table, pages, lexicon) -> list[str]:
    """The graph rows of the sampled pages' urls equal the serial recompute."""
    urls = pa.array([p["url"] for p in pages], pa.string())
    got = table_rows(table.filter(pc.is_in(table["subj"], value_set=urls)), GRAPH_COLUMNS)
    want = serial_triples(pages, lexicon)
    if got != want:
        return [f"graph rows of {len(pages)} sampled pages differ from the serial "
                f"matcher: {len(got)} rows vs {len(want)} expected, "
                f"{len(set(got) ^ set(want))} rows differ"]
    return []


def expected_merge(triples: pa.Table) -> pa.Table:
    """Lexicographic-minimum row per (subj, pred, obj), key-sorted, in pyarrow."""
    t = triples.select(list(GRAPH_COLUMNS))
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in GRAPH_COLUMNS]))
    if len(t) == 0:
        return t
    return t.filter(pa.array(np.concatenate([[True], ~_same_key_as_prev(t)]))).combine_chunks()


_WS = re.compile(r"\s+")


def tfidf_top_terms(docs: pa.Table, k: int = 5) -> list[tuple]:
    """(doc_id, term, score_e6) with score = tf * ((10^6 * N) // df), top k
    per document by (score desc, term asc)."""
    tfs = {d: Counter(t for t in _WS.split(text.lower()) if t)
           for d, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())}
    df = Counter(t for c in tfs.values() for t in c)
    n = len(tfs)
    out = []
    for d, c in tfs.items():
        scored = sorted(((-tf * ((1_000_000 * n) // df[t]), t) for t, tf in c.items()))
        out.extend((d, t, -s) for s, t in scored[:k])
    return sorted(out)


def token_rarity(docs: pa.Table) -> list[tuple]:
    """(doc_id, n_tokens, rarity_e3): floor-mean of (1000 * T) // count(token)."""
    toks = {d: [t for t in _WS.split(text.strip(" \t\n\r\f\v")) if t]
            for d, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())}
    cnt = Counter(t for ts in toks.values() for t in ts)
    total = sum(cnt.values())
    out = []
    for d, ts in toks.items():
        if ts:
            out.append((d, len(ts), sum((1000 * total) // cnt[t] for t in ts) // len(ts)))
    return sorted(out)


def table_rows(table: pa.Table, columns) -> list[tuple]:
    return sorted(zip(*(table[c].to_pylist() for c in columns)))
