"""Seeded input generators: pages, ingest batches, graph triples, documents.

Every generator is a pure function of its seed.  Pages reuse the engine's
own page synthesiser (``lexmapr_ray.sources.pages.synth_page``) and append a
per-page tail sentence of out-of-lexicon tokens, so that distinct pages are
never near-duplicates of each other by accident; near-duplicates are then
planted explicitly (a recapture = an earlier page under a new url with one
token appended) and their identities returned, so the checks know exactly
which pages or pairs the engine must flag.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lexmapr_ray.sources.pages import PAGES_SCHEMA, render_html, synth_page

_LETTERS = np.array(list("bcdfghjklmnpqrstvwxz"))


def _tail(rng: np.random.RandomState, n: int = 4) -> str:
    return " ".join("".join(_LETTERS[rng.randint(len(_LETTERS), size=7)]) for _ in range(n))


def page(index: int, seed: int) -> dict:
    """Page *index* of the corpus for *seed*: synthesised text plus a tail."""
    p = synth_page(index, seed=seed)
    rng = np.random.RandomState((seed * 7_919 + index * 104_729 + 17) % (2**31 - 1))
    text = p["text"] + " " + _tail(rng) + "."
    p.update(text=text, html=render_html(text))
    return p


def recapture(p: dict, tag: str, token: str) -> dict:
    """A near-duplicate of page *p*: new url, one token appended."""
    text = p["text"] + " " + token
    return dict(p, url=p["url"] + "?recapture=" + tag, text=text, html=render_html(text))


def pages_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def ingest_batches(seed: int, n_batches: int, batch_pages: int, recapture_frac: float):
    """``n_batches`` page lists; batch b >= 1 carries recaptures of pages from
    earlier batches.  Returns (batches, planted) with planted the set of
    recapture urls the near-dup gate must drop."""
    rng = np.random.RandomState(seed + 1)
    batches, planted, earlier = [], set(), []
    for b in range(n_batches):
        rows = [page(b * batch_pages + i, seed) for i in range(batch_pages)]
        if earlier:
            n_rec = max(1, int(batch_pages * recapture_frac))
            for j in rng.choice(len(earlier), size=n_rec, replace=False):
                r = recapture(earlier[j], f"{b}", _tail(rng, 1))
                rows.append(r)
                planted.add(r["url"])
        order = rng.permutation(len(rows))
        batches.append([rows[i] for i in order])
        earlier.extend(rows[:batch_pages])
    return batches, planted


def triples_table(seed: int, n_rows: int, dup_frac: float = 0.5) -> pa.Table:
    """Raw (subj, pred, obj, obj_label, mention, status) rows.

    Subjects are Zipf-skewed (a few hot pages hold most rows), so keys
    collide on their own; on top, ``dup_frac`` of the rows are planted
    repeats of an earlier (subj, pred, obj) key with a different payload, so
    the per-key lexicographic minimum matters."""
    rng = np.random.default_rng(seed)
    n_base = n_rows - int(n_rows * dup_frac)
    subj_ids = rng.zipf(1.3, n_base) % 200_000
    pred = rng.integers(0, 2, n_base)
    obj = rng.integers(0, 5_000, n_base)
    pick = rng.integers(0, n_base, n_rows - n_base)
    subj_ids = np.concatenate([subj_ids, subj_ids[pick]])
    pred = np.concatenate([pred, pred[pick]])
    obj = np.concatenate([obj, obj[pick]])
    order = rng.permutation(n_rows)
    subj_ids, pred, obj = subj_ids[order], pred[order], obj[order]

    def strings(fmt: str, ids) -> pa.Array:
        uniq, inv = np.unique(ids, return_inverse=True)
        return pa.array([fmt.format(u) for u in uniq], pa.string()).take(pa.array(inv))

    preds = np.array(["lexmapr:componentMatch", "lexmapr:fullTermMatch"])
    return pa.table({
        "subj": strings("https://host{}.example/p/x", subj_ids),
        "pred": pa.array(preds[pred], pa.string()),
        "obj": strings("foodon_{:08d}", obj),
        "obj_label": strings("label {}", obj * 3 + rng.integers(0, 3, n_rows)),
        "mention": strings("mention {}", rng.integers(0, 20_000, n_rows)),
        "status": strings("['rule {}']", rng.integers(0, 8, n_rows)),
    })


def documents_table(seed: int, n_docs: int, dup_frac: float):
    """(doc_id, text, lang) documents with planted near-duplicates.  Returns
    (table, planted) with planted the set of (original_id, recapture_id)
    pairs, each original recaptured at most once."""
    rng = np.random.RandomState(seed + 2)
    n_dup = int(n_docs * dup_frac)
    rows = [page(i, seed) for i in range(n_docs - n_dup)]
    planted = set()
    for j, src in enumerate(rng.choice(len(rows), size=n_dup, replace=False)):
        rows.append(recapture(rows[src], str(j), _tail(rng, 1)))
        planted.add((int(src), len(rows) - 1))
    return pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([r["text"] for r in rows], pa.string()),
        "lang": pa.array([r["lang"] for r in rows], pa.string()),
    }), planted
