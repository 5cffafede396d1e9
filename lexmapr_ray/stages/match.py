"""Ray Data stages: HTML extraction and the mention matcher.

The matcher is the stateful heart of the pipeline: a callable INSTANCE
passed to ``map_batches(MentionMatcher(ref, ...), concurrency=N)``, so it
runs as Ray tasks on the pooled worker processes.  The lexicon is a pickled
Python object, ``ray.put`` once per run; a worker process deserializes it
on its first matcher batch and keeps it in a one-entry module memo, so
every later batch, pipeline call and ingest batch of the Ray session that
lands on a warm worker skips that cost.  One class serves every consumer;
its ``emit`` set picks the row families (graph triples, evidence contexts,
or both from one pass).
"""

from __future__ import annotations

import re
from collections import OrderedDict

import pyarrow as pa

from lexmapr_ray.functions.broadcast import lru_get
from lexmapr_ray.lexkit.classify import with_classifier
from lexmapr_ray.lexkit.lexicon import Lexicon
from lexmapr_ray.lexkit.matcher import match_sample
from lexmapr_ray.sources.pages import extract_text

TRIPLES_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_label", pa.string()),
        ("mention", pa.string()),
        # repr of the micro-status rule trail; a plain string keeps every
        # downstream pandas/groupby stage list-free (Arrow list columns do
        # not round-trip pandas blocks cleanly in grouped operators)
        ("status", pa.string()),
    ]
)

PRED_FULL = "lexmapr:fullTermMatch"
PRED_COMPONENT = "lexmapr:componentMatch"
PRED_CLASSIFIED = "lexmapr:classifiedAs"

_SENTENCE_SPLIT = re.compile(r"[.!?;\n]+")

# Mentions longer than this are truncated for cost-bounding: the reference's
# own guard switches to contiguous n-grams at >=15 tokens
# (pipeline_helpers.py:255-273); web sentences beyond ~60 tokens add cost
# quadratically for negligible recall.
MAX_MENTION_TOKENS = 60


def segment_mentions(text: str, max_tokens: int = MAX_MENTION_TOKENS) -> list[str]:
    """Split page text into sentence-level mentions (the engine's 'sample')."""
    mentions = []
    for raw in _SENTENCE_SPLIT.split(text):
        raw = raw.strip()
        if not raw:
            continue
        toks = raw.split()
        if len(toks) > max_tokens:
            raw = " ".join(toks[:max_tokens])
        mentions.append(raw)
    return mentions


def segment_mention_windows(text: str, window_tokens: int = 32) -> list[str]:
    """Sentence split, then length-bounded windowing: each sentence longer
    than ``window_tokens`` yields consecutive token windows instead of one
    truncated mega-sentence.  :func:`segment_mentions` TRUNCATES at
    MAX_MENTION_TOKENS and drops the tail — reference-parity behavior for
    matching, but wrong for evidence extraction, which must cover the whole
    page (unpunctuated web text is one giant 'sentence')."""
    out = []
    for raw in _SENTENCE_SPLIT.split(text):
        raw = raw.strip()
        if not raw:
            continue
        toks = raw.split()
        for i in range(0, len(toks), window_tokens):
            out.append(" ".join(toks[i:i + window_tokens]))
    return out


CONTEXTS_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("obj", pa.string()),
        ("mention_idx", pa.int64()),
        ("mention", pa.string()),
        ("ctx_before", pa.string()),
        ("ctx_after", pa.string()),
    ]
)

FUSED_SCHEMA = pa.schema(
    [
        ("family", pa.string()),        # "triple" | "ctx"
        ("subj", pa.string()),
        ("pred", pa.string()),          # "" on ctx rows
        ("obj", pa.string()),
        ("obj_label", pa.string()),     # "" on ctx rows
        ("mention", pa.string()),
        ("status", pa.string()),        # "" on ctx rows
        ("mention_idx", pa.int64()),    # -1 on triple rows
        ("ctx_before", pa.string()),    # "" on triple rows
        ("ctx_after", pa.string()),     # "" on triple rows
    ]
)

# the emit set -> the schema of the rows the matcher returns
_EMIT_SCHEMAS = {
    frozenset({"triples"}): TRIPLES_SCHEMA,
    frozenset({"contexts"}): CONTEXTS_SCHEMA,
    frozenset({"triples", "contexts"}): FUSED_SCHEMA,
}


def extract_text_stage(batch: pa.Table) -> pa.Table:
    """Stateless map_batches fn: html -> text, asserting the per-row
    byte-identical invariant against the shipped ``text`` column.

    Drops ``html`` from the output: the downstream matcher reads only
    (url, text, lang), and the raw html is ~half the bytes crossing the
    object store into the matcher tasks — the edge where every concurrent
    matcher reads."""
    htmls = batch["html"].to_pylist()
    texts = [extract_text(h) for h in htmls]
    shipped = batch["text"].to_pylist()
    for t, s in zip(texts, shipped):
        if t != s:
            raise ValueError("extraction invariant violated: extract(html) != text")
    keep = [c for c in ("url", "text", "lang") if c in batch.column_names]
    out = batch.select(keep)
    return out.set_column(out.schema.get_field_index("text"), "text", pa.array(texts))


# the worker process's resolved matcher state: ONE (lexicon, classifier)
# pair keyed by (ref hex, bucket); a new ref replaces it, so a long-lived
# worker never holds two lexicons
_RESOLVED: OrderedDict = OrderedDict()


def _resolve(source, bucket: bool):
    """``source`` (a :class:`Lexicon` or its ``ray.put`` ref) -> the
    ``(lexicon, classify_fn)`` pair the cascade runs with.  A ref is
    resolved through the per-process memo: ``ray.get`` (and
    ``make_classifier`` when ``bucket``) run once per worker, not per
    batch or per pipeline call."""
    if isinstance(source, Lexicon):
        return with_classifier(source, bucket)
    import ray

    return lru_get(_RESOLVED, (source.hex(), bucket),
                   lambda: with_classifier(ray.get(source), bucket), 1)


class MentionMatcher:
    """Ray Data task stage: pages batches in, matcher rows out.

    ``emit`` is a non-empty subset of ``{"triples", "contexts"}``:

    * ``"triples"`` — graph triples (:data:`TRIPLES_SCHEMA`): each
      sentence mention (:func:`segment_mentions`) the cascade links to a
      term yields one row per matched component, plus
      ``lexmapr:classifiedAs`` rows when ``bucket`` is set;
    * ``"contexts"`` — evidence contexts (:data:`CONTEXTS_SCHEMA`): each
      matched mention window (:func:`segment_mention_windows`) yields one
      row per DISTINCT term carrying the raw window plus its neighbors —
      the provenance snippet a KG reviewer needs next to the bare triple
      (reference parity anchor: lexmapr/pipeline.py keeps the original
      sample text beside each match for this audit purpose);
    * both — the two families tagged by ``family`` in one table
      (:data:`FUSED_SCHEMA`).  The pipeline is matcher-bound, and every
      sentence of <= 32 tokens is the SAME string in both segmentations,
      so a per-page cascade memo runs it once: ~1x the matcher cost, not
      2x.  Each family is byte-identical to its single-family output.

    ``lexicon`` is a plain :class:`Lexicon` (tests) or the ``ray.put``
    handle from the pipeline's broadcast.  The constructor only validates and stores it; the
    first call resolves it (:func:`_resolve`), and pickling drops the
    resolved state, so a task ships the handle, never the lexicon.
    """

    def __init__(self, lexicon, emit=frozenset({"triples"}), bucket: bool = False,
                 langs: tuple = ("en",)):
        self.schema = _EMIT_SCHEMAS.get(frozenset(emit))
        if self.schema is None:
            raise ValueError(
                f"emit must be a non-empty subset of {{'triples', 'contexts'}}, got {emit!r}")
        self.triples = "triples" in emit
        self.contexts = "contexts" in emit
        self.source = lexicon
        self.bucket = bucket
        self.langs = set(langs) if langs else None
        self._resolved = None  # (lexicon, classify_fn) after the first call

    def __getstate__(self):
        return {**self.__dict__, "_resolved": None}

    def _match(self, mention: str, memo: dict):
        r = memo.get(mention)
        if r is None:
            lexicon, classify_fn = self._resolved
            r = memo[mention] = match_sample(
                mention, lexicon, bucket=classify_fn is not None,
                classify_fn=classify_fn)
        return r

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._resolved is None:
            self._resolved = _resolve(self.source, self.bucket)
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist() \
            if "lang" in batch.column_names else [None] * len(urls)

        rows = []  # FUSED_SCHEMA tuples; the schema picks the columns
        for url, text, lang in zip(urls, texts, langs):
            if self.langs and lang is not None and lang not in self.langs:
                continue
            memo: dict = {}
            if self.triples:
                for mention in segment_mentions(text):
                    r = self._match(mention, memo)
                    if not r.matched_components:
                        continue
                    p = PRED_FULL if r.macro_status == "Full Term Match" \
                        else PRED_COMPONENT
                    status_repr = str(r.micro_status)
                    for comp in r.matched_components:
                        label, term_id = comp.rsplit(":", 1)
                        # the normalized surface chunk that matched — the
                        # canonicalization groupby key (falls back to the
                        # whole cleaned sample for pre-surface-tracking
                        # matches)
                        rows.append(("triple", url, p, term_id, label,
                                     r.component_surfaces.get(comp, r.cleaned_sample),
                                     status_repr, -1, "", ""))
                    if r.classification:
                        for lab in r.classification["ifsac_final_labels"]:
                            rows.append(("triple", url, PRED_CLASSIFIED, "ifsac:" + lab,
                                         lab, r.cleaned_sample, "[]", -1, "", ""))
            if self.contexts:
                ms = segment_mention_windows(text)
                for i, mention in enumerate(ms):
                    r = self._match(mention, memo)
                    if not r.matched_components:
                        continue
                    before = ms[i - 1] if i > 0 else ""
                    after = ms[i + 1] if i + 1 < len(ms) else ""
                    for t in sorted({c.rsplit(":", 1)[1] for c in r.matched_components}):
                        rows.append(("ctx", url, "", t, "", mention, "", i, before, after))

        cols = dict(zip(FUSED_SCHEMA.names, zip(*rows)))
        return pa.Table.from_arrays(
            [pa.array(cols.get(f.name, ()), f.type) for f in self.schema],
            schema=self.schema,
        )
