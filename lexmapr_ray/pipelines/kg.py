"""End-to-end knowledge-graph construction pipeline (the flagship).

    read_parquet(pages) / synth pages
      -> map_batches(extract_text_stage)                 stateless tasks
      -> map_batches(MentionMatcher(ref), concurrency=N) tasks, lexicon broadcast
      -> [canonicalize]  per-batch combiner -> groupby   (shuffle #1, pre-aggregated)
      -> [materialize]   per-batch dedup -> groupby dedup -> sort  (shuffle #2)
      -> write_parquet(out/part=k/) + lineage sidecars   resumable

Scale notes (10^12-document design):
 - The matcher stage is embarrassingly parallel; the lexicon (~4 MB pickled)
   is ``ray.put`` once and deserialized once per worker process, which keeps
   it for later batches and pipeline calls (``stages/match.py::_resolve``).
 - Canonicalization pre-aggregates (mention, obj) counts INSIDE each batch
   before the shuffle, so the exchanged volume is bounded by per-batch
   surface-form vocabulary, not corpus size — this is the skew guard for hot
   entities ("chicken breast" appearing in 25% of pages shrinks to one row
   per batch).  The final groupby key cardinality is the vocabulary size.
 - Triple dedup likewise drops within-batch duplicates before the groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lexmapr_ray.functions.groupagg import (grouped_sum_count, run_starts,
                                            sorted_final, sorted_group_reduce)
from lexmapr_ray.functions.typed import with_schema
from lexmapr_ray.stages.match import (CONTEXTS_SCHEMA, TRIPLES_SCHEMA,
                                      MentionMatcher, extract_text_stage)


def broadcast_lexicon(lexicon=None, *, config: str | None = None, resolve=None):
    """``ray.put`` the lexicon once; reuse the handle across stages/runs.

    ``config`` is an ontology config JSON (reference ``--config`` surface,
    pipeline.py:45-54): the fetched ontology lookup table is merged into the
    predefined lexicon, ontology table winning conflicts, before broadcast.
    """
    import ray

    from lexmapr_ray.lexkit.lexicon import build_lexicon, merge_config_into_lexicon

    if lexicon is None:
        lexicon = build_lexicon()
    if config:
        lexicon = merge_config_into_lexicon(lexicon, config, resolve=resolve)
    return ray.put(lexicon)


def _match_pages(pages_ds, lexicon_ref, emit, *, bucket=False, langs=("en",),
                 concurrency=None, batch_size=256, pre_extracted=False):
    """The one matcher stage behind every extraction entry point:
    (html->text) -> ``map_batches(MentionMatcher(ref, emit=...))``.

    The matcher is passed as an instance, so it runs as Ray tasks on pooled
    worker processes; each worker resolves the lexicon once and keeps it
    for later batches and calls.
    ``concurrency`` is the maximum number of concurrent matcher tasks (an
    int); the default is the engine's one task limit
    (``stages/dedup.py::_auto_concurrency``: 7/8 of CPUs).
    ``pre_extracted=True`` skips the html->text invariant stage for inputs
    that already carry plain (url, text, lang) rows."""
    if lexicon_ref is None:
        lexicon_ref = broadcast_lexicon()
    if concurrency is None:
        from lexmapr_ray.stages.dedup import _auto_concurrency

        concurrency = _auto_concurrency()
    ds = pages_ds if pre_extracted else pages_ds.map_batches(
        extract_text_stage, batch_format="pyarrow")
    return ds.map_batches(
        MentionMatcher(lexicon_ref, emit=emit, bucket=bucket, langs=langs),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def extract_triples(
    pages_ds,
    lexicon_ref=None,
    *,
    bucket: bool = False,
    langs: tuple = ("en",),
    concurrency=None,
    batch_size: int = 256,
    pre_extracted: bool = False,
):
    """pages Dataset -> triples Dataset (extraction + matcher tasks).

    ``pre_extracted=True`` skips the html->text invariant stage for inputs
    that already carry plain (url, text, lang) rows — e.g. anchor-text
    mentions parsed out of the html by their own extraction stage."""
    return _match_pages(pages_ds, lexicon_ref, {"triples"}, bucket=bucket,
                        langs=langs, concurrency=concurrency,
                        batch_size=batch_size, pre_extracted=pre_extracted)


def _partial_mention_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse triples to (mention, obj, obj_label, n).

    Arrow-native ``Table.group_by`` (C++ hash aggregation, zero pandas
    boxing; dictionary keys decode to plain strings in the output).
    ``use_threads=False``: the task owns one CPU token — Arrow's internal
    thread pool would oversubscribe it."""
    sel = batch.select(["mention", "obj", "obj_label"])
    sel = pa.table({c: pc.cast(sel[c], pa.string()) for c in sel.column_names})
    out = sel.group_by(["mention", "obj", "obj_label"],
                       use_threads=False).aggregate([([], "count_all")])
    return out.rename_columns(["mention", "obj", "obj_label", "n"])


def _sum_partial_counts(t: pa.Table) -> pa.Table:
    """Re-combine bundled partial (mention, obj, obj_label, n) rows —
    associative, so any number of applications before the shuffle is exact.
    Arrow-native hash aggregation (no pandas boxing)."""
    out = t.group_by(["mention", "obj", "obj_label"],
                     use_threads=False).aggregate([("n", "sum")])
    return out.rename_columns(["mention", "obj", "obj_label", "n"])


ENTITIES_SCHEMA = pa.schema([("mention", pa.string()),
                             ("canonical_obj", pa.string()),
                             ("canonical_label", pa.string()),
                             ("n_mentions", pa.int64()),
                             ("n_distinct_obj", pa.int64())])


def _reduce_canonical_block(t: pa.Table) -> pa.Table:
    """Per-block reduce after the mention-sorted shuffle: sum the partial
    counts, then take the per-mention argmax (count desc, obj asc) as the
    first row of each mention's run — Arrow kernels, zero per-group
    Python calls."""
    t = _sum_partial_counts(t).sort_by(
        [("mention", "ascending"), ("n", "descending"), ("obj", "ascending")])
    starts = run_starts(t, ["mention"])
    top = t.take(starts)
    return pa.table([top["mention"], top["obj"], top["obj_label"],
                     np.add.reduceat(t["n"].to_numpy(), starts),
                     np.diff(starts, append=t.num_rows)],
                    schema=ENTITIES_SCHEMA)


def canonicalize_mentions(triples_ds):
    """Entity canonicalization: normalized surface form -> canonical term
    (most frequent ontology id for that surface form; ties -> lexicographic
    smallest id).

    Shape: per-batch combiner -> sort shuffle on mention -> vectorized
    per-block reduce.  Why this shape:
      * the combiner collapses a hot surface form ("chicken breast" in 25%
        of pages) to ONE row per batch before any data moves — the batch id
        is an implicit salt, so the shuffle volume is vocabulary x n_batches,
        not corpus size;
      * the sort co-locates each mention (functions/groupagg.py), so a
        per-block Arrow reduce is exact — and ~100x cheaper than
        ``groupby().map_groups`` (one Python call per group) or
        ``groupby().aggregate`` (AggregateFn overhead per block dominates);
      * at 10^12 documents the per-key partial count (= n_batches) itself
        grows unbounded, so a further barrier-free combine round always
        runs: bundles of 262144 partial rows are re-summed
        (``_sum_partial_counts``, associative), shrinking any key's partial
        population by the bundling factor.  One round per ~3 orders of
        magnitude of batch count keeps every key's partials block-sized.
        It is streaming (no barrier), exact at any application count, and
        measured cost-free at bench scale (sf0.1 warm: 4.45 s without vs
        4.49 s with — inside run-to-run noise).
    """
    # the large batch_size makes Ray BUNDLE many small upstream blocks into
    # one combiner task, so the combiner both pre-aggregates and coalesces
    # block count ahead of the shuffle — sort cost grows with blocks^2
    # (each map block cuts a slice per reduce partition), and a Repartition
    # op would add a pipeline barrier for the same effect
    partials = triples_ds.map_batches(
        _partial_mention_counts, batch_format="pyarrow", batch_size=65536
    ).map_batches(_sum_partial_counts, batch_format="pyarrow", batch_size=262144)
    return with_schema(sorted_final(partials, "mention", _reduce_canonical_block),
                       ENTITIES_SCHEMA)


def _block_dedup_sorted(t: pa.Table) -> pa.Table:
    """Per-key lexicographic-min dedup of one Arrow block.

    Used BOTH as the pre-shuffle combiner and as the post-sort reduce: "keep
    the full-row lexicographic minimum per (subj,pred,obj)" is associative,
    so local-then-global application equals one global pass (a keep='first'
    arrival-order combiner would discard the global minimum nondeterministically).
    Post-sort, each key lives in exactly one block (boundary assignment is a
    pure function of the key), making the second application exact — and the
    local sort keeps the dataset globally ordered on the triple key.

    Pure Arrow kernels (r3): the r2 pandas version spent most of its 25
    CPU-s/1M-pages boxing six string columns into Python objects and back;
    sort_indices + take + a shifted-equality run mask do the same reduction
    with zero boxing, shrinking the combiner tail that dominates the 4N
    scaling profile."""
    import numpy as np

    if len(t) == 0:
        return t
    # dictionary-encoded columns sort by code order; decode first
    cols = {}
    for name in t.column_names:
        c = t[name]
        if pa.types.is_dictionary(c.type):
            c = pc.cast(c, pa.string())
        cols[name] = c
    t = pa.table(cols)
    idx = pc.sort_indices(
        t, sort_keys=[(c, "ascending") for c in t.column_names]
    )
    t = t.take(idx)
    n = len(t)
    if n == 1:
        return t
    same_as_prev = np.ones(n - 1, dtype=bool)
    for key in ("subj", "pred", "obj"):
        a = t[key].combine_chunks()
        same_as_prev &= pc.equal(
            a.slice(1), a.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = ~same_as_prev
    return t.filter(pa.array(keep))


def dedup_triples(triples_ds, *, block_fn=None):
    """Exact (subj, pred, obj) dedup, one shuffle, fully vectorized:
    per-batch local dedup (combiner) -> global sort on subj ->
    per-block drop_duplicates.
    The result is ALSO globally sorted by (subj, pred, obj), so graph
    materialization needs no second shuffle.  ``groupby().map_groups`` and
    ``groupby().aggregate`` were measured ~8x and ~2x the cost of the whole
    rest of the pipeline at 20k pages.

    ``block_fn`` (Arrow table -> Arrow table) fuses a
    per-subject consumer pass INTO the post-sort reduce task, where the
    whole sorted range partition is in hand.  This is the ONLY placement
    where "group on subj per block" is safe for a pathologically hot
    subject: the sort itself never re-splits its output partitions
    (functions/groupagg.py contract), but the dedup map's OWN output
    blocks are dynamically re-split past ``target_max_block_size``, so a
    subject whose deduped rows exceed the block target WOULD arrive
    fragmented at any downstream ``map_batches`` (advisor r4; pinned by
    tests/test_kg_pipeline.py hot-subject case).  cooccurrence_edges,
    negative_samples and density_filter all pass their per-page reduction
    here instead of mapping over the returned Dataset."""
    # batch_size bundles matcher output blocks into one dedup task: local
    # combining AND block-count coalescing ahead of the shuffle in a single
    # streaming stage (no Repartition barrier); see canonicalize_mentions
    # for the blocks^2 sort-cost rationale.  131072: under push-based
    # shuffle the sort's per-row cost is dominated by range-splitting into
    # P partitions and shipping B x P slices (P tracks the combiner's
    # output block count), so fewer/bigger blocks win — measured at 4M
    # pages / 32 CPUs: 131k 107.7-111.7 s vs 32k 133.9 s vs 262k 126.3 s
    # (262k's fat final-reduce blocks serialize after the pool drains).
    # The r3-interim 32k choice was tuned for the simple-shuffle sort that
    # push-based shuffle replaced.
    #
    # Measured negative result (r4): re-dictionary-encoding the payload
    # columns (obj_label, mention, status — ~half the row bytes) between
    # the combiner and the sort is consistently 1-2 s SLOWER at 1M
    # pages/32 CPUs (interleaved pairs 26.7/28.5, 26.3/26.7, 24.0/25.6):
    # on one node the object store is shared memory, so the byte savings
    # buy nothing while the encode + per-chunk dictionary handling in the
    # sort costs real CPU.  On a multi-node cluster where the sort crosses
    # NICs the trade flips — revisit there; plain strings here.
    ds = triples_ds.map_batches(
        _block_dedup_sorted, batch_format="pyarrow", batch_size=131072
    )
    # Sort on subj ALONE (not the full triple key): equal (subj,pred,obj)
    # rows share a subj, so single-key range partitioning still co-locates
    # every duplicate group (dedup stays exact — the block reduce re-sorts
    # the whole block anyway), while additionally co-locating each WHOLE
    # SUBJECT — the contract the per-page consumers (cooccurrence_edges,
    # negative_samples, density_filter) group on.  A composite-key sort
    # places range boundaries at (subj, mid-pred) points and splits one
    # page's triples across two blocks — measured: 113 of 124 boundaries
    # split a subject on a 24k-triple fixture at a 16 KiB block target,
    # double-counting 430 of 12000 co-occurrence pairs in one run (the
    # same bug class the sf0.1 sweep caught in orders_running_window;
    # latent at gate scales where the deduped set fits in one block).
    # Global order is unchanged: blocks are subj ranges and the block
    # reduce leaves each block fully (subj, pred, obj)-sorted, so the
    # concatenation stays globally composite-sorted for materialize_graph.
    final = _block_dedup_sorted
    if block_fn is not None:
        def dedup_then(t: pa.Table):
            return block_fn(_block_dedup_sorted(t))
        final = dedup_then
    return sorted_final(ds, "subj", final)


def materialize_graph(triples_ds, out_dir: str | None = None):
    """Sorted, deduplicated graph; written to Parquet when *out_dir* given.

    ``dedup_triples`` already leaves the data globally sorted by
    (subj, pred, obj) — no second shuffle here."""
    ds = dedup_triples(triples_ds)
    if out_dir:
        ds = ds.materialize()
        ds.write_parquet(out_dir)
    return ds


def degree_stats(triples_ds):
    """Per-ontology-term graph degree over the DEDUPED triple set: total
    distinct triples naming the term and distinct subject pages linking to
    it — the fan-in profile that drives KG skew decisions (hot terms are
    exactly the salted-key candidates in canonicalization).

    Shape: triple dedup leaves unique (subj, pred, obj) rows; a per-batch
    (obj, subj) partial count collapses the pred dimension before the ONE
    obj sort, and the co-located final block computes the exact distinct
    subject count.  Shuffle volume is <= one row per distinct
    (obj, subj) pair per batch — never triple-scale."""
    deduped = dedup_triples(triples_ds).map_batches(
        lambda t: t.select(["subj", "obj"]), batch_format="pyarrow"
    )
    return sorted_group_reduce(deduped, "obj", _pair_counts(["obj", "subj"]),
                               _term_support(["obj"], "subj",
                                             ["n_triples", "n_pages"]))


def _pair_counts(keys: list[str]):
    """Per-batch partial: one ``(*keys, cnt)`` row per distinct ``keys``."""
    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(keys, use_threads=False).aggregate(
            [([], "count_all")]).rename_columns(keys + ["cnt"])
    return partial


def _term_support(keys: list[str], distinct: str, names: list[str]):
    """Post-sort final over ``_pair_counts`` rows: per ``keys``, the summed
    ``cnt`` and the exact count of distinct ``distinct`` values, in key
    order (Arrow ``group_by`` emits groups in hash order)."""
    def final(t: pa.Table) -> pa.Table:
        return t.group_by(keys, use_threads=False).aggregate(
            [("cnt", "sum"), (distinct, "count_distinct")]
        ).rename_columns(keys + names).sort_by([(k, "ascending") for k in keys])
    return final


def mention_contexts(
    pages_ds,
    lexicon_ref=None,
    *,
    langs: tuple = ("en",),
    concurrency=None,
    batch_size: int = 256,
):
    """pages Dataset -> per-(sentence, term) evidence-context rows.

    KG provenance extraction: each matched sentence mention with its
    neighbor sentences, one row per distinct linked term
    (``MentionMatcher(emit={"contexts"})``).  Embarrassingly parallel
    matcher tasks — the same stage as :func:`extract_triples`; the only
    wide op is the presentation sort."""
    return _match_pages(pages_ds, lexicon_ref, {"contexts"}, langs=langs,
                        concurrency=concurrency, batch_size=batch_size) \
        .sort(["subj", "mention_idx", "obj"])


def extract_triples_and_contexts(
    pages_ds,
    lexicon_ref=None,
    *,
    bucket: bool = False,
    langs: tuple = ("en",),
    concurrency=None,
    batch_size: int = 256,
):
    """ONE matcher pass -> (triples Dataset, contexts Dataset).

    Materializing both the graph AND its evidence contexts through
    :func:`extract_triples` + :func:`mention_contexts` pays the
    matcher-bound cascade twice; with ``emit={"triples", "contexts"}``
    the matcher emits both row families from one pass with a per-page
    cascade memo (~1x matcher cost on short-sentence web text — measured
    2.84x faster than the two separate passes at 100k pages / 32 CPUs,
    BASELINE.md, back when each pass also spun up its own actor pool).

    The tagged union is materialized ONCE so the two filtered views don't
    re-execute the matcher; the materialized rows are extraction OUTPUT
    (triples + matched-window contexts), orders below page bytes.  Each
    family comes back byte-identical to its standalone stage (pinned by
    tests/test_kg_pipeline.py::test_fused_matcher_equals_separate_passes).
    """
    combined = _match_pages(pages_ds, lexicon_ref, {"triples", "contexts"},
                            bucket=bucket, langs=langs, concurrency=concurrency,
                            batch_size=batch_size).materialize()

    def take(family, cols):
        return lambda t: t.filter(pc.equal(t["family"], family)).select(cols)

    triples = combined.map_batches(take("triple", TRIPLES_SCHEMA.names),
                                   batch_format="pyarrow")
    contexts = combined.map_batches(take("ctx", CONTEXTS_SCHEMA.names),
                                    batch_format="pyarrow") \
        .sort(["subj", "mention_idx", "obj"])
    return triples, contexts


def triple_confidence(triples_ds):
    """Per-(pred, obj) assertion confidence over the RAW (pre-dedup)
    extraction stream — the evidence-scoring pass that turns extracted
    triples into a ranked KG: evidence volume (``n_mentions`` raw rows),
    page support (``n_pages`` distinct subjects), surface diversity
    (``n_surfaces`` distinct mention strings), and ``conf_permille`` =
    floor(1000 * n_pages / max n_pages among assertions of the SAME
    predicate) — an integer-exact support score normalized per predicate
    so full-term and component links are ranked within their own class.

    Shape: per-batch Arrow group_by collapses the raw stream to distinct
    (pred, obj, subj, mention) quadruples with counts (a hot assertion
    repeated across a batch ships once), ONE (pred, obj) sort co-locates
    each assertion's quadruples, and the per-block final computes the
    exact distinct counts.  The assertion-level stats table (ontology x
    predicate scale, orders below corpus) is materialized once so the
    per-predicate maxima (<= |preds| = 3 rows) fold on the driver without
    re-running the matcher; the annotate step is a stateless map over the
    materialized stats."""
    def quad_partial(t: pa.Table) -> pa.Table:
        sel = t.select(["pred", "obj", "subj", "mention"])
        sel = pa.table({c: pc.cast(sel[c], pa.string())
                        for c in sel.column_names})
        out = sel.group_by(["pred", "obj", "subj", "mention"],
                           use_threads=False).aggregate([([], "count_all")])
        return out.rename_columns(["pred", "obj", "subj", "mention", "cnt"])

    quads = triples_ds.map_batches(quad_partial, batch_format="pyarrow")

    _QKEYS = ["pred", "obj", "subj", "mention"]

    def combine(t: pa.Table) -> pa.Table:
        return t.group_by(_QKEYS, use_threads=False).aggregate(
            [("cnt", "sum")]).rename_columns(_QKEYS + ["cnt"])

    def final(t: pa.Table) -> pa.Table:
        return t.group_by(["pred", "obj"], use_threads=False).aggregate(
            [("cnt", "sum"), ("subj", "count_distinct"),
             ("mention", "count_distinct")]
        ).rename_columns(["pred", "obj", "n_mentions", "n_pages", "n_surfaces"]) \
            .sort_by([("pred", "ascending"), ("obj", "ascending")])

    stats = sorted_group_reduce(quads, ["pred", "obj"], combine, final) \
        .materialize()  # assertion-scale, never corpus-scale

    def max_partial(t: pa.Table) -> pa.Table:
        return t.group_by("pred", use_threads=False).aggregate(
            [("n_pages", "max")]).rename_columns(["pred", "mx"])

    # |preds| = 3 fixed predicate constants — a domain-bounded aggregate
    pred_max: dict[str, int] = {}
    for r in stats.map_batches(max_partial, batch_format="pyarrow").take_all():
        pred_max[r["pred"]] = max(pred_max.get(r["pred"], 0), int(r["mx"]))
    preds = pa.array(list(pred_max), pa.string())
    maxes = pa.array(list(pred_max.values()), pa.int64())

    def annotate(t: pa.Table) -> pa.Table:
        mx = pc.take(maxes, pc.index_in(t["pred"], value_set=preds))
        return t.append_column("conf_permille",
                               pc.divide(pc.multiply(t["n_pages"], 1000), mx))

    return stats.map_batches(annotate, batch_format="pyarrow")


def host_entity_profile(triples_ds, docs_per_host: int = 16):
    """Per-(host, ontology term) assertion profile over the deduped graph:
    triple count and distinct-page support — the entity-level host profile
    that turns KG extraction into host curation (a host whose profile is
    one hot entity across thousands of pages is a template farm; the C4
    recipe blocks whole hosts, not documents).  Host model mirrors
    webgraph.DOCS_PER_HOST (host id = doc_id // 16), so the SQL oracle
    re-derives it arithmetically.

    Shape: same ONE-sort grouped reduce as :func:`degree_stats`, keyed
    (host, obj); the per-batch (host, obj, subj) collapse bounds a hot
    (host, term) pair at one row per batch."""
    def with_host(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.replace_substring_regex(t["subj"], "^doc://", ""),
                      pa.int64())
        host = pc.binary_join_element_wise(
            "host", pc.cast(pc.divide(doc, docs_per_host), pa.string()), "")
        return pa.table({"host": host, "obj": t["obj"], "subj": t["subj"]})

    deduped = dedup_triples(triples_ds).map_batches(with_host,
                                                    batch_format="pyarrow")
    return sorted_group_reduce(deduped, ["host", "obj"],
                               _pair_counts(["host", "obj", "subj"]),
                               _term_support(["host", "obj"], "subj",
                                             ["n_triples", "n_pages"]))


def density_filter(triples_ds, sf_dir: str, min_density_permille: int = 10):
    """KG-density corpus curation: keep documents whose extraction yield —
    distinct deduped triples per token, in integer permille — clears a
    threshold.  The cross-family pass that turns the KG extractor into a
    training-data quality signal: entity-dense pages are topical prose,
    entity-free pages are navigation/boilerplate.

    Output (doc_id, n_triples, n_tokens, density_permille), doc-sorted,
    English docs only (the matcher's language gate).  density_permille =
    floor(1000 * n_triples / n_tokens); n_tokens = engine token count
    (never 0 for a doc that produced a triple, since a mention implies a
    token).

    Shape: the per-page triple count runs as :func:`dedup_triples`'s fused
    ``block_fn`` — inside the post-sort reduce task where every subject is
    provably whole even past ``target_max_block_size`` (see dedup_triples)
    — the subj url parses back to doc_id arithmetically, and a bucketed
    hash join attaches the documents-side token counts (size-switched
    semi-join semantics are not needed — both sides are page-scale,
    co-partitioned by the join's own bucketing)."""
    from lexmapr_ray.functions.joins import bucketed_hash_join

    def page_counts(t: pa.Table) -> pa.Table:
        g = pa.table({"subj": pc.cast(t["subj"], pa.string())}) \
            .group_by("subj", use_threads=False).aggregate([("subj", "count")])
        return pa.table({
            "doc_id": pc.cast(pc.replace_substring_regex(
                g["subj"], "^doc://", ""), pa.int64()),
            "n_triples": g["subj_count"],
        })

    counts = dedup_triples(triples_ds, block_fn=page_counts)

    from lexmapr_ray.stages.textstats import _read_documents, _token_counts

    docs = _read_documents(sf_dir, ["doc_id", "lang", "text"])

    def tok(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["lang"], "en")
        t = t.filter(keep)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_tokens": pa.array(_token_counts(t["text"]), pa.int64()),
        })

    toks = docs.map_batches(tok, batch_format="pyarrow")

    joined = bucketed_hash_join(
        counts, toks, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_triples", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("n_tokens", pa.int64())]),
    )

    def density(t: pa.Table) -> pa.Table:
        tri = t["n_triples"].to_numpy(zero_copy_only=False).astype(np.int64)
        tok_n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = (1000 * tri) // np.maximum(tok_n, 1)
        out = pa.table({
            "doc_id": t["doc_id"],
            "n_triples": t["n_triples"],
            "n_tokens": t["n_tokens"],
            "density_permille": pa.array(d, pa.int64()),
        })
        return out.filter(pc.greater_equal(out["density_permille"],
                                           min_density_permille))

    return joined.map_batches(density, batch_format="pyarrow").sort("doc_id")


def snapshot_diff(triples_a, triples_b):
    """Temporal KG maintenance: the assertion-level diff between two crawl
    snapshots' extracted graphs — every (subj, pred, obj) present in
    exactly one snapshot, tagged ``added`` (new crawl only) or ``removed``
    (old crawl only).  The downstream of an incremental ingest: apply the
    adds, retract the removes, leave the intersection untouched.

    Shape: each side collapses per batch to distinct (subj, pred, obj)
    keys carrying an in_a/in_b flag pair, the tagged union goes through
    ONE triple-key sort (not two dedup sorts plus a join), and the
    co-located final ORs the flags and keeps the symmetric difference.
    Shuffle volume is <= one row per distinct triple per batch per side."""
    _KEYS = ["subj", "pred", "obj"]

    def tag(a_flag: int, b_flag: int):
        def f(t: pa.Table) -> pa.Table:
            sel = t.select(["subj", "pred", "obj"])
            sel = pa.table({c: pc.cast(sel[c], pa.string())
                            for c in sel.column_names})
            out = sel.group_by(["subj", "pred", "obj"],
                               use_threads=False).aggregate([])
            n = out.num_rows
            return out.append_column(
                "in_a", pa.array(np.full(n, a_flag, dtype=np.int64))
            ).append_column(
                "in_b", pa.array(np.full(n, b_flag, dtype=np.int64)))
        return f

    tagged = triples_a.map_batches(tag(1, 0), batch_format="pyarrow").union(
        triples_b.map_batches(tag(0, 1), batch_format="pyarrow"))

    def combine(t: pa.Table) -> pa.Table:
        return t.group_by(_KEYS, use_threads=False).aggregate(
            [("in_a", "max"), ("in_b", "max")]).rename_columns(_KEYS + ["in_a", "in_b"])

    def final(t: pa.Table) -> pa.Table:
        g = combine(t)
        g = g.filter(pc.not_equal(g["in_a"], g["in_b"]))
        return g.select(_KEYS).append_column(
            "change", pc.if_else(pc.equal(g["in_b"], 1), "added", "removed")
        ).sort_by([(k, "ascending") for k in _KEYS])

    return sorted_group_reduce(tagged, _KEYS, combine, final)


def negative_samples(triples_ds):
    """In-page hard-negative sampling for KG-embedding / contrastive
    training: for each deduped (subj, pred, obj), corrupt the OBJECT with
    another entity linked from the SAME page — the 'in-batch negatives'
    pattern, made deterministic.  Same-page entities share context, so
    these are hard negatives, and the page-local domain means NO global
    entity table is shuffled or broadcast.  The draw is an md5-based
    integer offset (1 + h % (n-1), h = 32-bit prefix of
    md5('subj\\0pred\\0obj')), so neg_obj != obj by construction and the
    DuckDB oracle recomputes the same value arithmetically.  Pages linking
    a single entity yield no negative and are dropped.

    Shape: the per-page draw runs as :func:`dedup_triples`'s fused
    ``block_fn`` — inside the post-sort reduce task where every subject is
    provably whole even past ``target_max_block_size`` (see dedup_triples)
    — and is block-level vectorized: ONE Arrow join attaches per-row
    (page start, position-in-page, page-size) from the per-page
    sorted-unique obj table, and the draw plus the neg-obj gather are index
    arithmetic + a take.  The only per-row Python left is the md5 call
    itself (not vectorizable)."""
    import hashlib

    spo = ["subj", "pred", "obj"]

    def neg(t: pa.Table) -> pa.Table:
        rows = pa.table({c: pc.cast(t[c], pa.string()) for c in spo})
        # per-page sorted-unique obj table with page start, in-page
        # position and page size
        uniq = rows.group_by(["subj", "obj"], use_threads=False).aggregate([]) \
            .sort_by([("subj", "ascending"), ("obj", "ascending")])
        starts = run_starts(uniq, ["subj"])
        sizes = np.diff(starts, append=uniq.num_rows)
        first = np.repeat(starts, sizes)
        uniq = uniq.append_column("first", pa.array(first, pa.int64())) \
            .append_column("pos", pa.array(np.arange(uniq.num_rows) - first,
                                           pa.int64())) \
            .append_column("n", pa.array(np.repeat(sizes, sizes), pa.int64()))
        rows = rows.join(uniq, ["subj", "obj"], use_threads=False) \
            .sort_by([(c, "ascending") for c in spo])
        rows = rows.filter(pc.greater_equal(rows["n"], 2))
        md5 = hashlib.md5
        h = np.fromiter(
            (int.from_bytes(
                md5(f"{s}\x00{p}\x00{o}".encode()).digest()[:4], "big")
             for s, p, o in zip(*(rows[c].to_pylist() for c in spo))),
            dtype=np.int64, count=rows.num_rows)
        n, pos, first = (rows[c].to_numpy(zero_copy_only=False)
                         for c in ("n", "pos", "first"))
        idx = (pos + 1 + h % (n - 1)) % n
        return rows.select(spo).append_column(
            "neg_obj", uniq["obj"].take(pa.array(first + idx)))

    return dedup_triples(triples_ds, block_fn=neg)


_COOC_SCHEMA = pa.schema([("obj_a", pa.string()), ("obj_b", pa.string()),
                          ("n_pages", pa.int64())])


def cooccurrence_edges(triples_ds, *, max_page_terms: int | None = 128):
    """Term co-mention edges: for every pair of ontology terms linked from
    the same page, the number of distinct pages naming both — the
    edge-weighting pass that turns extracted triples into a term graph.

    ``max_page_terms`` is the ENFORCED hub cap: a page naming more than
    this many distinct terms is dropped from pair generation entirely
    (the C4 recipe's move — a link-farm / index page naming thousands of
    entities is boilerplate, and its C(k,2) pair explosion is quadratic).
    Real web pages name dozens of terms, so the default 128 never fires
    on organic text; pass ``None`` to disable.  Pinned by the adversarial
    hub fixture in tests/test_skew_stress.py.

    Shape: the per-page pair emit runs as :func:`dedup_triples`'s fused
    ``block_fn`` — inside the post-sort reduce task where every subject
    is provably whole even past ``target_max_block_size`` (see
    dedup_triples) — C(k,2) rows for a page with k <= cap distinct terms;
    one grouped count on (obj_a, obj_b) finishes."""
    def page_pairs(t: pa.Table) -> pa.Table:
        d = pa.table({"subj": pc.cast(t["subj"], pa.string()),
                      "obj": pc.cast(t["obj"], pa.string())}) \
            .group_by(["subj", "obj"], use_threads=False).aggregate([])
        if max_page_terms is not None:
            k = d.group_by("subj", use_threads=False).aggregate(
                [("obj", "count")])
            d = d.filter(pc.is_in(d["subj"], k.filter(pc.less_equal(
                k["obj_count"], max_page_terms))["subj"]))
        m = d.join(d, "subj", left_suffix="_a", right_suffix="_b")
        return m.filter(pc.less(m["obj_a"], m["obj_b"])) \
            .select(["obj_a", "obj_b"])

    pairs = dedup_triples(triples_ds, block_fn=page_pairs)
    # typed even when every page is over the cap and no pair is left
    return with_schema(grouped_sum_count(pairs, ["obj_a", "obj_b"],
                                         count_alias="n_pages"), _COOC_SCHEMA)


def term_components(triples_ds, *, max_iters: int | None = None):
    """Connected components of the term CO-MENTION graph: ontology terms
    linked whenever some page mentions both; ``component`` = the
    lexicographically smallest term id reachable — the coarse topical
    clusters a KG build reports before any embedding step.

    Reuses the generic distributed min-label + pointer-jump loop
    (:func:`lexmapr_ray.functions.components.min_label_components`,
    factored from near-dup clustering) with STRING node ids — labels are
    any totally ordered key, so no term->int densification pass is needed.
    Node and edge sets are vocabulary-scale (bounded by the ontology, not
    the corpus), but both are built distributed from corpus-scale triples;
    nothing lands on the driver."""
    from lexmapr_ray.functions.components import min_label_components

    edges = cooccurrence_edges(triples_ds).map_batches(
        lambda t: t.select(["obj_a", "obj_b"]), batch_format="pyarrow"
    )
    nodes = grouped_sum_count(
        dedup_triples(triples_ds).map_batches(
            lambda t: t.select(["obj"]), batch_format="pyarrow"),
        "obj",
    )
    labels = min_label_components(
        edges, nodes, a_col="obj_a", b_col="obj_b", node_col="obj",
        key_type=pa.string(), max_iters=max_iters,
    )
    return labels.map_batches(
        lambda t: t.rename_columns(
            [{"node": "term", "label": "component"}.get(c, c)
             for c in t.column_names]),
        batch_format="pyarrow",
    ).sort("term")


def run_kg_pipeline(
    pages_ds,
    *,
    lexicon_ref=None,
    out_dir: str | None = None,
    bucket: bool = False,
    concurrency=None,
    batch_size: int = 256,
):
    """Full pipeline; returns the deduped+sorted triples Dataset."""
    triples = extract_triples(
        pages_ds, lexicon_ref, bucket=bucket, concurrency=concurrency, batch_size=batch_size
    )
    return materialize_graph(triples, out_dir)


def _ancestor_closure(term: str, parents) -> set[str]:
    """Ancestor set of ``term`` (inclusive): BFS over ``parents`` — a
    ``{child: [parent, ...]}`` dict or a ``term -> iterable`` callable —
    with a visited set (diamonds visited once, cycles terminate) and no
    expansion past ``bfo_0000001`` (BFO's root entity, the same
    hierarchy-top convention as matcher.get_term_parent_hierarchies)."""
    get = parents if callable(parents) else lambda n: parents.get(n, ())
    seen = {term}
    stack = [term]
    while stack:
        node = stack.pop()
        if node == "bfo_0000001":
            continue
        for p in get(node):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def namespace_parents(term: str):
    """Deterministic stand-in hierarchy when no ontology is configured
    (the reference's default resources ship an EMPTY parents table —
    real parent edges arrive only with a fetched ontology): every term's
    parent is its ontology namespace (``CHEBI_24433 -> ns_chebi``) and
    every namespace's parent is ``owl_thing``.  A pure string rule, so
    the SQL oracle regenerates the identical closure."""
    if term == "owl_thing":
        return ()
    if term.startswith("ns_"):
        return ("owl_thing",)
    return ("ns_" + term.split("_")[0].lower(),)


def ancestor_rollup(triples_ds, parents):
    """Ontology-level KG rollup: triple and distinct-term counts
    aggregated up the parent hierarchy's transitive closure — the
    "how much evidence sits under FOODON vs CHEBI vs each mid-level
    class" view that drives ontology-subtree curation and coverage
    audits.  For every ancestor ``anc`` (terms count as their own
    ancestor): ``n_triples`` = deduped triples whose obj lies under
    ``anc``, ``n_terms`` = distinct such objs.

    ``parents`` is a ``{child: [parents]}`` dict, a ``ray.ObjectRef`` to
    one (broadcast once, read per task), or a pure ``term -> parents``
    callable (:func:`namespace_parents` when no ontology is loaded).

    Scale shape: the ``degree_stats`` shape lifted up the ontology DAG —
    everything after the triple dedup is VOCABULARY-bounded: per-batch
    (anc, obj) partial counts with one closure per distinct obj of the
    batch over the broadcast table, one anc sort, co-located exact
    distinct-term finals; shuffle <= one row per (anc, obj) per batch,
    never triple-scale.  Closure depth multiplies only the vocabulary-sized
    partials, not the corpus."""
    import ray

    deduped = dedup_triples(triples_ds).map_batches(
        lambda t: t.select(["obj"]), batch_format="pyarrow")
    count_objs = _pair_counts(["obj"])

    def partial(t: pa.Table) -> pa.Table:
        table = ray.get(parents) if isinstance(parents, ray.ObjectRef) \
            else parents
        anc_col, obj_col, cnt_col = [], [], []
        counts = count_objs(t)
        for obj, cnt in zip(counts["obj"].to_pylist(), counts["cnt"].to_pylist()):
            for anc in _ancestor_closure(obj, table):
                anc_col.append(anc)
                obj_col.append(obj)
                cnt_col.append(cnt)
        return pa.table({"anc": pa.array(anc_col, pa.string()),
                         "obj": pa.array(obj_col, pa.string()),
                         "cnt": pa.array(cnt_col, pa.int64())})

    return sorted_group_reduce(deduped, "anc", partial,
                               _term_support(["anc"], "obj",
                                             ["n_triples", "n_terms"]))


# ---------------------------------------------------------------------------
# Anchor-text entity linking
# ---------------------------------------------------------------------------

_ANCHOR_RE = None


def anchor_text_triples(sf_dir: str, lexicon_ref=None):
    """Anchor-text entity linking: run the LexMapr matcher over the anchor
    TEXT parsed out of raw html and emit (target_url, pred, term) triples —
    link labels describe the page they point AT, so anchors are the
    highest-precision mention source a web-scale KG build has (the same
    matcher cascade as the flagship, a different mention extractor;
    reference semantics anchor: lexmapr/pipeline.py's per-sample run).

    Scale shape: stateless anchor parse (compiled regex; emits only
    (url, text, lang) mention rows — html never reaches the matcher)
    -> the SAME broadcast-lexicon matcher tasks as
    :func:`extract_triples` (``pre_extracted=True``) -> the standard
    sorted triple dedup.  Anchors pointing at one target from many pages
    produce byte-identical triples, so the dedup is unambiguous.

    Oracle: the anchor text is ``_MATCHABLE_PHRASES[dst % 20]`` by
    synthesis, so SQL regenerates the edge set arithmetically and joins
    the committed serial phrase->term mapping
    (``expected/op_anchor_phrase_terms.parquet``).
    """
    import re

    from lexmapr_ray.sources.pages import linked_pages_from_documents

    global _ANCHOR_RE
    if _ANCHOR_RE is None:
        _ANCHOR_RE = re.compile(rb'<a href="([^"]+)">([^<]*)</a>')

    pages = linked_pages_from_documents(sf_dir)
    anchor_re = _ANCHOR_RE

    def parse(t: pa.Table) -> pa.Table:
        urls: list[str] = []
        texts: list[str] = []
        for h in t["html"].to_pylist():
            for m in anchor_re.finditer(h):
                # errors="replace": one non-UTF8 anchor byte in a hostile
                # crawl must not kill the task (advisor r4)
                urls.append(m.group(1).decode("utf-8", errors="replace"))
                texts.append(m.group(2).decode("utf-8", errors="replace"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        })

    anchors = pages.map_batches(parse, batch_format="pyarrow")
    triples = extract_triples(anchors, lexicon_ref, pre_extracted=True)
    return materialize_graph(triples)
