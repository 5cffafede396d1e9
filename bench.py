"""Benchmark harness.

Runs the headline KG pipeline plus representative operator pipelines over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) and prints ONE JSON line:

    {"metric": "kg_pipeline_sec", "value": <sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "pages_per_sec": ...,
     "triples_per_sec": ...}

``--scaling`` reruns the headline pipeline in fresh processes at
``SCALING_LEGS`` (default 4,16 — chosen by the measured hardware
envelope, see the --scaling block and BASELINE.md) on the same input,
sandwich-INTERLEAVING the legs so host wall-clock drift cancels in the
paired ratios, and reports the median paired efficiency (the sandbox
stand-in for the north rule's N vs 4N cluster sizes).  Validated result
2026-08-18: **0.905** (pairs 0.891/0.905/0.923).  ``BENCH_REPEATS``
(default 3) controls both the headline median and the number of leg
pairs.  ``--envelope`` measures the no-Ray multiprocessing ceiling of
the same matcher compute (the silicon's own N->4N scaling).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# 1M pages ~= 950 CPU-seconds of matcher work: enough that compute, not the
# ~10 s fixed Ray/actor-pool startup + sort-barrier tail, dominates at 32
# CPUs — the regime a 100 TB run (hours of steady state) actually lives in.
# 20k pages finishes in ~2 s of parallel work and would measure only startup.
BENCH_PAGES = int(os.environ.get("BENCH_PAGES", "1000000"))


def _init_ray(num_cpus: int):
    # pin pyarrow's internal pools: they size to the PHYSICAL core count and
    # ignore Ray's CPU tokens, letting a small-num_cpus session free-ride on
    # the whole box during parquet decode — which corrupts the N vs 4N
    # comparison
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("ARROW_IO_THREADS", "2")
    import pyarrow as pa

    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


# ``BENCH_POOL_FRAC=num,den``: the share of CPUs the matcher's task limit
# gets (default 7/8, the engine's own rule).  The N vs 4N protocol needs
# the limit EXACTLY proportional to cpus (identical per-CPU layout on both
# "clusters"), and 7/8 truncates unevenly at small N (4 -> 3 but 16 -> 14,
# a 4.67x ratio that would bias the measured efficiency upward); 3,4 gives
# 3 and 12 — exact, and conservative for the hi leg.
POOL_FRAC = tuple(int(x) for x in os.environ.get("BENCH_POOL_FRAC", "7,8").split(","))


def _pool_size() -> int:
    """Matcher task limit of the running session: the engine's one sizing
    rule (``stages/dedup.py::_auto_concurrency``) at :data:`POOL_FRAC`."""
    from lexmapr_ray.stages.dedup import _auto_concurrency

    return _auto_concurrency(frac=POOL_FRAC)


def _corpus_dir(n_pages: int, hot_prob: float = 0.25) -> str:
    """Materialize the deterministic pages corpus to Parquet ONCE (untimed).

    The engine's contract input is a Parquet pages table (BASELINE.json
    input_hint) — benching the synth generator charged ~0.4 ms/page of
    numpy RandomState churn to the pipeline and dominated the 32-CPU
    profile with allocator contention that a real read-from-storage run
    does not have.  ``hot_prob`` > 0.25 selects the skew-stress variant
    (separate directory; the default keeps every prior corpus path and
    its bytes unchanged)."""
    import ray.data as rd

    from lexmapr_ray.sources.pages import synth_pages_dataset

    suffix = "" if hot_prob == 0.25 else f"_hot{int(hot_prob * 100)}"
    path = f"/tmp/graft_bench_pages_{n_pages}{suffix}"
    done = os.path.join(path, "_DONE")
    if not os.path.exists(done):
        synth_pages_dataset(
            n_pages, override_num_blocks=256, batch_size=4096,
            hot_prob=hot_prob,
        ).write_parquet(path)
        open(done, "w").close()
    return path


def _cpu_jiffies() -> dict:
    """Box-wide jiffy counters from /proc/stat line 1 (zeros off-Linux).

    ``steal`` is CPU the hypervisor withheld from this VM while it was
    runnable — the direct, per-window measurement of the host-contention
    drift that confounds the N-vs-4N scaling protocol."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return {"busy": 0, "steal": 0, "total": 0}
    user, nice, sys_, idle, iow, irq, sirq, steal = v
    busy = user + nice + sys_ + irq + sirq
    return {"busy": busy, "steal": steal,
            "total": busy + idle + iow + steal}


def run_headline(repeats: int | None = None) -> dict:
    """KG pipeline over the materialized Parquet pages corpus.

    Reports the MEDIAN of ``repeats`` timed runs (sandbox wall-clock noise
    is +-20-45% run-to-run; a single sample cannot distinguish a regression
    from host noise) plus the individual run times.
    """
    import statistics

    import ray.data as rd

    from lexmapr_ray.pipelines.kg import broadcast_lexicon, run_kg_pipeline

    repeats = repeats or int(os.environ.get("BENCH_REPEATS", "3"))
    corpus = _corpus_dir(BENCH_PAGES)

    # warm: build/broadcast lexicon and run a pilot outside the timed
    # window — worker-process imports and actor cold-start are fixed costs
    # that amortize to nothing over a multi-hour 100 TB run, so the
    # steady-state throughput is the honest scaling signal
    lexicon_ref = broadcast_lexicon()
    run_kg_pipeline(
        rd.read_parquet(corpus).limit(2000),
        lexicon_ref=lexicon_ref, batch_size=512,
        concurrency=_pool_size(),
    ).count()

    runs = []
    n_triples = 0
    j0 = _cpu_jiffies()
    for _ in range(repeats):
        t0 = time.time()
        pages = rd.read_parquet(corpus)
        triples = run_kg_pipeline(
            pages, lexicon_ref=lexicon_ref, batch_size=512,
            concurrency=_pool_size(),
        )
        n_triples = triples.count()
        runs.append(time.time() - t0)
    j1 = _cpu_jiffies()
    jt = max(1, j1["total"] - j0["total"])
    dt = statistics.median(runs)

    # with-write leg: same pipeline consumed via write_parquet (sorted
    # graph shards to local disk) — the 100-TB sink cost the count-only
    # headline doesn't exercise.  One timed run; reported next to the
    # no-write median so the sink overhead is a visible ratio.
    # BENCH_WRITE=0 skips it (the --scaling legs time the count-only
    # pipeline; doubling each leg would double the protocol's wall time).
    if os.environ.get("BENCH_WRITE", "1") == "0":
        return {
            "sec": dt,
            "runs": [round(r, 2) for r in runs],
            "pages": BENCH_PAGES,
            "n_triples": n_triples,
            "pages_per_sec": BENCH_PAGES / dt,
            "triples_per_sec": n_triples / dt,
            "steal_frac": round((j1["steal"] - j0["steal"]) / jt, 4),
            "busy_frac": round((j1["busy"] - j0["busy"]) / jt, 4),
        }
    import shutil

    out_dir = f"/tmp/graft_bench_graph_{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    run_kg_pipeline(
        rd.read_parquet(corpus), lexicon_ref=lexicon_ref, batch_size=512,
        concurrency=_pool_size(), out_dir=out_dir,
    )
    sec_with_write = time.time() - t0
    shutil.rmtree(out_dir, ignore_errors=True)

    return {
        "sec": dt,
        "runs": [round(r, 2) for r in runs],
        "sec_with_write": round(sec_with_write, 2),
        "write_overhead_ratio": round(sec_with_write / dt, 3),
        "pages": BENCH_PAGES,
        "n_triples": n_triples,
        "pages_per_sec": BENCH_PAGES / dt,
        "triples_per_sec": n_triples / dt,
        # host-contention telemetry over the timed window (see _cpu_jiffies)
        "steal_frac": round((j1["steal"] - j0["steal"]) / jt, 4),
        "busy_frac": round((j1["busy"] - j0["busy"]) / jt, 4),
    }


def run_queries(sf_dir: str) -> dict:
    """Time a representative subset of the operator suite.

    Runs in a FRESH Ray session (main() re-inits after the headline): the
    1M-page headline leaves the object store full of spilled triple blocks
    whose draining contended the first document-table queries for tens of
    seconds (r3: minhash measured 51 s right after the headline vs 9 s in a
    fresh session).  A small untimed warm-up absorbs the remaining
    first-read costs (worker imports, parquet footer cache) that are fixed
    per session, not per query."""
    from lexmapr_ray.pipelines import relational as rel
    from lexmapr_ray.pipelines import webgraph
    from lexmapr_ray.sources.pages import url_canonicalize as _url_canonicalize
    from lexmapr_ray.stages import (bpe, dedup, packing, similarity, sketches,
                                    textstats)

    import ray.data as rd

    for tbl in ("documents", "embeddings"):
        rd.read_parquet(f"{sf_dir}/{tbl}.parquet").count()

    timings = {}
    for name, fn in [
        ("q1_pricing_summary", rel.q1_pricing_summary),
        ("q3_topk_revenue", rel.q3_topk_revenue),
        ("q5_regional_revenue", rel.q5_regional_revenue),
        ("q5_full_asia_revenue", rel.q5_full_asia_revenue),
        ("orders_topk", rel.orders_topk),
        ("events_hourly", rel.events_hourly),
        ("part_brand_revenue", rel.part_brand_revenue),
        ("doc_fingerprint", textstats.doc_fingerprint),
        ("dedup_exact", dedup.dedup_exact),
        ("minhash_dedup_pairs", dedup.minhash_dedup_pairs),
        ("cosine_topk", similarity.cosine_topk_bruteforce),
        ("semantic_dedup", similarity.semantic_dedup),
        ("tfidf_top_terms", textstats.tfidf_top_terms),
        ("gopher_quality_filter", textstats.gopher_quality_filter),
        ("source_stats", textstats.source_stats),
        ("event_value_quantiles", rel.event_value_quantiles),
        ("customer_event_activity", rel.customer_event_activity),
        ("hll_distinct_tokens", sketches.hll_distinct_tokens),
        ("token_rarity", textstats.token_rarity),
        ("bigram_lm_score", textstats.bigram_lm_score),
        ("target_affinity", textstats.target_affinity),
        ("minhash_index_dedup", dedup.minhash_index_dedup),
        ("bpe_merges", bpe.bpe_train),
        ("inverted_index", textstats.inverted_index),
        ("pagerank_docs", webgraph.pagerank_docs),
        ("host_filtered_corpus", webgraph.host_filtered_corpus),
        ("knn_graph", similarity.knn_graph),
        ("chunk_documents", packing.chunk_documents),
        ("orders_running_window", rel.orders_running_window),
        ("dup_span_trim", dedup.dup_span_trim),
        ("token_triangles", webgraph.token_triangles),
        ("rrf_search", similarity.rrf_search),
        ("collocations", textstats.collocations),
        ("split_drift", textstats.split_drift),
        ("host_near_dup", dedup.host_near_dup),
        ("hits_docs", webgraph.hits_docs),
        ("bm25_search", similarity.bm25_search),
        ("label_propagation", webgraph.label_propagation_docs),
        ("random_walks", webgraph.random_walks),
        ("weighted_sample", textstats.weighted_sample),
        ("neighbor_feature_agg", webgraph.neighbor_feature_agg),
        ("paragraph_dedup", dedup.paragraph_dedup),
        ("url_canonicalize", _url_canonicalize),
        ("host_link_graph", webgraph.host_link_graph),
        ("winnowing_fingerprint", textstats.winnowing_fingerprint),
        ("kmv_token_quantiles", sketches.kmv_token_quantiles),
        ("winnowing_dup_pairs", dedup.winnowing_dup_pairs),
        ("rerank_topk", similarity.rerank_topk),
    ]:
        t0 = time.time()
        res = fn(sf_dir)
        # consume without materializing to the driver beyond a count
        res.count()
        timings[name] = round(time.time() - t0, 3)
    return timings


def _envelope_worker(files, quota, batch_size, barrier):
    """One envelope process: build matcher state and read the input slice
    UNTIMED, rendezvous at the barrier, then run the real matcher compute
    (extract_text invariant check + match_sample loop) with no Ray, no
    shuffle, no object store — pure hardware."""
    import pyarrow.parquet as pq

    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.stages.match import MentionMatcher, extract_text_stage

    matcher = MentionMatcher(build_lexicon())
    tables = []
    got = 0
    for f in files:
        if got >= quota:
            break
        t = pq.read_table(f)
        t = t.slice(0, min(len(t), quota - got))
        got += len(t)
        tables.append(t)
    import pyarrow as pa

    data = pa.concat_tables(tables)
    barrier.wait()
    for lo in range(0, len(data), batch_size):
        matcher(extract_text_stage(data.slice(lo, batch_size)))


def _envelope_leg(nprocs: int, pages: int, corpus: str) -> float:
    """Wall seconds for ``pages`` of matcher work split across ``nprocs``
    barrier-released processes (the fixed-total-work N vs 4N shape)."""
    import multiprocessing as mp

    files = sorted(
        os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".parquet")
    )
    quota = pages // nprocs
    barrier = mp.Barrier(nprocs + 1)
    procs = [
        mp.Process(target=_envelope_worker,
                   args=(files[w::nprocs], quota, 512, barrier))
        for w in range(nprocs)
    ]
    for p in procs:
        p.start()
    barrier.wait()
    t0 = time.time()
    for p in procs:
        p.join()
    return time.time() - t0


def _use_lexicon() -> None:
    """Point ``LEXMAPR_RESOURCES`` at the lexicon this run matches with
    (inherited by Ray workers and ``--scaling`` children), falling back on
    the test lexicon when neither the variable nor the reference tree is
    there, and name it and its fingerprint on stderr."""
    from lexmapr_ray.lexkit.lexicon import _resource_fingerprint, resource_dir

    lex = resource_dir(fallback=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "tests", "data", "lexicon"))
    os.environ["LEXMAPR_RESOURCES"] = lex
    print(f"lexicon: {lex} (fingerprint {_resource_fingerprint(lex)})", file=sys.stderr)


def main():
    _use_lexicon()
    if "--envelope" in sys.argv:
        # The single-box hardware envelope for the N vs 4N protocol: the
        # SAME matcher compute the engine distributes, run as plain
        # barrier-released multiprocessing (no Ray) at 7 vs 28 processes
        # over a fixed total corpus.  Any sub-1.0 here is turbo/memory-
        # bandwidth/cache contention of 28-busy-cores vs 7-busy-cores on
        # one box — a confound that does NOT exist between two clusters
        # built from identical nodes, where per-node occupancy is equal by
        # construction.  Sandwich interleaved like --scaling so host drift
        # cancels the same way.
        import statistics

        pages = int(os.environ.get("ENVELOPE_PAGES", "400000"))
        repeats = int(os.environ.get("BENCH_REPEATS", "3"))
        corpus = _corpus_dir(max(pages, BENCH_PAGES))
        lo_n, hi_n = (int(x) for x in os.environ.get("ENVELOPE_LEGS", "7,28").split(","))
        _envelope_leg(hi_n, pages // 4, corpus)  # warm page cache, untimed
        his = [_envelope_leg(hi_n, pages, corpus)]
        pairs, lo_walls = [], []
        for _ in range(repeats):
            l = _envelope_leg(lo_n, pages, corpus)
            his.append(_envelope_leg(hi_n, pages, corpus))
            lo_walls.append(l)
            hi_avg = (his[-2] + his[-1]) / 2
            pairs.append(round((l / hi_avg) / (hi_n / lo_n), 3))
        print(json.dumps({
            "metric": "matcher_hardware_envelope",
            "value": statistics.median(pairs),
            "unit": "ratio",
            "legs": [lo_n, hi_n],
            "pair_effs": pairs,
            "runs_lo": [round(x, 2) for x in lo_walls],
            "runs_hi": [round(x, 2) for x in his],
            "pages": pages,
        }))
        return

    if "--skew" in sys.argv:
        # Skew stress at bench scale (VERDICT r3 #4): the hot-key guards
        # exercised, not just coded.  Two adversarial shapes, each timed
        # next to its uniform twin:
        #   * kg_entities (extract -> canonicalize) over a corpus whose hot
        #     surface form appears in ~85% of pages (hot_prob=0.5/sentence)
        #     vs the standard 0.25 corpus (serial-oracle exactness at small
        #     scale is tests/test_skew_stress.py's job).
        #   * host_near_dup over sf0.1 documents with ONE host owning 50%
        #     of all docs (docs_per_host = n/2) vs the default 16-doc
        #     hosts.
        _init_ray(NUM_CPUS)
        import ray
        import ray.data as rd

        from lexmapr_ray.pipelines.kg import (broadcast_lexicon,
                                              canonicalize_mentions,
                                              extract_triples)
        from lexmapr_ray.stages.dedup import host_near_dup

        skew_pages = int(os.environ.get("SKEW_PAGES", str(BENCH_PAGES)))
        ref = broadcast_lexicon()
        pool = _pool_size()
        out = {"metric": "skew_stress", "unit": "sec",
               "num_cpus": NUM_CPUS, "pages": skew_pages}

        def entities(corpus):
            return canonicalize_mentions(
                extract_triples(rd.read_parquet(corpus), ref,
                                concurrency=pool, batch_size=512))

        for tag, hot in (("uniform", 0.25), ("hot50", 0.5)):
            corpus = _corpus_dir(skew_pages, hot_prob=hot)
            # warm pilot (actor cold start, parquet footers) — untimed
            canonicalize_mentions(extract_triples(
                rd.read_parquet(corpus).limit(2000), ref,
                concurrency=pool, batch_size=512)).count()
            t0 = time.time()
            df = entities(corpus).to_pandas()
            out[f"kg_entities_{tag}_sec"] = round(time.time() - t0, 2)
            out[f"kg_entities_{tag}_rows"] = len(df)
            if tag == "hot50":
                # the hot phrase matches via its component surface
                # ("breast"); report the top key's corpus share
                out["hot_share_pct"] = int(
                    100 * df["n_mentions"].max() / df["n_mentions"].sum())
        docs = f"{SF_DIR}/documents.parquet"
        n_docs = rd.read_parquet(docs).count()
        for tag, dph in (("uniform", 16), ("hot50", max(n_docs // 2, 1))):
            t0 = time.time()
            n = host_near_dup(SF_DIR, docs_per_host=dph).count()
            out[f"host_near_dup_{tag}_sec"] = round(time.time() - t0, 2)
            out[f"host_near_dup_{tag}_pairs"] = n

        # link-farm hub cap (VERDICT r4 #4): one page naming HUB_TERMS
        # distinct terms among uniform pages — capped pair generation must
        # stay flat while the uncapped C(K,2) explosion is the documented
        # quadratic hazard the cap removes
        import pyarrow as _pa

        from lexmapr_ray.pipelines.kg import cooccurrence_edges
        from lexmapr_ray.stages.match import TRIPLES_SCHEMA

        hub_terms = int(os.environ.get("HUB_TERMS", "2000"))

        def hub_triples():
            rows = [dict(subj="doc://hub", pred="p", obj=f"H{o:05d}",
                         obj_label="l", mention="m", status="[]")
                    for o in range(hub_terms)]
            for s in range(20000):
                for o in range(6):
                    rows.append(dict(subj=f"doc://c{s:05d}", pred="p",
                                     obj=f"T{(s + o) % 40}", obj_label="l",
                                     mention="m", status="[]"))
            return rd.from_arrow(
                _pa.Table.from_pylist(rows, schema=TRIPLES_SCHEMA))

        t0 = time.time()
        n_capped = cooccurrence_edges(hub_triples()).count()
        out["coocc_hub_capped_sec"] = round(time.time() - t0, 2)
        out["coocc_hub_capped_edges"] = n_capped
        t0 = time.time()
        n_raw = cooccurrence_edges(hub_triples(), max_page_terms=None).count()
        out["coocc_hub_uncapped_sec"] = round(time.time() - t0, 2)
        out["coocc_hub_uncapped_edges"] = n_raw

        out["value"] = out["kg_entities_hot50_sec"]
        print(json.dumps(out))
        ray.shutdown()
        return

    if "--fused-contexts" in sys.argv:
        # VERDICT r4 #2: one matcher pass emitting triples AND evidence
        # contexts vs paying the matcher-bound cascade twice.  Both paths
        # materialize BOTH outputs; pilot warms the pools untimed.
        import ray
        import ray.data as rd

        _init_ray(NUM_CPUS)
        from lexmapr_ray.pipelines.kg import (broadcast_lexicon,
                                              extract_triples,
                                              extract_triples_and_contexts,
                                              mention_contexts)

        pages = int(os.environ.get("FUSED_PAGES", "100000"))
        corpus = _corpus_dir(pages)
        ref = broadcast_lexicon()
        pool = _pool_size()

        extract_triples(rd.read_parquet(corpus).limit(2000), ref,
                        concurrency=pool).count()  # warm, untimed
        t0 = time.time()
        nt = extract_triples(rd.read_parquet(corpus), ref,
                             concurrency=pool, batch_size=512).count()
        nc = mention_contexts(rd.read_parquet(corpus), ref,
                              concurrency=pool, batch_size=512).count()
        sep = time.time() - t0
        t0 = time.time()
        ft, fc = extract_triples_and_contexts(
            rd.read_parquet(corpus), ref, concurrency=pool, batch_size=512)
        nft, nfc = ft.count(), fc.materialize().count()
        fused = time.time() - t0
        assert (nft, nfc) == (nt, nc), (nft, nfc, nt, nc)
        print(json.dumps({
            "metric": "fused_triples_plus_contexts", "unit": "sec",
            "value": round(fused, 2), "separate_sec": round(sep, 2),
            "speedup": round(sep / fused, 2), "pages": pages,
            "triples": nt, "contexts": nc, "num_cpus": NUM_CPUS,
        }))
        ray.shutdown()
        return

    if "--pool-scaling" in sys.argv:
        # fixed-node variant: ONE 32-CPU session, actor pool 7 vs 28 (a true
        # 4x with every session-size confounder held constant) — the closest
        # single-box stand-in for N vs 4N identical nodes
        _init_ray(32)
        import ray

        from lexmapr_ray.pipelines.kg import broadcast_lexicon, run_kg_pipeline
        import ray.data as rd

        corpus = _corpus_dir(BENCH_PAGES)
        ref = broadcast_lexicon()
        run_kg_pipeline(rd.read_parquet(corpus).limit(2000), lexicon_ref=ref,
                        batch_size=512, concurrency=7).count()
        thr = {}
        for pool in (7, 28):
            t0 = time.time()
            run_kg_pipeline(rd.read_parquet(corpus), lexicon_ref=ref,
                            batch_size=512, concurrency=pool).count()
            thr[pool] = BENCH_PAGES / (time.time() - t0)
        print(json.dumps({
            "metric": "kg_pool_scaling_efficiency",
            "value": round((thr[28] / thr[7]) / 4, 3),
            "unit": "ratio",
            "pages_per_sec_7actors": round(thr[7], 1),
            "pages_per_sec_28actors": round(thr[28], 1),
            "pages": BENCH_PAGES,
        }))
        ray.shutdown()
        return

    if "--scaling" in sys.argv:
        # N vs 4N fresh ray.init sessions.  Defaults are the VALIDATED
        # protocol that measured 0.905 (pairs 0.891/0.905/0.923, BASELINE.md
        # 2026-08-18): legs 4,16 with pools exactly proportional (3,12 via
        # BENCH_POOL_FRAC=3,4), 4M-page legs, sandwich interleave.  Each
        # default dodges a measured confound:
        #   * legs 4,16 — the silicon itself caps 7->28 processes at 0.826
        #     (bench.py --envelope, no Ray); 4->16 measures 0.931, so
        #     full-box legs test the socket, not the engine;
        #   * BENCH_POOL_FRAC=3,4 — 7/8 truncates 4->3 but 16->14 (a 4.67x
        #     pool ratio) and would bias the ratio upward;
        #   * 4M pages — the hi leg's ~12 s fixed ramp+drain is a constant
        #     a 100 TB run amortizes to zero but a short leg books as
        #     anti-scaling (2M pages measures 0.789, 4M measures 0.905);
        #   * sandwich — see below.  Takes ~50 min end to end.
        lo, hi = (int(x) for x in os.environ.get("SCALING_LEGS", "4,16").split(","))
        scaling_pages = os.environ.get("SCALING_PAGES", str(max(BENCH_PAGES, 4_000_000)))
        # INTERLEAVE the legs: this host's effective CPU speed drifts up to
        # 2x across the hour, so running all lo-repeats then all hi-repeats
        # lets the drift masquerade as (anti-)scaling; alternating puts both
        # legs under the same conditions and the median ratio cancels it.
        import statistics
        repeats = int(os.environ.get("BENCH_REPEATS", "3"))

        def leg(ncpu):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_REPEATS="1",
                       BENCH_PAGES=scaling_pages, BENCH_WRITE="0")
            env.setdefault("BENCH_POOL_FRAC", "3,4")
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--headline-only"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            return json.loads(out.strip().splitlines()[-1])

        if os.environ.get("SCALING_MODE", "sandwich") == "sandwich":
            # hi,lo,hi,lo,...,hi: every lo leg is BRACKETED by two hi legs
            # and compared to their average wall.  The lo leg is ~4x longer
            # than a hi leg, so in the plain alternation the pair's two
            # legs sample different host-drift windows; bracketing cancels
            # drift to first order (a linear speed change across the
            # sandwich hits the lo leg and the hi-average identically).
            his = [leg(hi)]
            pairs = []
            samples = {lo: [], hi: his}
            for _ in range(repeats):
                l = leg(lo)
                h = leg(hi)
                samples[lo].append(l)
                his.append(h)
                hi_avg = (his[-2]["sec"] + his[-1]["sec"]) / 2
                pairs.append(round((l["sec"] / hi_avg) / (hi / lo), 3))
            # ratio-of-means across ALL legs: each leg contributes equally,
            # so one drift-hit leg moves this ~1/n instead of potentially
            # displacing the median; reported alongside the paired median
            mean_ratio = round(
                (statistics.mean(r["sec"] for r in samples[lo])
                 / statistics.mean(r["sec"] for r in his)) / (hi / lo), 3)
            print(json.dumps({
                "metric": "kg_scaling_efficiency",
                "value": statistics.median(pairs),
                "unit": "ratio",
                "mode": "sandwich",
                "legs": [lo, hi],
                "pair_effs": pairs,
                "mean_ratio_eff": mean_ratio,
                # the north rule asks for throughput AT BOTH levels, not
                # just the ratio
                f"pages_per_sec_{lo}cpu": round(statistics.median(
                    r["pages_per_sec"] for r in samples[lo]), 1),
                f"pages_per_sec_{hi}cpu": round(statistics.median(
                    r["pages_per_sec"] for r in his), 1),
                "runs_lo": [round(r["sec"], 2) for r in samples[lo]],
                "runs_hi": [round(r["sec"], 2) for r in his],
                "steal_lo": [r.get("steal_frac", 0) for r in samples[lo]],
                "steal_hi": [r.get("steal_frac", 0) for r in his],
                "pages": int(scaling_pages),
            }))
            return

        samples = {lo: [], hi: []}
        for _ in range(repeats):
            for ncpu in (lo, hi):
                samples[ncpu].append(leg(ncpu))
        thr_lo = statistics.median(r["pages_per_sec"] for r in samples[lo])
        thr_hi = statistics.median(r["pages_per_sec"] for r in samples[hi])
        # per-round ratio median: each lo/hi pair ran back-to-back, so the
        # paired ratio is the drift-cancelled estimator
        pairs = [
            round((h["pages_per_sec"] / l["pages_per_sec"]) / (hi / lo), 3)
            for l, h in zip(samples[lo], samples[hi])
        ]
        pair_eff = statistics.median(pairs)
        # steal-adjusted pairs: each leg reports the hypervisor steal_frac
        # measured over its own timed window (/proc/stat); wall x
        # (1 - steal_frac) is the leg's calm-host wall estimate, removing
        # the one host confound we can measure directly rather than only
        # interleave away.  Raw pairs stay the headline number; the
        # adjusted median is the confound-isolated view.
        adj_pairs = [
            round((l["sec"] * (1 - l.get("steal_frac", 0)))
                  / (h["sec"] * (1 - h.get("steal_frac", 0))) / (hi / lo), 3)
            for l, h in zip(samples[lo], samples[hi])
        ]
        print(json.dumps({
            "metric": "kg_scaling_efficiency",
            "value": round(pair_eff, 3),
            "unit": "ratio",
            "legs": [lo, hi],
            "median_of_medians_eff": round((thr_hi / thr_lo) / (hi / lo), 3),
            "pair_effs": pairs,
            "steal_adjusted_eff": statistics.median(adj_pairs),
            "steal_adjusted_pairs": adj_pairs,
            f"pages_per_sec_{lo}cpu": round(thr_lo, 1),
            f"pages_per_sec_{hi}cpu": round(thr_hi, 1),
            "runs_lo": [round(r["sec"], 2) for r in samples[lo]],
            "runs_hi": [round(r["sec"], 2) for r in samples[hi]],
            "steal_lo": [r.get("steal_frac", 0) for r in samples[lo]],
            "steal_hi": [r.get("steal_frac", 0) for r in samples[hi]],
            "pages": int(scaling_pages),
        }))
        return

    _init_ray(NUM_CPUS)
    import ray

    headline = run_headline()
    if "--headline-only" in sys.argv:
        print(json.dumps({
            "metric": "kg_pipeline_sec",
            "value": round(headline["sec"], 3),
            "unit": "sec",
            "num_cpus": NUM_CPUS,
            **{k: (round(v, 1) if isinstance(v, float) else v) for k, v in headline.items()},
        }))
        ray.shutdown()
        return

    # fresh session for the query suite: drop the headline's spilled
    # object-store residue (see run_queries docstring)
    ray.shutdown()
    _init_ray(NUM_CPUS)
    queries = run_queries(SF_DIR)
    print(json.dumps({
        "metric": "kg_pipeline_sec",
        "value": round(headline["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages": headline["pages"],
        "n_triples": headline["n_triples"],
        "pages_per_sec": round(headline["pages_per_sec"], 1),
        "triples_per_sec": round(headline["triples_per_sec"], 1),
        "sec_with_write": headline.get("sec_with_write"),
        "write_overhead_ratio": headline.get("write_overhead_ratio"),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
