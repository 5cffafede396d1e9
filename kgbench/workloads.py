"""The four workloads: inputs, untimed pilot, one timed round, checks, layers.

A workload object is built from (work dir, seed, lexicon, scale).  The
runner calls ``prepare()`` and ``pilot()`` untimed, then ``round(tracer)``
until the time is up.  A round returns a dict with

* ``walls``: the latencies ``wall_s`` is the median of;
* ``items``: input items behind each latency (for ``items_per_s``);
* ``errors``: failed correctness checks, filled in by ``check(result)``;
* anything ``layers(results)`` needs for the per-layer metrics.

Only the engine's public functions are called: ``run_kg_pipeline``,
``materialize_graph``, ``ingest_batch`` (whose ``near_dup_gate`` is wrapped
when traced), and the ``stages.textstats`` / ``stages.dedup`` operators.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

import inputs
import oracles
from spans import patched


def _write(table: pa.Table, path: str, name: str = "part-0.parquet") -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(table, os.path.join(path, name))
    return path


def _ds_table(ds) -> pa.Table:
    """The blocks of a materialized Dataset, in order, as one table."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if len(t)]
    return pa.concat_tables(tables) if tables else pa.table({})


def op_stats(ds) -> list[dict]:
    """Per-operator executed stats of *ds*'s lineage, in execution order."""
    out = []

    def walk(s):
        for p in s.parents:
            walk(p)
        for o in s.operators_stats:
            out.append({"name": o.operator_name, "start": o.earliest_start_time,
                        "wall_s": (o.wall_time or {}).get("sum", 0.0),
                        "cpu_s": (o.cpu_time or {}).get("sum", 0.0),
                        "udf_s": (o.udf_time or {}).get("sum", 0.0),
                        "rows_out": (o.output_num_rows or {}).get("sum", 0),
                        "bytes_out": (o.output_size_bytes or {}).get("sum", 0)})

    walk(ds._get_stats_summary())
    return out


def graph_layers(stats: list[dict]) -> dict[str, dict]:
    """Map a KG pipeline's operators onto the layer names the metrics use:
    times are summed over a layer's operators, output is its last one's."""
    layers: dict[str, dict] = {}
    seen_sort = False
    for s in stats:
        n = s["name"]
        if n.startswith("ReadParquet"):
            layer = "sources.read"
        elif "MentionMatcher" in n:
            layer = "stages.match.pool"
        elif n.startswith("Sort"):
            layer, seen_sort = "pipelines.kg.sort", True
        elif "_block_dedup_sorted" in n:
            layer = "pipelines.kg.reduce" if seen_sort else "pipelines.kg.combine"
        else:
            continue
        acc = layers.setdefault(layer, {"wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0})
        for k in ("wall_s", "cpu_s", "udf_s"):
            acc[k] += s[k]
        acc["rows_out"], acc["bytes_out"] = s["rows_out"], s["bytes_out"]
    return layers


def _median_layers(results: list[dict]) -> dict[str, float]:
    """Median over rounds of each ``layer.field`` value."""
    vals: dict[str, list] = {}
    for r in results:
        for layer, fields in r.get("layers", {}).items():
            for f, v in fields.items():
                vals.setdefault(f"{layer}.{f}", []).append(v)
    return {k: statistics.median(v) for k, v in vals.items()}


def _files_table(path: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else pa.table({})


class _Base:
    def __init__(self, work: str, seed: int, lexicon, lexicon_ref, scale: float = 1.0):
        self.work, self.seed, self.scale = work, seed, scale
        self.lexicon, self.lexicon_ref = lexicon, lexicon_ref
        self._n_out = 0

    def size(self, n: int, floor: int = 20) -> int:
        return max(floor, int(n * self.scale))

    def out_dir(self, tag: str) -> str:
        """A fresh output directory; rounds are checked after the last one."""
        self._n_out += 1
        return os.path.join(self.work, "out", f"{tag}{self._n_out}")


class _GraphWorkload(_Base):
    """A round is one call that ends in ``materialize_graph(out_dir=...)``."""

    SPAN = ""

    def pilot(self):
        self._run(self.pilot_path, self.out_dir("pilot"))

    def round(self, tracer):
        out = self.out_dir("graph")
        t0 = time.perf_counter()
        if tracer is None:
            ds = self._run(self.path, out)
        else:
            with tracer.span(self.SPAN) as sp, _traced_write(tracer):
                ds = self._run(self.path, out)
        r = {"walls": [time.perf_counter() - t0], "items": [self.n_items], "ds": ds, "out": out}
        if tracer is not None:
            stats = op_stats(ds)
            r["layers"] = graph_layers(stats)
            r["layers"]["pipelines.kg.write"] = _write_layer(tracer, sp, out)
            pool = [st for st in stats if "MentionMatcher" in st["name"]]
            if pool:
                # time from the call to the pool's first block: actor start-up,
                # lexicon fetch and upstream read (block clocks are monotonic)
                r["layers"]["stages.match.pool"]["wait_s"] = pool[0]["start"] - t0
        return r


class KgBuild(_GraphWorkload):
    """Parquet pages -> html->text -> one-actor matcher pool -> dedup sort ->
    write: the flagship pipeline, where the matcher does most of the work."""

    N_PAGES, N_SAMPLE = 1500, 40
    SPAN = "pipelines.kg.run_kg_pipeline"

    def prepare(self):
        n = self.n_items = self.size(self.N_PAGES)
        self.pages = [inputs.page(i, self.seed) for i in range(n)]
        self.path = _write(inputs.pages_table(self.pages), os.path.join(self.work, "pages"))
        self.pilot_path = _write(inputs.pages_table([inputs.page(n + i, self.seed) for i in range(50)]),
                                 os.path.join(self.work, "pilot_pages"))
        rng = np.random.RandomState(self.seed)
        self.sample = [self.pages[i] for i in rng.choice(n, size=min(n, self.N_SAMPLE), replace=False)]

    def _run(self, path: str, out: str):
        from lexmapr_ray.pipelines.kg import run_kg_pipeline

        return run_kg_pipeline(rd.read_parquet(path), lexicon_ref=self.lexicon_ref,
                               out_dir=out, concurrency=1)

    def check(self, r):
        got = _ds_table(r.pop("ds"))
        errors = oracles.check_graph_shape(got, ordered=True)
        if not errors:
            errors += oracles.check_graph_sample(got, self.sample, self.lexicon)
            written = _files_table(r["out"])
            if oracles.table_rows(written, oracles.GRAPH_COLUMNS) != \
                    oracles.table_rows(got, oracles.GRAPH_COLUMNS):
                errors.append("written graph differs from the returned dataset")
        r["graph_rows"] = len(got)
        shutil.rmtree(r["out"], ignore_errors=True)
        return errors

    def layers(self, results):
        m = _median_layers(results)
        pool_rows = m.get("stages.match.pool.rows_out", 0)
        m["stages.match.matcher_ms_per_page"] = 1e3 * m.get("stages.match.pool.wall_s", 0) / self.n_items
        m["stages.match.triples_per_page"] = pool_rows / self.n_items
        if pool_rows:
            m["pipelines.kg.dup_frac"] = 1 - statistics.median(r["graph_rows"] for r in results) / pool_rows
        return m


class GraphMerge(_GraphWorkload):
    """materialize_graph over a pre-generated triples table with Zipf-skewed
    subjects where most rows repeat a key: combiner, push-based sort, block
    reduce and write, with no matcher work at all."""

    N_ROWS = 600_000
    SPAN = "pipelines.kg.materialize_graph"

    def prepare(self):
        self.triples = inputs.triples_table(self.seed, self.size(self.N_ROWS, 1000))
        self.n_items = len(self.triples)
        self.path = _write(self.triples, os.path.join(self.work, "triples"))
        self.pilot_path = _write(inputs.triples_table(self.seed + 1, 20_000),
                                 os.path.join(self.work, "pilot_triples"))
        self.expected = oracles.expected_merge(self.triples)

    def _run(self, path, out):
        from lexmapr_ray.pipelines.kg import materialize_graph

        return materialize_graph(rd.read_parquet(path), out_dir=out)

    def check(self, r):
        got = _ds_table(r.pop("ds"))
        errors = oracles.check_graph_shape(got, ordered=True)
        if not errors and not all(got[c].equals(self.expected[c]) for c in oracles.GRAPH_COLUMNS):
            errors.append("merged graph differs from the pyarrow per-key minimum")
        if not errors and _files_table(r["out"]).num_rows != len(self.expected):
            errors.append("written graph row count differs from the expected graph")
        shutil.rmtree(r["out"], ignore_errors=True)
        return errors

    def layers(self, results):
        m = _median_layers(results)
        m["pipelines.kg.dup_frac"] = 1 - len(self.expected) / len(self.triples)
        return m


class KgIngest(_Base):
    """K successive ingest_batch calls into an empty store; batches after the
    first carry planted near-duplicate recaptures of earlier pages.  The only
    round that reads back and rewrites its own persisted state (corpus, LSH
    index, versioned graph).  Run as a probe in kg_build's traced run, not as
    a workload: see TRACE_PROBES."""

    N_BATCHES, BATCH_PAGES, RECAPTURE_FRAC = 3, 300, 0.1

    def prepare(self):
        self.batches, self.planted = inputs.ingest_batches(
            self.seed, self.N_BATCHES, self.size(self.BATCH_PAGES), self.RECAPTURE_FRAC)
        self.paths = [_write(inputs.pages_table(b).select(["url", "text", "lang"]),
                             os.path.join(self.work, f"batch{i}"))
                      for i, b in enumerate(self.batches)]
        accepted = [p for b in self.batches for p in b if p["url"] not in self.planted]
        self.expected = oracles.serial_triples(accepted, self.lexicon)
        self.pilot_path = _write(
            inputs.pages_table([inputs.page(10**6 + i, self.seed) for i in range(50)])
            .select(["url", "text", "lang"]), os.path.join(self.work, "pilot_batch"))

    def _store(self, tag):
        root = self.out_dir(tag)
        return {k: os.path.join(root, k) for k in ("graph_dir", "index_dir", "corpus_dir")}, root

    def _ingest(self, path, store, batch_id):
        from lexmapr_ray.pipelines.ingest import ingest_batch

        return ingest_batch(rd.read_parquet(path), batch_id=batch_id,
                            lexicon_ref=self.lexicon_ref, concurrency=1, **store)

    def pilot(self):
        store, root = self._store("pilot")
        self._ingest(self.pilot_path, store, "000")
        shutil.rmtree(root, ignore_errors=True)

    def round(self, tracer):
        store, root = self._store("store")
        walls, metrics, gate = [], [], []
        for b, path in enumerate(self.paths):
            t0 = time.perf_counter()
            if tracer is None:
                m = self._ingest(path, store, f"{b:03d}")
            else:
                with tracer.span("pipelines.ingest.ingest_batch", batch=b) as sp, \
                        _traced_gate(tracer):
                    m = self._ingest(path, store, f"{b:03d}")
                gate.append(sum(s["end"] - s["start"] for s in tracer.spans
                                if s["name"] == "pipelines.ingest.near_dup_gate"
                                and s["parent"] == sp["id"]))
            walls.append(time.perf_counter() - t0)
            metrics.append(m)
        r = {"walls": walls, "items": [len(b) for b in self.batches],
             "metrics": metrics, "store": store, "root": root}
        if tracer is not None:
            r["gate_s"] = statistics.median(gate)
        return r

    def check(self, r):
        errors = []
        dropped = sum(m["near_dup_dropped"] for m in r["metrics"])
        files = glob.glob(os.path.join(r["store"]["corpus_dir"], "batch_*", "*.parquet"))
        corpus = {u for f in files for u in pq.read_table(f, columns=["url"])["url"].to_pylist()}
        all_urls = {p["url"] for b in self.batches for p in b}
        if dropped != len(self.planted) or corpus != all_urls - self.planted:
            errors.append(f"gate dropped {dropped} pages, expected the {len(self.planted)} planted "
                          f"recaptures; corpus holds {len(corpus)} of {len(all_urls - self.planted)} "
                          "accepted pages")
        with open(os.path.join(r["store"]["graph_dir"], "_CURRENT")) as f:
            graph = _files_table(os.path.join(r["store"]["graph_dir"], f.read().strip()))
        errors += oracles.check_graph_shape(graph, ordered=False)
        if not errors and oracles.table_rows(graph, oracles.GRAPH_COLUMNS) != self.expected:
            errors.append("final graph differs from the one-shot serial graph of accepted pages")
        shutil.rmtree(r.pop("root"), ignore_errors=True)
        return errors

    def layers(self, results):
        m = {}
        last = [r["metrics"][-1] for r in results]
        m["pipelines.ingest.gate_s"] = statistics.median(r["gate_s"] for r in results)
        m["pipelines.ingest.accept_frac"] = statistics.median(
            sum(x["pages_accepted"] for x in r["metrics"]) / sum(x["pages_in"] for x in r["metrics"])
            for r in results)
        m["pipelines.ingest.graph_triples"] = statistics.median(x["graph_triples"] for x in last)
        m["pipelines.ingest.batch_s_p50"] = statistics.median(w for r in results for w in r["walls"])
        m["pipelines.ingest.batch_s_last"] = statistics.median(r["walls"][-1] for r in results)
        return m


DOC_OPS = (("stages.textstats", "tfidf_top_terms"), ("stages.textstats", "token_rarity"),
           ("stages.textstats", "bigram_lm_score"), ("stages.textstats", "target_affinity"),
           ("stages.dedup", "minhash_dedup_pairs"))


class DocOps(_Base):
    """Five document operators over a documents table with planted
    near-duplicates: the pandas-block text statistics and MinHash dedup."""

    N_DOCS, DUP_FRAC = 2000, 0.05

    def prepare(self):
        docs, self.planted = inputs.documents_table(self.seed, self.size(self.N_DOCS), self.DUP_FRAC)
        self.docs = docs
        # the operators read <dir>/documents.parquet
        self.dir = _write(docs, os.path.join(self.work, "docs"), "documents.parquet")
        pilot, _ = inputs.documents_table(self.seed + 1, 200, self.DUP_FRAC)
        self.pilot_dir = _write(pilot, os.path.join(self.work, "pilot_docs"), "documents.parquet")
        self.expected = {"tfidf_top_terms": oracles.tfidf_top_terms(docs),
                         "token_rarity": oracles.token_rarity(docs)}
        self.digests: dict[str, int] = {}

    def _suite(self, d, tracer, ops=DOC_OPS):
        import importlib

        outs, walls = {}, {}
        for mod, name in ops:
            fn = getattr(importlib.import_module(f"lexmapr_ray.{mod}"), name)
            t0 = time.perf_counter()
            if tracer is None:
                ds = fn(d).materialize()
            else:
                with tracer.span(f"{mod}.{name}"):
                    ds = fn(d).materialize()
            walls[name] = time.perf_counter() - t0
            outs[name] = ds
        return outs, walls

    def pilot(self):
        # the first and last operators cover the worker imports the rest share
        self._suite(self.pilot_dir, None, (DOC_OPS[0], DOC_OPS[-1]))

    def round(self, tracer):
        t0 = time.perf_counter()
        outs, walls = self._suite(self.dir, tracer)
        r = {"walls": [time.perf_counter() - t0], "items": [self.docs.num_rows], "outs": outs,
             "op_walls": walls}
        if tracer is not None:
            r["layers"] = {"sources.read": {k: sum(s[k] for ds in outs.values() for s in op_stats(ds)
                                                   if s["name"].startswith("ReadParquet"))
                                            for k in ("wall_s", "cpu_s", "rows_out", "bytes_out")}}
        return r

    def check(self, r):
        errors = []
        tables = {name: _ds_table(ds) for name, ds in r.pop("outs").items()}
        for name, cols in (("tfidf_top_terms", ("doc_id", "term", "score_e6")),
                           ("token_rarity", ("doc_id", "n_tokens", "rarity_e3"))):
            if oracles.table_rows(tables[name], cols) != self.expected[name]:
                errors.append(f"{name} differs from its serial integer recompute")
        pairs = {tuple(sorted(p)) for p in zip(tables["minhash_dedup_pairs"]["doc_a"].to_pylist(),
                                               tables["minhash_dedup_pairs"]["doc_b"].to_pylist())}
        if pairs != self.planted:
            errors.append(f"minhash_dedup_pairs found {len(pairs)} pairs, "
                          f"expected the {len(self.planted)} planted near-duplicates")
        for name in ("bigram_lm_score", "target_affinity"):
            digest = hash(tuple(oracles.table_rows(tables[name], tables[name].column_names)))
            if self.digests.setdefault(name, digest) != digest:
                errors.append(f"{name} output differs between rounds")
        return errors

    def layers(self, results):
        m = _median_layers(results)
        for mod, name in DOC_OPS:
            m[f"{mod}.{name}_s"] = statistics.median(r["op_walls"][name] for r in results)
        return m


WORKLOADS = {"kg_build": KgBuild, "graph_merge": GraphMerge, "doc_ops": DocOps}

# Incremental ingest is not a workload of its own: on a shared small box its
# per-batch latency swung 4-8 s for one and the same input, wider than any
# regression bound.  A traced kg_build run ingests its own seed's pages in
# batches after the timed rounds and reports the pipelines.ingest layers.
TRACE_PROBES = {"kg_build": KgIngest}


# --- traced wrappers -------------------------------------------------------

def _traced_write(tracer):
    """Span every Dataset.write_parquet call (the graph write)."""
    orig = rd.Dataset.write_parquet

    def write_parquet(self, *a, **k):
        with tracer.span("pipelines.kg.write"):
            return orig(self, *a, **k)

    return patched(rd.Dataset, "write_parquet", write_parquet)


def _write_layer(tracer, parent: dict, out: str) -> dict:
    """Wall of the write spans under *parent*; rows and bytes of the files."""
    files = glob.glob(os.path.join(out, "*.parquet"))
    return {"wall_s": sum(s["end"] - s["start"] for s in tracer.spans
                          if s["name"] == "pipelines.kg.write" and s["parent"] == parent["id"]),
            "rows_out": sum(pq.ParquetFile(f).metadata.num_rows for f in files),
            "bytes_out": sum(os.path.getsize(f) for f in files)}


def _traced_gate(tracer):
    """Span near_dup_gate and run its lazy verdict plan inside the span, so
    the span covers banding, candidate join and exact verification."""
    import lexmapr_ray.pipelines.ingest as ingest

    orig = ingest.near_dup_gate

    def near_dup_gate(*a, **k):
        with tracer.span("pipelines.ingest.near_dup_gate"):
            verdicts, banded = orig(*a, **k)
            return (verdicts.materialize() if verdicts is not None else None), banded

    return patched(ingest, "near_dup_gate", near_dup_gate)
