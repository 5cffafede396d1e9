"""Checkpointed, resumable KG construction over sharded inputs.

At 100 TB the corpus arrives as many Parquet files / WARC segments; a run
is a sequence of SHARDS (one shard ~ one file group / index range).  Each
shard executes as its own fully-streaming Ray Data pipeline
(extract -> match -> local dedup) and lands in its own partition directory
with a lineage sidecar (:mod:`lexmapr_ray.state.lineage`); a killed run
resumes by skipping completed shards.  The global dedup + sort runs once
over all partition outputs in :func:`finalize_graph` — it is idempotent
and re-runnable.

Why driver-side shard loop rather than one giant Dataset: checkpoint
granularity IS the unit of re-work after failure.  Ray retries tasks
within a running job, but a *driver* crash (spot loss, OOM, redeploy)
loses the whole pipeline — per-shard commits bound that loss to one shard.
Inside a shard everything is still streaming `map_batches` tasks; the
loop adds no per-record driver work.
"""

from __future__ import annotations

import time

from lexmapr_ray.pipelines.kg import (
    broadcast_lexicon,
    dedup_triples,
    extract_triples,
)
from lexmapr_ray.state.lineage import (
    ShardRecord,
    committed_files,
    completed_shards,
    part_dir,
    write_record,
)


def shard_synth_pages(n_pages: int, n_shards: int):
    """Deterministic index-range sharding of the synthetic corpus.

    Returns ``{shard_id: (make_dataset, input_desc, rows_in)}``.
    """
    from lexmapr_ray.sources.pages import synth_pages_dataset

    per = (n_pages + n_shards - 1) // n_shards
    shards = {}
    for sid in range(n_shards):
        lo, hi = sid * per, min((sid + 1) * per, n_pages)
        if lo >= hi:
            continue

        def make(lo=lo, hi=hi):
            import ray.data as rd

            from lexmapr_ray.sources.pages import synth_pages_table

            ds = rd.range(hi - lo, override_num_blocks=max(1, (hi - lo) // 512))
            return ds.map_batches(
                lambda b, lo=lo: synth_pages_table(b["id"] + lo),
                batch_format="numpy",
                batch_size=512,
            )

        shards[sid] = (make, f"synth_pages[{lo}:{hi}]", hi - lo)
    return shards


def shard_parquet_pages(paths: list[str], files_per_shard: int = 1):
    """Shard a Parquet pages corpus by file groups (the natural lineage
    unit: resume skips whole input files)."""
    shards = {}
    for sid in range(0, len(paths), files_per_shard):
        group = paths[sid : sid + files_per_shard]

        def make(group=group):
            from lexmapr_ray.sources.tables import read_parquet

            return read_parquet(group)

        shards[sid // files_per_shard] = (make, ";".join(group), -1)
    return shards


def run_resumable(
    shards: dict,
    out_dir: str,
    *,
    lexicon_ref=None,
    bucket: bool = False,
    concurrency=None,
    batch_size: int = 512,
    fail_after: int | None = None,
) -> dict:
    """Process all incomplete shards; returns run metrics.

    ``fail_after`` (tests only) raises after N shards to simulate a driver
    crash mid-run.
    """
    if lexicon_ref is None:
        lexicon_ref = broadcast_lexicon()
    done = completed_shards(out_dir)
    processed = skipped = 0
    engine_config = {"bucket": bucket, "batch_size": batch_size}
    for sid, (make, desc, rows_in) in sorted(shards.items()):
        if sid in done:
            skipped += 1
            continue
        if fail_after is not None and processed >= fail_after:
            raise RuntimeError(f"injected failure after {processed} shards")
        t0 = time.time()
        triples = extract_triples(
            make(),
            lexicon_ref,
            bucket=bucket,
            concurrency=concurrency,
            batch_size=batch_size,
        )
        # local (within-shard) dedup only — the cross-shard pass runs in
        # finalize_graph; write_parquet commits the partition before the
        # lineage sidecar marks it complete
        deduped = dedup_triples(triples)
        pdir = part_dir(out_dir, sid)
        deduped = deduped.materialize()
        deduped.write_parquet(pdir)
        write_record(
            out_dir,
            ShardRecord(
                shard_id=sid,
                input_desc=desc,
                rows_in=rows_in,
                triples_out=deduped.count(),
                wall_s=round(time.time() - t0, 3),
                engine_config=engine_config,
            ),
        )
        processed += 1
    return {"processed": processed, "skipped": skipped, "shards": len(shards)}


def finalize_graph(out_dir: str, final_dir: str | None = None):
    """Global dedup + sort over every committed partition; idempotent.
    A partition directory from a crashed shard is invisible to the graph
    (:func:`~lexmapr_ray.state.lineage.committed_files`)."""
    import ray.data as rd

    graph = dedup_triples(rd.read_parquet(committed_files(out_dir)))
    if final_dir:
        graph = graph.materialize()
        graph.write_parquet(final_dir)
    return graph
