"""Command-line entry points (``ray job submit``-able).

Two surfaces:

* ``kg-run`` — the web-scale pipeline: Parquet pages (or the deterministic
  synthetic corpus) -> checkpointed per-shard triples -> finalized
  deduped+sorted graph.  Resumable: re-running with the same ``--out`` skips
  completed shards (lineage sidecars in ``<out>/_lineage``).
* ``legacy-run`` — reference CLI parity (/root/reference/bin/lexmapr:34-57):
  CSV/TSV sample file -> LexMapr-format TSV report, byte-compatible with the
  reference's committed goldens.

Ray ownership: these are top-level scripts, so they MAY initialise Ray —
but only if nobody else has (``ray job submit`` drivers, tests and the
graft driver own their own sessions).
"""

from __future__ import annotations

import argparse
import json
import glob
import os
import sys


def _version() -> str:
    import lexmapr_ray

    return lexmapr_ray.__version__


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        # Honor RAY_ADDRESS so `ray job submit` / an existing cluster wins;
        # only a bare environment gets a private local session.  Dashboard
        # stays off for local runs (no-op when attaching to a cluster).
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")


def cmd_kg_run(args) -> int:
    _ensure_ray()
    from lexmapr_ray.pipelines.kg import broadcast_lexicon
    from lexmapr_ray.pipelines.resumable import (
        finalize_graph,
        run_resumable,
        shard_parquet_pages,
        shard_synth_pages,
    )

    if args.input.startswith("synth:"):
        shards = shard_synth_pages(int(args.input[len("synth:"):]), args.shards)
    else:
        paths = sorted(glob.glob(args.input))
        if not paths:
            print(f"no parquet files match {args.input!r}", file=sys.stderr)
            return 2
        files_per = max(1, len(paths) // args.shards)
        shards = shard_parquet_pages(paths, files_per)

    lexicon_ref = broadcast_lexicon(config=args.config)
    stats = run_resumable(
        shards,
        args.out,
        lexicon_ref=lexicon_ref,
        bucket=args.bucket,
        batch_size=args.batch_size,
    )
    print(f"shards: {stats['processed']} processed, {stats['skipped']} resumed-skipped")
    if args.finalize:
        graph = finalize_graph(args.out, args.finalize)
        print(f"final graph: {graph.count()} triples -> {args.finalize}")
    if args.entities:
        import ray.data as rd

        from lexmapr_ray.pipelines.kg import canonicalize_mentions
        from lexmapr_ray.state.lineage import committed_files

        files = committed_files(args.out)
        ents = canonicalize_mentions(rd.read_parquet(files)).materialize()
        ents.write_parquet(args.entities)
        print(f"canonical entities: {ents.count()} surface forms -> {args.entities}")
    return 0


def cmd_kg_ingest(args) -> int:
    _ensure_ray()
    from lexmapr_ray.pipelines.ingest import ingest_batch
    from lexmapr_ray.pipelines.kg import broadcast_lexicon
    from lexmapr_ray.sources.tables import read_parquet

    if args.batch.startswith("synth:"):
        from lexmapr_ray.sources.pages import synth_pages_dataset

        n = int(args.batch[len("synth:"):])
        pages = synth_pages_dataset(n)
        default_bid = f"synth{n}"
    else:
        paths = sorted(glob.glob(args.batch))
        if not paths:
            print(f"no parquet files match {args.batch!r}", file=sys.stderr)
            return 2
        pages = read_parquet(paths)
        import hashlib as _hashlib

        # idempotency key from path + size + mtime per file — hashing
        # paths alone would silently skip re-ingesting a crawl that
        # OVERWROTE the same filenames with fresh data (review r5)
        sig = "\0".join(
            f"{p}:{os.stat(p).st_size}:{os.stat(p).st_mtime_ns}"
            for p in paths)
        default_bid = _hashlib.md5(sig.encode()).hexdigest()[:12]

    metrics = ingest_batch(
        pages,
        graph_dir=args.graph,
        index_dir=args.index,
        corpus_dir=args.corpus,
        batch_id=args.batch_id or default_bid,
        lexicon_ref=broadcast_lexicon(config=args.config),
        threshold=args.threshold / 100.0,
        bucket=args.bucket,
        batch_size=args.batch_size,
    )
    print(json.dumps(metrics) if not metrics.get("skipped") else
          f"batch {metrics['batch_id']} already committed — skipped")
    return 0


# Packaged profiles (reference: resources/profiles/<p>/<p>_args.json,
# pipeline_resources.py:17-37 — profile values fill in unset args only).
# The reference's prebuilt ifsac lookup TABLE is a stripped blob upstream;
# its bucket tables ship in the predefined resources we already load.
PROFILES = {
    "ifsac": {"output": "ifsac_output.tsv", "bucket": True},
}


def cmd_legacy_run(args) -> int:
    # serial conformance path — byte-compatible with the reference output
    from lexmapr_ray.pipelines.legacy import build_legacy_lexicon, run_samples

    if args.profile:
        for key, val in PROFILES[args.profile].items():
            if not getattr(args, key):
                setattr(args, key, val)

    # reference pipeline.py:28-54: predefined resources, optionally merged
    # with the --config ontology lookup table (--no-cache bypasses the
    # per-config JSON cache)
    lexicon = build_legacy_lexicon(config=args.config,
                                   no_cache=args.no_cache,
                                   bucket=args.bucket)

    if args.distributed:
        _ensure_ray()
        from lexmapr_ray.pipelines.legacy import run_samples_distributed

        report = run_samples_distributed(
            args.input_file, lexicon=lexicon, full=args.full,
            bucket=args.bucket
        )
    else:
        report = run_samples(args.input_file, lexicon=lexicon,
                             full=args.full, bucket=args.bucket)
    if args.output:
        with open(args.output, "w") as f:
            f.write(report)
    else:
        sys.stdout.write(report)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lexmapr_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    kg = sub.add_parser("kg-run", help="web-scale pages->triples KG pipeline")
    kg.add_argument("--input", required=True,
                    help="parquet glob of pages tables, or synth:<n_pages>")
    kg.add_argument("--out", required=True, help="checkpointed output dir")
    kg.add_argument("--shards", type=int, default=16)
    kg.add_argument("--batch-size", type=int, default=512)
    kg.add_argument("--bucket", action="store_true",
                    help="also emit lexmapr:classifiedAs triples")
    kg.add_argument("--config", metavar="JSON",
                    help="ontology config (list of {ontology_path: root_iri}) "
                         "merged into the lexicon, earlier entries winning")
    kg.add_argument("--finalize", metavar="DIR",
                    help="write the global deduped+sorted graph to DIR")
    kg.add_argument("--entities", metavar="DIR",
                    help="also write canonicalized entities (surface form -> "
                         "canonical term) to DIR")
    kg.set_defaults(fn=cmd_kg_run)

    ing = sub.add_parser(
        "kg-ingest",
        help="ingest ONE new crawl batch: near-dup gate vs the persisted "
             "LSH index -> extract -> merge into the existing sorted graph")
    ing.add_argument("--batch", required=True,
                     help="parquet glob of the new pages batch, or synth:<n>")
    ing.add_argument("--graph", required=True,
                     help="graph store dir (versioned; _CURRENT pointer)")
    ing.add_argument("--index", required=True,
                     help="persisted banded-LSH index dir (appended per batch)")
    ing.add_argument("--corpus", required=True,
                     help="accepted-pages corpus store dir (appended per batch)")
    ing.add_argument("--batch-id",
                     help="idempotency key (default: md5 over each input "
                          "file's path+size+mtime)")
    ing.add_argument("--threshold", type=int, default=80,
                     help="near-dup Jaccard threshold, percent (default 80)")
    ing.add_argument("--batch-size", type=int, default=256)
    ing.add_argument("--bucket", action="store_true")
    ing.add_argument("--config", metavar="JSON",
                     help="ontology config merged into the lexicon")
    ing.set_defaults(fn=cmd_kg_ingest)

    legacy = sub.add_parser("legacy-run", help="LexMapr-compatible CSV->TSV run")
    legacy.add_argument("input_file")
    legacy.add_argument("-o", "--output", nargs="?")
    legacy.add_argument("-f", "--full", action="store_true")
    legacy.add_argument("-b", "--bucket", action="store_true")
    # reference bin/lexmapr:38-49 flag parity
    legacy.add_argument("-c", "--config", metavar="JSON",
                        help="JSON file listing ontology IRIs to fetch "
                             "terms from (file:// IRIs resolve offline)")
    legacy.add_argument("--no-cache", action="store_true",
                        help="ignore/replace the cached per-config "
                             "ontology lookup table, if any")
    legacy.add_argument("-v", "--version", action="version",
                        version="%(prog)s " + _version())
    legacy.add_argument("-p", "--profile", choices=sorted(PROFILES))
    legacy.add_argument("--distributed", action="store_true",
                        help="run the matcher as Ray Data tasks "
                             "(byte-identical output, for large sample files)")
    legacy.set_defaults(fn=cmd_legacy_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
