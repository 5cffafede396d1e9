"""Small-box benchmark of the lexmapr_ray KG engine (one matcher actor).

    python3 kgbench/run.py --workload kg_build --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run generates its inputs from
``--seed``, sets the engine up, runs one untimed pilot, then repeats the
workload's timed round for ``--seconds`` seconds (always finishing the round
in progress) and checks every round's output.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds, runs a serial matcher pass (and, on kg_build, the ingest probe)
and prints the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the line before it is the run identity.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import glob
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".kgbench_work")
LEXICON_SEED = 0
SETUP_REPS = 3
# one CPU for the matcher actor, one for read, sort and write tasks, and one
# for an earlier stage's actor that Ray has not released yet: with two, an
# ingest batch could wait ~18 s for a CPU while the gate's actor wound down
RAY_CPUS = 3
MATCHER_SAMPLE_PAGES = 300


def setup_child(resource_dir: str, out_path: str) -> None:
    """One set-up repetition in a fresh process: import the engine, build
    the lexicon cold from the CSVs and serialize it as the broadcast does."""
    t0 = time.perf_counter()
    from lexmapr_ray.lexkit.lexicon import build_lexicon

    t1 = time.perf_counter()
    lex = build_lexicon(resource_dir, use_cache=False)
    t2 = time.perf_counter()
    blob = pickle.dumps(lex, protocol=pickle.HIGHEST_PROTOCOL)
    t3 = time.perf_counter()
    with open(out_path, "w") as f:
        json.dump({"import_s": t1 - t0, "build_s": t2 - t1, "pickle_s": t3 - t2,
                   "pickle_mb": len(blob) / 1e6, "end_time": time.time()}, f)


def measure_setup(resource_dir: str, work: str) -> list[dict]:
    """SETUP_REPS set-up repetitions, run side by side (the box has spare
    cores; nothing else of the benchmark runs meanwhile)."""
    outs = [os.path.join(work, f"setup{i}.json") for i in range(SETUP_REPS)]
    procs = []
    for out in outs:
        procs.append((time.time(), subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-child", resource_dir, out], cwd=ROOT)))
    if any(p.wait() != 0 for _, p in procs):
        raise RuntimeError("a set-up repetition failed")
    reps = []
    for out, (spawned, _) in zip(outs, procs):
        with open(out) as f:
            rep = json.load(f)
        reps.append(dict(rep, wall_s=rep["end_time"] - spawned))
    return reps


def ensure_lexicon() -> str:
    """The lexicon CSVs (fixed seed, so every workload and seed matches
    against the same lexicon), generated once per checkout."""
    import lexgen

    d = os.path.join(WORK_ROOT, f"lexicon-seed{LEXICON_SEED}")
    if not os.path.exists(os.path.join(d, "_DONE")):
        shutil.rmtree(d, ignore_errors=True)
        lexgen.generate(d + ".tmp", LEXICON_SEED)
        os.replace(d + ".tmp", d)
        open(os.path.join(d, "_DONE"), "w").close()
    return d


def start_ray(work: str) -> tuple[float, str]:
    import pyarrow as pa

    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    import ray
    from ray.data import DataContext

    # this run's own session dir, removed at exit; unix socket paths under
    # it must stay below ~107 bytes, so a long checkout path falls back to
    # a temp dir
    temp = os.path.join(WORK_ROOT, f"r{os.getpid()}")
    if len(temp) > 40:
        temp = tempfile.mkdtemp(prefix="kgb-ray-")
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=400 * 1024 * 1024, _temp_dir=temp)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return time.perf_counter() - t0, temp


def matcher_pass(lexicon, seed: int, tracer) -> dict[str, float]:
    """Serial matcher pass over a fixed page sample: plain ms/mention, then
    a traced pass giving per-step self ms/mention and the step counts."""
    import inputs
    import lexmapr_ray.lexkit.matcher as matcher
    from lexmapr_ray.stages.match import extract_text_stage, segment_mentions
    from spans import patched

    pages = [inputs.page(10**7 + i, seed) for i in range(MATCHER_SAMPLE_PAGES)]
    table = inputs.pages_table(pages)
    ext = []
    for _ in range(3):
        t0 = time.perf_counter()
        extract_text_stage(table)
        ext.append(time.perf_counter() - t0)
    mentions = [m for p in pages for m in segment_mentions(p["text"])]
    t0 = time.perf_counter()
    results = [matcher.match_sample(m, lexicon) for m in mentions]
    plain = time.perf_counter() - t0

    steps = ("word_tokenize", "singularize_token", "map_term", "get_gram_chunks",
             "get_term_parent_hierarchies", "retain_phrase")
    traced_match = tracer.aggregate("match_sample", matcher.match_sample)
    lexicon.chunk_can_match = tracer.aggregate("chunk_can_match", lexicon.chunk_can_match)
    try:
        with contextlib.ExitStack() as stack:
            for s in steps:
                stack.enter_context(patched(matcher, s, tracer.aggregate(s, getattr(matcher, s))))
            for m in mentions:
                traced_match(m, lexicon)
    finally:
        del lexicon.chunk_can_match
    n = len(mentions)
    agg = tracer.agg
    out = {"lexkit.matcher.ms_per_mention": 1e3 * plain / n,
           "lexkit.matcher.self_ms_per_mention": 1e3 * agg["match_sample"][2] / n,
           "lexkit.matcher.mentions_per_page": n / len(pages),
           "lexkit.matcher.matched_frac": sum(bool(r.matched_components) for r in results) / n,
           "lexkit.matcher.map_term_calls_per_mention": agg["map_term"][0] / n,
           "lexkit.matcher.chunk_admit_frac": agg["chunk_can_match"][3] / max(1, agg["chunk_can_match"][0]),
           "stages.match.extract_ms_per_page": 1e3 * statistics.median(ext) / len(pages)}
    for s in steps + ("chunk_can_match",):
        out[f"lexkit.matcher.{s}_ms_per_mention"] = 1e3 * agg[s][2] / n
    return out


def identity(lex_dir: str, args) -> dict:
    import pyarrow
    import ray

    import lexgen

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(ROOT, "lexmapr_ray", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fp:
            h.update(fp.read())
    return {"git_sha": sha, "engine_source_digest": h.hexdigest()[:16],
            "lexicon_digest": lexgen.content_digest(lex_dir), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_logical_cpus": ray.cluster_resources().get("CPU"),
            "ray_version": ray.__version__, "pyarrow_version": pyarrow.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        print(f"kgbench: run from the checkout root: {e}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "lexmapr_ray")):
        print("kgbench: no lexmapr_ray package in the working directory", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"kgbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # workers import the engine from this checkout; the lexicon cache the
    # engine reads at import points at this run's own directory
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    os.environ["LEXMAPR_CACHE_DIR"] = os.path.join(work, "lexicon_cache")
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["ARROW_IO_THREADS"] = "2"
    sys.path[:0] = [ROOT, HERE]
    ray_temp = None
    try:
        lex_dir = ensure_lexicon()
        setup = measure_setup(lex_dir, work)
        ray_init_s, ray_temp = start_ray(work)
        return run(args, spec, work, lex_dir, setup, ray_init_s)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if ray_temp:
            shutil.rmtree(ray_temp, ignore_errors=True)


def run(args, spec, work, lex_dir, setup, ray_init_s) -> int:
    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.pipelines.kg import broadcast_lexicon
    from spans import HostSampler, Tracer
    from workloads import TRACE_PROBES, WORKLOADS

    t0 = time.perf_counter()
    lexicon = build_lexicon(lex_dir, use_cache=False)
    lexicon_ref = broadcast_lexicon(lexicon=lexicon)
    wl = WORKLOADS[args.workload](work, args.seed, lexicon, lexicon_ref)
    wl.prepare()
    t1 = time.perf_counter()
    wl.pilot()
    t2 = time.perf_counter()

    tracer = Tracer()
    results = []
    with HostSampler() as host:
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            try:
                r = wl.round(tracer if traced else None)
            except Exception as e:  # a failed round counts, it does not end the run
                r = {"walls": [], "items": [], "errors": [f"round raised {e!r}"]}
            r["traced"] = traced
            results.append(r)
            if time.perf_counter() - t_start >= args.seconds and len(results) >= 1 + args.trace:
                break

    t3 = time.perf_counter()
    checked = [(wl, r) for r in results]
    probe = TRACE_PROBES.get(args.workload) if args.trace else None
    if probe:
        probe = probe(os.path.join(work, "probe"), args.seed, lexicon, lexicon_ref)
        probe.prepare()
        probe.pilot()
        try:
            probe_result = probe.round(tracer)
        except Exception as e:
            probe_result = {"walls": [], "errors": [f"probe round raised {e!r}"]}
        checked.append((probe, probe_result))
    attempted = failed = 0
    for owner, r in checked:
        if "errors" not in r:
            try:
                r["errors"] = owner.check(r)
            except Exception as e:
                r["errors"] = [f"check raised {e!r}"]
        n_ops = max(1, len(r["walls"]))
        attempted += n_ops
        failed += n_ops if r["errors"] else 0
    print(f"kgbench: {args.workload}: inputs {t1 - t0:.1f} s, pilot {t2 - t1:.1f} s, "
          f"{len(results)} rounds {t3 - t2:.1f} s, checks {time.perf_counter() - t3:.1f} s",
          file=sys.stderr)
    for _, r in checked:
        for e in r["errors"]:
            print(f"kgbench: {args.workload}: {e}", file=sys.stderr)

    plain = [r for r in results if not r["traced"] and r["walls"]]
    walls = [w for r in plain for w in r["walls"]]
    values = {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "items_per_s": statistics.median(n / w for r in plain for n, w in zip(r["items"], r["walls"]))
        if walls else 0.0,
        "peak_rss_mb": host.peak_rss / 1e6,
    }
    ident = identity(lex_dir, args)
    ident.update(host_busy_frac=host.busy_frac, host_steal_frac=host.steal_frac)
    if args.trace:
        traced = [r for r in results if r["traced"] and not r["errors"]]
        values.update(wl.layers(traced) if traced else {})
        values.update(matcher_pass(lexicon, args.seed, tracer))
        if probe and not probe_result["errors"]:
            values.update(probe.layers([probe_result]))
        traced_walls = [w for r in traced for w in r["walls"]]
        values.update({
            "lexkit.lexicon.build_s": statistics.median(s["build_s"] for s in setup),
            "lexkit.lexicon.pickle_mb": statistics.median(s["pickle_mb"] for s in setup),
            "host.cpu_busy_frac": host.busy_frac, "host.steal_frac": host.steal_frac,
            "host.ray_init_s": ray_init_s,
            "tracing_overhead_frac": (statistics.median(traced_walls) / values["wall_s"]
                                      if traced_walls and walls else 0.0),
        })

    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    tracer.dump(os.path.join(WORK_ROOT, "traces",
                             f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                identity=ident, values=values, setup=setup, self_s=tracer.self_times(),
                rounds=[{"walls": r["walls"], "traced": r["traced"], "errors": r["errors"]}
                        for r in results])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"identity": ident}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--setup-child":
        sys.path.insert(0, ROOT)
        setup_child(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
