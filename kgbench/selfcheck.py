"""Self-check of the benchmark's correctness checks, at tiny input sizes.

    python3 kgbench/selfcheck.py

Runs one round of every workload, then feeds each workload's ``check`` the
clean output (which must pass) and one deliberately corrupted output per
check (each of which must fail).  Finally it runs ``run.py`` in a directory
holding only ``BENCHMARK.json`` and the benchmark, where it must exit
non-zero without printing a result.  Exits non-zero if any expectation fails.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.getcwd(), HERE]

import run  # noqa: E402

SCALE = 0.1


def _table_case(table, written=None, work=""):
    """A kg_build / graph_merge round result whose output is *table*."""
    import pyarrow.parquet as pq
    import ray.data as rd

    out = os.path.join(work, f"case{len(os.listdir(work))}")
    os.makedirs(out)
    pq.write_table(written if written is not None else table, os.path.join(out, "part.parquet"))
    return {"ds": rd.from_arrow(table), "out": out}


def _set(table, column, row, value):
    import pyarrow as pa

    vals = table[column].to_pylist()
    vals[row] = value
    return table.set_column(table.schema.get_field_index(column), column, pa.array(vals, table[column].type))


def graph_cases(wl, r, work):
    import pyarrow as pa

    from workloads import _ds_table

    got = _ds_table(r["ds"])
    shutil.rmtree(r["out"], ignore_errors=True)
    urls = {p["url"] for p in getattr(wl, "sample", [])}
    row = next((i for i, u in enumerate(got["subj"].to_pylist()) if u in urls), 0)
    n = len(got)
    cases = {
        "clean output": (_table_case(got, work=work), False),
        "rows out of key order": (_table_case(got.take(pa.array(range(n - 1, -1, -1))), work=work), True),
        "duplicate key": (_table_case(pa.concat_tables([got.slice(0, 1), got]), work=work), True),
        "wrong payload in one row": (_table_case(_set(got, "obj_label", row, "corrupted"), work=work), True),
        "written files lose a row": (_table_case(got, written=got.slice(1), work=work), True),
    }
    return cases


def ingest_cases(wl, r, work):
    def variant(tag):
        v = copy.deepcopy({k: x for k, x in r.items() if k != "root"})
        root = os.path.join(work, tag)
        shutil.copytree(r["root"], root)
        v["root"] = root
        v["store"] = {k: d.replace(r["root"], root) for k, d in r["store"].items()}
        return v

    dropped = variant("dropped")
    dropped["metrics"][-1]["near_dup_dropped"] -= 1
    corpus = variant("corpus")
    os.remove(sorted(glob.glob(os.path.join(corpus["store"]["corpus_dir"], "batch_*", "*.parquet")))[-1])
    graph = variant("graph")
    with open(os.path.join(graph["store"]["graph_dir"], "_CURRENT")) as f:
        version = os.path.join(graph["store"]["graph_dir"], f.read().strip())
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(version, "*.parquet")))
    t = pq.read_table(files[0])
    pq.write_table(_set(t, "mention", 0, "corrupted"), files[0])
    clean = variant("clean")
    shutil.rmtree(r["root"], ignore_errors=True)
    return {"clean output": (clean, False), "gate drop count differs": (dropped, True),
            "corpus misses accepted pages": (corpus, True), "final graph row changed": (graph, True)}


def doc_cases(wl, r, work):
    import ray.data as rd

    from workloads import _ds_table

    tables = {k: _ds_table(ds) for k, ds in r["outs"].items()}

    def variant(name=None, fn=None):
        outs = {k: rd.from_arrow(fn(t) if k == name else t) for k, t in tables.items()}
        return {"outs": outs}

    return {
        "clean output": (variant(), False),
        "tfidf score off by one": (variant("tfidf_top_terms", lambda t: _set(
            t, "score_e6", 0, t["score_e6"][0].as_py() + 1)), True),
        "token rarity off by one": (variant("token_rarity", lambda t: _set(
            t, "rarity_e3", 0, t["rarity_e3"][0].as_py() + 1)), True),
        "near-dup pair missing": (variant("minhash_dedup_pairs", lambda t: t.slice(1)), True),
        "bigram output changed between rounds": (variant("bigram_lm_score", lambda t: _set(
            t, "surprise_e3", 0, t["surprise_e3"][0].as_py() + 1)), True),
        "target affinity changed between rounds": (variant("target_affinity", lambda t: t.slice(1)), True),
    }


CASES = {"kg_build": graph_cases, "graph_merge": graph_cases,
         "kg_ingest": ingest_cases, "doc_ops": doc_cases}


def bare_dir_check(work) -> bool:
    """run.py in a directory with only BENCHMARK.json and the benchmark."""
    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                        "--workload", "kg_build", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    printed = any(line.startswith("{") for line in p.stdout.splitlines())
    return p.returncode != 0 and not printed


def main() -> int:
    from lexmapr_ray.lexkit.lexicon import build_lexicon
    from lexmapr_ray.pipelines.kg import broadcast_lexicon
    from workloads import TRACE_PROBES, WORKLOADS

    work = os.path.join(run.WORK_ROOT, "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.environ["PYTHONPATH"] = run.ROOT
    os.environ["LEXMAPR_CACHE_DIR"] = os.path.join(work, "lexicon_cache")
    ok = True
    ray_temp = None
    try:
        lexicon = build_lexicon(run.ensure_lexicon(), use_cache=False)
        _, ray_temp = run.start_ray(work)
        ref = broadcast_lexicon(lexicon=lexicon)
        for name, cls in {**WORKLOADS, "kg_ingest": TRACE_PROBES["kg_build"]}.items():
            wl = cls(os.path.join(work, name), 1, lexicon, ref, SCALE)
            wl.prepare()
            cases_dir = os.path.join(work, name, "cases")
            os.makedirs(cases_dir)
            for label, (r, must_fail) in CASES[name](wl, wl.round(None), cases_dir).items():
                errors = wl.check(r)
                good = bool(errors) == must_fail
                ok &= good
                print(f"{'PASS' if good else 'FAIL'} {name}: {label}: "
                      f"{'; '.join(errors) if errors else 'no errors'}")
    finally:
        import ray

        ray.shutdown()
        if ray_temp:
            shutil.rmtree(ray_temp, ignore_errors=True)
    good = bare_dir_check(work)
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} run.py without the engine exits non-zero with no result")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"selfcheck": "ok" if ok else "failed"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
