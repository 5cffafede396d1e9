"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry and compares row count / columns / values
against ``oracle_sql()`` via DuckDB (order-insensitive, column-name-sorted),
mirroring how the driver builds CORRECTNESS_r{N}.json.

Usage: python tools/check_oracles.py [sf_dir] [query ...]

The kg queries match with ``LEXMAPR_RESOURCES``, else the reference's
lexicon tree, else the small ``tests/data/lexicon``; the first line of
output names the one in use and its fingerprint.

Exits 1 when any query FAILs or ERRORs, else 0.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            df = result.to_pandas()
            if len(df) == 0 and len(df.columns) == 0:
                # Ray quirk: to_pandas() on a 0-row dataset drops the
                # column names even when blocks are typed — rebuild the
                # empty frame from the dataset schema so the schema
                # compare stays meaningful for legitimately-empty results
                sch = result.schema()
                if sch is not None:
                    return pd.DataFrame({n: pd.Series([], dtype="object")
                                         for n in sch.names})
            return df
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    # the kg queries' lexicon, set before ray.init so workers inherit it
    from lexmapr_ray.lexkit.lexicon import _resource_fingerprint, resource_dir

    lex = resource_dir(fallback=os.path.join(ROOT, "tests", "data", "lexicon"))
    os.environ["LEXMAPR_RESOURCES"] = lex
    print(f"lexicon: {lex} (fingerprint {_resource_fingerprint(lex)})")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"ERROR  {name}: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows   {name}: {len(got)} rows, cols={list(got.columns)} ({dt:.1f}s)")
            continue
        exp = normalize(con.execute(oracles[name]).fetchdf())
        ok_shape = list(got.columns) == list(exp.columns) and len(got) == len(exp)
        ok_vals = False
        if ok_shape:
            try:
                ga = got.reset_index(drop=True)
                ea = exp.reset_index(drop=True)
                ok_vals = all(
                    (ga[c].astype(str).values == ea[c].astype(str).values).all()
                    for c in ga.columns
                )
            except Exception:
                ok_vals = False
        status = "PASS" if (ok_shape and ok_vals) else "FAIL"
        n_pass += status == "PASS"
        n_fail += status == "FAIL"
        print(f"{status}   {name}: {len(got)} rows ({dt:.1f}s)")
        if status == "FAIL":
            print(f"   got cols={list(got.columns)} n={len(got)}; "
                  f"exp cols={list(exp.columns)} n={len(exp)}")
            if ok_shape:
                for c in got.columns:
                    neq = (got[c].astype(str).values != exp[c].astype(str).values)
                    if neq.any():
                        i = neq.argmax()
                        print(f"   first diff col={c} row={i}: got={got[c].iloc[i]!r} "
                              f"exp={exp[c].iloc[i]!r}")
    print(f"== {n_pass} pass, {n_fail} fail ==")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
