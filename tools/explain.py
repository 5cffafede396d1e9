"""Per-stage Ray Data stats for any queries() entry — the measure-don't-
guess loop for perf work.

Usage: python tools/explain.py <query_name> [sf_dir]

Runs the named pipeline against *sf_dir* (default /root/testdata/sf0.01),
materializes it, and prints Ray's per-operator wall/CPU/row breakdown
(``Dataset.stats()``), the row count, and the plan-build seconds apart
from the execution seconds.  Plan build is the driver work done before
the query function returns, such as a small file's read and the corpus
scorers' vocabulary pass.  The KG queries' lexicon is
``LEXMAPR_RESOURCES``, else the reference's tree, else
``tests/data/lexicon``; the tool names it and its fingerprint first.
Owns its Ray session (the driver contract forbids queries()/entry() from
calling ray.init, so this tool is the session owner the same way
bench.py is).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"

    # the kg queries' lexicon, set before ray.init so workers inherit it
    from lexmapr_ray.lexkit.lexicon import _resource_fingerprint, resource_dir

    lex = resource_dir(fallback=os.path.join(ROOT, "tests", "data", "lexicon"))
    os.environ["LEXMAPR_RESOURCES"] = lex
    print(f"lexicon: {lex} (fingerprint {_resource_fingerprint(lex)})")

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    try:
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "__ray_entry__", os.path.join(ROOT, "__ray_entry__.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        qs = mod.queries()
        if name not in qs:
            print(f"unknown query {name!r}; available: {', '.join(sorted(qs))}")
            return 2
        import time

        t0 = time.time()
        res = qs[name](sf_dir)
        plan = time.time() - t0
        import pandas as pd

        if isinstance(res, pd.DataFrame):
            print(f"{name}: pandas result, {len(res)} rows, "
                  f"{plan:.2f}s (no Ray stats)")
            return 0
        res = res.materialize()
        run = time.time() - t0 - plan
        print(res.stats())
        print(f"\n{name}: {res.count()} rows in {plan + run:.2f}s at {sf_dir} "
              f"(plan build {plan:.2f}s, execution {run:.2f}s)")
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
