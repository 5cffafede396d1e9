"""Exact distributed grouped quantiles via a bounded-cardinality histogram.

At 100 TB the naive plan (global sort per key, then pick ranks) shuffles the
whole corpus to read out four numbers per key.  For integer-valued metrics
(document lengths, money cents, token counts) the value DOMAIN is bounded
even when the corpus is not, so the engine histograms first:

    per-batch (key, value) count combine              # map-side shrink
    -> grouped_sum_count((key, value))                # ONE small shuffle:
                                                      #   |keys| x |values| rows
    -> sort(key) -> per-block cumulative rank walk    # histogram-sized

The post-histogram data is |keys| x |distinct values| rows regardless of
corpus size (a 100 TB corpus of documents still has < a few million distinct
lengths), so the final walk never sees corpus-scale data.  For genuinely
continuous/unbounded domains, bucket the value first (the caller chooses the
resolution) — same trade t-digest makes, but deterministic.

Quantile semantics match DuckDB's ``quantile_disc`` EXACTLY: the value at
1-based rank ceil(q*n) of the sorted multiset, with the rank computed in
integer arithmetic (q passed as num/den, never a float — float ceil(q*n)
can land one rank high when q*n rounds up to an integer).  Verified equal
to DuckDB for every n in 2..200 plus 500/1000/4000/9549/60000 at each q
used in this repo.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# (output column, q numerator, q denominator)
DEFAULT_QS = (("p25", 1, 4), ("p50", 1, 2), ("p75", 3, 4), ("p95", 19, 20))


def grouped_exact_quantiles(ds, key: str, value_col: str, qs=DEFAULT_QS):
    """Exact per-*key* quantiles of integer column *value_col*.

    Output: one row per key — (key, p25, p50, p75, p95) int64, sorted by
    key.  The rank walk is one ``searchsorted`` over the block's running
    count: by the time it runs the data is one histogram row per (key,
    value), sorted, so each key's ranks offset by the count before its run
    land inside its run.
    """
    from lexmapr_ray.functions.groupagg import (grouped_sum_count, run_starts,
                                                sorted_final)

    hist = grouped_sum_count(ds, [key, value_col], count_alias="__n")

    def finalize(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        vals = t[value_col].to_numpy().astype(np.int64)
        cum = np.cumsum(t["__n"].to_numpy())
        starts = run_starts(t, [key])
        before = np.concatenate([[0], cum])[starts]  # count ahead of each run
        n = np.append(cum[starts[1:] - 1], cum[-1]) - before
        cols = {key: t[key].take(starts)}
        for name, num, den in qs:
            rank = -(-num * n // den)  # ceil(q*n), exact integer math
            cols[name] = pa.array(vals[np.searchsorted(cum, before + rank, side="left")])
        return pa.table(cols)

    # the second sort is over the tiny histogram
    return sorted_final(hist, key, finalize)
