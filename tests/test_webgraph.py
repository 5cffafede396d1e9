"""Web-graph operators: generic PageRank vs a serial fixed-point
reference, and the host-curation invariants the oracle gate can't see
(it verifies values; these verify semantics on adversarial graphs)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _serial_pagerank(edges: list[tuple[int, int]], nodes: list[int],
                     iters: int) -> dict[int, int]:
    from lexmapr_ray.pipelines.webgraph import BASE, DAMP_DEN, DAMP_NUM, R0

    deg: dict[int, int] = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    pr = {n: R0 for n in nodes}
    for _ in range(iters):
        s = {n: 0 for n in nodes}
        for a, b in edges:
            s[b] += pr[a] // deg[a]
        pr = {n: BASE + DAMP_NUM * s[n] // DAMP_DEN for n in nodes}
    return pr


@pytest.mark.parametrize("iters", [1, 3])
def test_pagerank_matches_serial_reference(ray_session, iters):
    """Graph with a sink (node 5: no outlinks -> never a src), a
    self-loop, a hub, and an isolated node (9)."""
    import ray.data as rd

    from lexmapr_ray.pipelines.webgraph import pagerank

    edge_list = [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 5),
                 (4, 4), (4, 5), (6, 0), (7, 0), (8, 0)]
    nodes = list(range(10))

    edges = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edge_list], pa.int64()),
        "dst": pa.array([b for _, b in edge_list], pa.int64()),
    }))
    node_ds = rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64())}))

    got = pagerank(edges, node_ds, iters=iters).to_pandas()
    want = _serial_pagerank(edge_list, nodes, iters)
    assert dict(zip(got["node"], got["pr"])) == want
    # isolated + sink nodes survive with the base rank floor
    assert got.loc[got["node"] == 9, "pr"].item() >= 150_000


def test_doc_links_deterministic_and_in_range(ray_session):
    from lexmapr_ray.pipelines.webgraph import doc_links

    df = doc_links(SF).to_pandas()
    n = 500
    assert df["dst"].between(0, n - 1).all()
    # out-degree model: 1 + doc_id % 3
    deg = df.groupby("src").size()
    assert (deg == 1 + (deg.index % 3)).all()
    assert len(df) == sum(1 + d % 3 for d in range(n))


def test_host_filter_drops_dup_heavy_hosts(ray_session):
    from lexmapr_ray.pipelines.webgraph import (
        DOCS_PER_HOST, host_filtered_corpus, host_stats)

    stats = host_stats(SF).to_pandas()
    assert (stats["n_docs"] > 0).all()
    surviving = host_filtered_corpus(SF).to_pandas()
    bad = set(stats.loc[stats["n_dup"] * 1000 > stats["n_docs"] * 187,
                        "host"])
    assert bad, "fixture regression: no dup-heavy host at sf0.001"
    assert set(surviving["host"]) == set(stats["host"]) - bad
    # host key is the doc_id block
    assert (surviving["doc_id"] // DOCS_PER_HOST ==
            surviving["host"].str.removeprefix("host").astype(int)).all()


def test_min_label_components_string_keys(ray_session, monkeypatch):
    """Generic components with STRING node ids: a 9-node chain (forces
    multi-round propagation + pointer jumping), a triangle, and two
    isolated nodes; label = lexicographic min reachable."""
    import ray.data as rd

    from lexmapr_ray.functions import components
    from lexmapr_ray.functions.components import min_label_components

    chain = [(f"n{i:02d}", f"n{i + 1:02d}") for i in range(8)]
    tri = [("za", "zb"), ("zb", "zc"), ("za", "zc")]
    edge_list = chain + tri
    node_ids = sorted({x for e in edge_list for x in e} | {"iso1", "iso2"})

    edges = rd.from_arrow(pa.table({
        "a": pa.array([a for a, _ in edge_list], pa.string()),
        "b": pa.array([b for _, b in edge_list], pa.string()),
    }))
    nodes = rd.from_arrow(pa.table({"node": pa.array(node_ids, pa.string())}))
    # BOTH paths of the size switch: a DRIVER_SWITCH_LIMIT of 0 forces the
    # distributed min-label + pointer-jump loop; the default takes driver
    # union-find.
    # They must agree row-for-row (the switch is a pure execution choice).
    results = {}
    for tag, limit in (("serial", 2_000_000), ("distributed", 0)):
        monkeypatch.setattr(components, "DRIVER_SWITCH_LIMIT", limit)
        got = min_label_components(edges, nodes, key_type=pa.string()) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        results[tag] = got
        labels = dict(zip(got["node"], got["label"]))
        assert {labels[f"n{i:02d}"] for i in range(9)} == {"n00"}
        assert labels["za"] == labels["zb"] == labels["zc"] == "za"
        assert labels["iso1"] == "iso1" and labels["iso2"] == "iso2"
        assert len(got) == len(node_ids)
    pd.testing.assert_frame_equal(results["serial"], results["distributed"])


def _serial_hits(edges: list[tuple[int, int]], nodes: list[int],
                 iters: int) -> dict[int, tuple[int, int]]:
    from lexmapr_ray.pipelines.webgraph import R0

    hub = {n: R0 for n in nodes}
    auth = {n: 0 for n in nodes}

    def half(scores, transpose):
        raw = {n: 0 for n in nodes}
        for a, b in edges:
            src, dst = (b, a) if transpose else (a, b)
            raw[dst] += scores[src]
        mx = max(max(raw.values()), 1)
        return {n: (R0 * v) // mx for n, v in raw.items()}

    for _ in range(iters):
        auth = half(hub, transpose=False)   # in-link mass -> authority
        hub = half(auth, transpose=True)    # out-link mass -> hubness
    return {n: (hub[n], auth[n]) for n in nodes}


@pytest.mark.parametrize("iters", [1, 2])
def test_hits_matches_serial_reference(ray_session, iters):
    """Hub/authority separation: node 3 links to everything (pure hub),
    node 0 is linked from everywhere (pure authority), node 9 isolated,
    node 4 self-loops — each exercises a zero-union or max-rescale edge."""
    import ray.data as rd

    from lexmapr_ray.pipelines.webgraph import hits

    edge_list = [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 5),
                 (4, 4), (4, 5), (6, 0), (7, 0), (8, 0)]
    nodes = list(range(10))

    edges = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edge_list], pa.int64()),
        "dst": pa.array([b for _, b in edge_list], pa.int64()),
    }))
    node_ds = rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64())}))

    got = hits(edges, node_ds, iters=iters).to_pandas()
    want = _serial_hits(edge_list, nodes, iters)
    assert {int(r.node): (int(r.hub), int(r.auth))
            for r in got.itertuples()} == want
    by_node = {int(r.node): r for r in got.itertuples()}
    # node 0 is the strongest authority; node 3 the strongest hub
    assert by_node[0].auth == 1_000_000
    assert by_node[3].hub == 1_000_000
    # isolated node keeps exactly zero on both scores
    assert by_node[9].hub == 0 and by_node[9].auth == 0


def _serial_lpa(edge_list, nodes, iters):
    """Textbook synchronous LPA with the engine's exact conventions:
    symmetrized multigraph counts, zero-count self row, (count desc,
    label asc) tie-break."""
    lbl = {n: n for n in nodes}
    sym = edge_list + [(b, a) for a, b in edge_list]
    for _ in range(iters):
        counts = {n: {lbl[n]: 0} for n in nodes}
        for a, b in sym:
            counts[b][lbl[a]] = counts[b].get(lbl[a], 0) + 1
        lbl = {n: min(c, key=lambda l: (-c[l], l))
               for n, c in counts.items()}
    return lbl


@pytest.mark.parametrize("iters", [1, 2])
def test_label_propagation_matches_serial(ray_session, iters):
    """Two planted communities bridged by one edge, an isolated node, a
    parallel-edge pair (multigraph double-count), and a symmetric
    tie broken by smallest label."""
    import ray.data as rd

    from lexmapr_ray.pipelines.webgraph import label_propagation

    edge_list = [(0, 1), (1, 2), (2, 0),          # triangle community
                 (5, 6), (6, 7), (7, 5),          # second community
                 (2, 5),                          # bridge
                 (8, 9), (8, 9),                  # parallel edges
                 (3, 4)]                          # symmetric pair (tie)
    nodes = list(range(11))                       # 10 isolated

    edges = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edge_list], pa.int64()),
        "dst": pa.array([b for _, b in edge_list], pa.int64()),
    }))
    node_ds = rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64())}))

    got = label_propagation(edges, node_ds, iters=iters).to_pandas()
    want = _serial_lpa(edge_list, nodes, iters)
    assert {int(r.node): int(r.lbl) for r in got.itertuples()} == want
    by_node = {int(r.node): int(r.lbl) for r in got.itertuples()}
    assert by_node[10] == 10                      # isolated keeps itself
    if iters == 1:
        # tie -> smallest label (at iters=2 the symmetric pair exhibits
        # LPA's documented synchronous oscillation: 3<->4 swap labels)
        assert by_node[4] == 3 and by_node[3] == 4


def test_neighbor_feature_agg_matches_serial(ray_session, tmp_path):
    """Serial replay of the synthetic link model over a corpus small
    enough that in-degree-0 nodes exist; integer-milli mean must floor
    exactly and zero out for uncovered nodes."""
    import pyarrow.parquet as pq

    from lexmapr_ray.pipelines.webgraph import neighbor_feature_agg

    # n = 31 divides the 31*d term out of the link formula, so ALL edges
    # land on the 3 nodes (7+13j) % 31 — extreme in-degree skew plus 28
    # in-degree-0 nodes in one corpus
    n = 31
    chars = [(7 * d + 3) % 29 + 1 for d in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n, pa.string()),
        "n_chars": pa.array(chars, pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    n_in = {d: 0 for d in range(n)}
    s = {d: 0 for d in range(n)}
    for d in range(n):
        for j in range(1 + d % 3):
            dst = (d * 31 + 7 + 13 * j) % n
            n_in[dst] += 1
            s[dst] += chars[d]

    got = neighbor_feature_agg(str(tmp_path)).to_pandas()
    assert len(got) == n
    for r in got.itertuples():
        d = int(r.node)
        assert int(r.n_in) == n_in[d]
        assert int(r.sum_chars) == s[d]
        assert int(r.mean_milli) == ((1000 * s[d]) // n_in[d]
                                     if n_in[d] else 0)
    assert (got["n_in"] == 0).any()               # uncovered node exists


def test_random_walks_matches_serial(ray_session, tmp_path):
    """Serial replay of the hash-selected walk over a small corpus with
    out-degrees 1/2/3; every walk must advance exactly one node per step
    and follow the ascending-dst edge indexing."""
    import pyarrow.parquet as pq

    from lexmapr_ray.pipelines.webgraph import random_walks

    n, steps = 13, 4
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n, pa.string()),
    }), str(tmp_path / "documents.parquet"))

    adj = {d: sorted((d * 31 + 7 + 13 * j) % n for j in range(1 + d % 3))
           for d in range(n)}
    want = {}
    for w in range(n):
        cur = w
        want[(w, 0)] = cur
        for t in range(1, steps + 1):
            nbrs = adj[cur]
            cur = nbrs[(w * 1000003 + t * 10007) % len(nbrs)]
            want[(w, t)] = cur

    got = random_walks(str(tmp_path), steps=steps).to_pandas()
    assert len(got) == n * (steps + 1)
    assert {(int(r.walk_id), int(r.step)): int(r.node)
            for r in got.itertuples()} == want


def test_host_link_graph_parses_html_exact(ray_session, tmp_path):
    """The host link graph must be RECOVERED from the html bytes, not
    recomputed arithmetically: (1) the synthesized linked pages carry real
    <a href> anchors AND keep the extract_text byte-identity invariant;
    (2) the aggregated host pairs are bit-equal to the arithmetic SQL
    oracle over a doc_id set with every out-degree residue."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.webgraph import host_link_graph
    from lexmapr_ray.sources.pages import (extract_text,
                                           linked_pages_from_documents)

    ids = list(range(41))  # > 37 so host ids wrap; d%3 covers 1..3 links
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([f"body {d} <tag> & raw" for d in ids], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    pages = linked_pages_from_documents(str(tmp_path)).take_all()
    assert len(pages) == len(ids)
    for p in pages:
        d = int(p["url"].rsplit("/", 1)[1])
        # anchors present, count = 1 + d%3, and the text invariant holds
        assert p["html"].count(b"<a href=") == 1 + d % 3
        assert extract_text(p["html"]) == f"body {d} <tag> & raw"

    got = host_link_graph(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["host_link_graph"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True),
                                  check_dtype=False)
    # total parsed links == sum of out-degrees
    assert got["n_links"].sum() == sum(1 + d % 3 for d in ids)


def test_redirect_resolve_doubling_equals_linear(ray_session, tmp_path):
    """Pointer doubling must equal the 16-linear-step oracle on a corpus
    size whose redirect functional graph contains BOTH terminals and a
    genuine cycle (n=41: one node ends 16 hops deep unresolved), proving
    the loop-detection path — not just happy chains — is exercised."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from lexmapr_ray.pipelines.webgraph import redirect_resolve

    ids = list(range(41))
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(["x"] * len(ids))}),
                   str(tmp_path / "documents.parquet"))

    got = redirect_resolve(str(tmp_path)).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(entrymod.oracle_sql()["redirect_resolve"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True),
                                  check_dtype=False)
    # the cycle case is real: exactly one node unresolved at the 16 bound
    assert (got["resolved"] == 0).sum() == 1
    assert got.loc[got["resolved"] == 0, "hops"].iloc[0] == 16
    # every resolved final target is terminal; every terminal is 0 hops
    res = got[got["resolved"] == 1]
    assert (res["final_id"] % 3 == 0).all()
    assert (got.loc[got["doc_id"] % 3 == 0, "hops"] == 0).all()


def test_anchor_parsers_survive_hostile_crawl(ray_session, monkeypatch):
    """Hostile-crawl hardening (advisor r4): a page url without '://' and
    anchors carrying non-UTF8 bytes must be SKIPPED / replacement-decoded,
    not kill the task — the ops are framed around real crawls."""
    import ray.data as rd

    import lexmapr_ray.sources.pages as pages_mod
    from lexmapr_ray.pipelines.webgraph import (anchor_text_profile,
                                                host_link_graph)

    good = (b'<html><a href="http://h2.example/p1">chicken breast</a>'
            b'<a href="http://h3.example/p2">\xff\xfebad bytes</a></html>')
    hostile_rows = pa.table({
        "url": pa.array(["http://h1.example/a", "no-scheme-url", ""],
                        pa.string()),
        "html": pa.array([good, good, b"<a href=\"relative/x\">t</a>"],
                         pa.binary()),
    })

    def fake_pages(sf_dir):
        return rd.from_arrow(hostile_rows)

    monkeypatch.setattr(pages_mod, "linked_pages_from_documents", fake_pages)

    prof = anchor_text_profile("unused").to_pandas()
    # only the well-formed page contributes; both its anchors survive
    # (the second with U+FFFD replacement chars)
    assert set(prof["dst_url"]) == {"http://h2.example/p1",
                                    "http://h3.example/p2"}
    assert (prof["n_src_hosts"] == 1).all()
    bad = prof.loc[prof["dst_url"] == "http://h3.example/p2",
                   "anchor_text"].iloc[0]
    assert "�" in bad and "bad bytes" in bad

    hlg = host_link_graph("unused").to_pandas()
    # host-less page urls and host-less hrefs are skipped; the good page's
    # two absolute-href anchors remain
    assert set(zip(hlg["src_host"], hlg["dst_host"])) == {
        ("h1.example", "h2.example"), ("h1.example", "h3.example")}
    assert (hlg["n_links"] == 1).all()
