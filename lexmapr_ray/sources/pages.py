"""Common-Crawl-style pages: schema, synthesis, and HTML text extraction.

The engine's primary input is a Parquet table of web pages
(``BASELINE.json`` input_hint)::

    pages(url: string, warc_ts: timestamp[us], html: binary,
          text: string, lang: string)

Because this sandbox has no external data, pages are synthesized
deterministically (seed-fixed, index-stateless, so generation itself can be
distributed via ``ray.data.range(n).map_batches``).  The HTML template is
exactly invertible, which *defines* the reference extraction: the per-row
invariant ``extract_text(html) == text`` is byte-identical by construction
and asserted in tests and in the extraction stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_HTML_PREFIX = b"<html><head><title>page</title></head><body><p>"
_HTML_SUFFIX = b"</p></body></html>"

# Phrase vocabulary drawn from the reference's own test corpora so the
# matcher (and the serial oracle) produce non-trivial triples.  The hot
# surface form "chicken breast" is oversampled to exercise salted/combined
# canonicalization under skew.
_MATCHABLE_PHRASES = [
    "chicken breast", "baked potato", "canned corn", "frozen yogurt",
    "apple pie", "taco shell", "table salt", "gastric vein",
    "ameiurus catus", "salmonella enterica", "swamp cabbage",
    "anatomical fruit seed part", "manual digit", "proximal phalanx",
    "cerebrospinal fluid", "mashed potatoes", "banana leaf",
    "frosted cornflakes", "ricotta cheese", "mango milkshake",
]
_HOT_PHRASE = "chicken breast"
_FILLER = [
    "lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing",
    "elit", "sed", "eiusmod", "tempor", "incididunt", "labore", "dolore",
    "magna", "aliqua", "enim", "minim", "veniam", "quis", "nostrud",
]
_DATES_NUMBERS = ["2018-05-07", "42", "3.14", "12/22/78", "1997"]
_LANGS = ["en", "en", "en", "en", "en", "en", "en", "en", "de", "fr"]

_BASE_TS_US = 1_700_000_000_000_000  # fixed epoch base, microseconds


def escape_html(text: str) -> bytes:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    ).encode("utf-8")


def unescape_html(raw: bytes) -> str:
    return (
        raw.decode("utf-8").replace("&gt;", ">").replace("&lt;", "<").replace("&amp;", "&")
    )


def render_html(text: str) -> bytes:
    return _HTML_PREFIX + escape_html(text) + _HTML_SUFFIX


def extract_text(html: bytes) -> str:
    """The reference extraction: exact inverse of :func:`render_html`."""
    start = html.index(b"<p>") + 3
    end = html.rindex(b"</p>")
    return unescape_html(html[start:end])


def synth_page(index: int, seed: int = 42, hot_prob: float = 0.25) -> dict:
    """Deterministic page #*index* — pure function of (seed, index).

    ``hot_prob`` is the per-sentence probability of the hot surface form
    ("chicken breast"); the default 0.25 keeps the corpus byte-identical
    to every prior round's bench corpus.  ``hot_prob=0.5`` is the skew
    stress corpus (one surface form in ~1-(1-p)^sentences ≈ 85% of
    pages) — same rand() call sequence, so only the hot-token decision
    changes."""
    rng = np.random.RandomState((seed * 1_000_003 + index) % (2**31 - 1))
    n_sentences = rng.randint(2, 7)
    sentences = []
    for _ in range(n_sentences):
        toks: list[str] = []
        if rng.rand() < hot_prob:
            toks.append(_HOT_PHRASE)  # skew: hot entity
        n_phrases = rng.randint(0, 3)
        for _ in range(n_phrases):
            toks.append(_MATCHABLE_PHRASES[rng.randint(len(_MATCHABLE_PHRASES))])
        n_fill = rng.randint(1, 8)
        for _ in range(n_fill):
            toks.append(_FILLER[rng.randint(len(_FILLER))])
        if rng.rand() < 0.3:
            toks.append(_DATES_NUMBERS[rng.randint(len(_DATES_NUMBERS))])
        rng.shuffle(toks)
        sentences.append(" ".join(toks))
    text = ". ".join(sentences) + "."
    url = f"https://host{index % 1000}.example/p/{index}"
    return {
        "url": url,
        "warc_ts": _BASE_TS_US + int(index) * 1_000_000,
        "html": render_html(text),
        "text": text,
        "lang": _LANGS[index % len(_LANGS)],
    }


def synth_pages_table(indices, hot_prob: float = 0.25) -> pa.Table:
    """Arrow pages table for a batch of indices (vector synth helper)."""
    rows = [synth_page(int(i), hot_prob=hot_prob) for i in indices]
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def synth_pages_dataset(
    n_pages: int,
    override_num_blocks: int | None = None,
    batch_size: int = 512,
    hot_prob: float = 0.25,
):
    """Distributed deterministic synthesis: ``range(n) -> map_batches``.

    ``batch_size`` should match the downstream pipeline's batch size: Ray
    fuses this map with the extraction/matcher maps, and the LARGEST
    batch_size in a fused chain sets the task granularity — a 2048-row synth
    batch over 20k pages yields only 10 tasks, starving a 30-task limit.
    """
    import ray.data as rd

    ds = rd.range(n_pages, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        lambda b: synth_pages_table(b["id"], hot_prob=hot_prob),
        batch_format="numpy",
        batch_size=batch_size,
    )


def pages_from_documents(sf_dir: str):
    """Wrap the testdata ``documents`` table in the pages schema.

    Reads only the needed columns; html is rendered from text with the
    invertible template, so the extraction invariant holds here too.
    """
    from lexmapr_ray.sources.tables import read_parquet

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def to_pages(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        rows = [
            {
                "url": f"doc://{d}",
                "warc_ts": _BASE_TS_US + int(d) * 1_000_000,
                "html": render_html(t),
                "text": t,
                "lang": lang,
            }
            for d, t, lang in zip(doc_ids, texts, langs)
        ]
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    return ds.map_batches(to_pages, batch_format="pyarrow", batch_size=512)


def snapshot_pages(sf_dir: str, which: str):
    """Deterministic crawl SNAPSHOT of the documents url space, for
    KG-snapshot diffing: snapshot ``a`` holds docs with ``d % 4 != 0``
    as-is; snapshot ``b`` holds docs with ``d % 5 != 0``, and pages with
    ``d % 7 == 0`` gained the phrase ``' chicken breast'`` between the
    crawls — a lexicon-MATCHABLE edit, so the triple diff observes changed
    pages as assertion adds, not just url adds/removes.  Pure function of
    the documents table; the serial oracle regenerates the identical
    snapshots."""
    if which not in ("a", "b"):
        raise ValueError(f"snapshot_pages: which must be 'a' or 'b', got {which!r}")
    from lexmapr_ray.sources.tables import read_parquet

    ds = read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])

    def to_snapshot(batch: pa.Table) -> pa.Table:
        rows = []
        for d, t, lang in zip(batch["doc_id"].to_pylist(),
                              batch["text"].to_pylist(),
                              batch["lang"].to_pylist()):
            d = int(d)
            if which == "a":
                if d % 4 == 0:
                    continue
            else:
                if d % 5 == 0:
                    continue
                if d % 7 == 0:
                    t = t + " chicken breast"
            rows.append({
                "url": f"doc://{d}",
                "warc_ts": _BASE_TS_US + d * 1_000_000,
                "html": render_html(t),
                "text": t,
                "lang": lang,
            })
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    return ds.map_batches(to_snapshot, batch_format="pyarrow", batch_size=512)


def multi_capture_pages(sf_dir: str):
    """Deterministic MULTI-CAPTURE pages table: document ``d`` appears as
    ``1 + d % 3`` crawl captures of the same url at strictly increasing
    ``warc_ts`` (the Common-Crawl situation url-recency dedup exists for).
    Capture ``i`` carries ``text + ' v{i}'`` so captures differ and the
    winner is observable.  Pure function of the documents table, so the
    SQL oracle regenerates the identical capture set."""
    from lexmapr_ray.sources.tables import read_parquet

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        urls, tss, chars = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for i in range(1 + int(d) % 3):
                urls.append(f"doc://{d}")
                tss.append(_BASE_TS_US + int(d) * 1_000_000 + i)
                chars.append(len(f"{t} v{i}"))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts_us": pa.array(tss, pa.int64()),
            "n_chars": pa.array(chars, pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=512)


def url_latest_capture(sf_dir: str):
    """URL-recency dedup: keep each url's LATEST capture (max warc_ts) and
    report how many captures it superseded — the crawl-freshness pass a
    Common-Crawl ingest runs before any content processing.

    Scale shape: per-batch argmax combiner (one surviving row + capture
    count per url per batch — exact-safe: the global latest capture is
    each batch's latest for its url) -> ONE url sort -> co-located final
    argmax + count sum.  Shuffle volume is <= one row per (url, batch),
    never capture-scale."""
    from lexmapr_ray.functions.groupagg import run_starts, sorted_group_reduce

    caps = multi_capture_pages(sf_dir)

    def keep_latest(t: pa.Table) -> pa.Table:
        if "n_captures" not in t.column_names:
            t = t.append_column("n_captures", pa.array(np.ones(len(t), dtype=np.int64)))
        t = t.sort_by([("url", "ascending"), ("warc_ts_us", "ascending")])
        starts = run_starts(t, ["url"])
        last = np.append(starts[1:], len(t)) - 1
        return t.select(["url", "warc_ts_us", "n_chars"]).take(last).append_column(
            "n_captures", pa.array(np.add.reduceat(t["n_captures"].to_numpy(), starts)))

    return sorted_group_reduce(caps, "url", keep_latest, keep_latest)


def crawl_diff(sf_dir: str):
    """Snapshot diff between two crawls of the same url space: classify
    every url as ``added`` / ``removed`` / ``changed`` / ``unchanged`` —
    the incremental-ingest pass a Common-Crawl pipeline runs to process
    only what moved between monthly crawls.

    The two snapshots are deterministic functions of the documents table
    (the multi-capture convention of :func:`multi_capture_pages`): the OLD
    crawl holds capture 0 of docs with ``doc_id % 5 != 0``, the NEW crawl
    the latest capture (index ``doc_id % 3``) of docs with
    ``doc_id % 7 != 0`` — so all four statuses occur.  Content identity is
    md5 of the capture text (``text + ' v{i}'``), matching DuckDB's
    ``md5()`` byte-for-byte.

    Scale shape: each snapshot is one pruned read pass emitting only
    (url, digest) — page text never reaches the join; the diff is ONE
    bucketed outer hash join on url with the classification folded into
    ``block_fn`` (the only block-split-safe placement for per-key logic).
    Output: (url, status), url-sorted.
    """
    import hashlib

    import pyarrow.compute as pc
    from lexmapr_ray.sources.tables import read_parquet

    from lexmapr_ray.functions.joins import bucketed_hash_join

    def snapshot(mod: int, col: str, version):
        ds = read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])

        def snap(batch: pa.Table) -> pa.Table:
            urls, digests = [], []
            for d, t in zip(batch["doc_id"].to_pylist(),
                            batch["text"].to_pylist()):
                if int(d) % mod == 0:
                    continue
                urls.append(f"doc://{d}")
                digests.append(hashlib.md5(
                    f"{t} v{version(int(d))}".encode()).hexdigest())
            return pa.table({"url": pa.array(urls, pa.string()),
                             col: pa.array(digests, pa.string())})

        return ds.map_batches(snap, batch_format="pyarrow")

    old = snapshot(5, "dg_old", lambda d: 0)
    new = snapshot(7, "dg_new", lambda d: d % 3)

    def classify(t: pa.Table) -> pa.Table:
        o, n = t["dg_old"], t["dg_new"]
        status = pc.if_else(pc.is_null(o), "added", pc.if_else(
            pc.is_null(n), "removed",
            pc.if_else(pc.equal(o, n), "unchanged", "changed")))
        return pa.table({"url": t["url"], "status": status})

    snap_schema = lambda c: pa.schema([("url", pa.string()),
                                       (c, pa.string())])
    return bucketed_hash_join(
        old, new, on="url", how="outer",
        block_fn=classify,
        left_schema=snap_schema("dg_old"),
        right_schema=snap_schema("dg_new"),
    ).sort("url")


# ---------------------------------------------------------------------------
# URL canonicalization (crawl-frontier normalization)
# ---------------------------------------------------------------------------

import re as _re

_URL_HEAD_RE = _re.compile(r"^([^:]+)://([^/?#]*)")
_DEF_PORT_RE = _re.compile(r":(80|443)$")
_TRAIL_SLASH_RE = _re.compile(r"/+$")
# one tracking-param definition, mirrored literally in the SQL oracle
_TRACKING_PARAM_RE = _re.compile(r"^(utm_[^=]*|fbclid|gclid|ref)=")


def canonicalize_url(u: str) -> str:
    """Canonical form of one URL — the crawl-frontier normalization every
    web pipeline runs before URL-level dedup (reference has no crawler;
    this generalizes its lookup-table normalization stance to URLs):

    1. drop the fragment (``#...``);
    2. lowercase scheme and host, strip default ports ``:80``/``:443``;
    3. strip trailing slashes from the path (empty path -> ``/``);
    4. drop tracking query params (``utm_*``, ``fbclid``, ``gclid``,
       ``ref``), sort the survivors, drop ``?`` when none survive.

    Pure string function; the DuckDB oracle reproduces it with
    regexp/list kernels as an independent formulation.
    """
    m = _URL_HEAD_RE.match(u)
    scheme = m.group(1).lower()
    host = _DEF_PORT_RE.sub("", m.group(2).lower())
    rest = u[m.end():].split("#", 1)[0]
    if "?" in rest:
        path, query = rest.split("?", 1)
    else:
        path, query = rest, ""
    path = _TRAIL_SLASH_RE.sub("", path)
    if path == "":
        path = "/"
    params = sorted(p for p in query.split("&")
                    if p and not _TRACKING_PARAM_RE.match(p))
    q = "&".join(params)
    return f"{scheme}://{host}{path}" + (f"?{q}" if q else "")


def raw_url_captures(sf_dir: str):
    """Deterministic MESSY url captures: doc ``d`` yields ``1 + d % 3``
    raw variants of one logical URL differing in case, default port,
    tracking params, param order, fragment, and trailing slash — the
    Common-Crawl situation :func:`url_canonicalize` exists for.  Pure
    function of the documents table so the SQL oracle regenerates the
    identical capture set (the crawl_diff convention)."""
    from lexmapr_ray.sources.tables import read_parquet

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def explode(batch: pa.Table) -> pa.Table:
        urls = []
        for d in batch["doc_id"].to_pylist():
            d = int(d)
            h, q = d % 37, d % 7
            variants = (
                f"HTTPS://HOST{h}.EXAMPLE:443/p/{d}?utm_source=feed&q={q}#frag",
                f"https://host{h}.example/p/{d}/?q={q}&fbclid=x{d}",
                f"https://host{h}.example:443/p/{d}?ref=home&q={q}",
            )
            urls.extend(variants[:1 + d % 3])
        return pa.table({"url": pa.array(urls, pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=2048)


def url_canonicalize(sf_dir: str):
    """Canonical-URL capture counts: canonicalize every raw capture and
    count captures per canonical url — the frontier-dedup pass upstream
    of :func:`url_latest_capture`.

    Scale shape: stateless canonicalize map (tiny strings; the per-row
    param sort is bounded by the query-string length) -> one
    ``grouped_sum_count`` on the canonical url (per-batch Arrow combiner,
    so the shuffle moves <= one row per (url, batch)).  Output:
    ``(url, n_captures)``, url-sorted."""
    from lexmapr_ray.functions.groupagg import grouped_sum_count

    raw = raw_url_captures(sf_dir)

    def canon(t: pa.Table) -> pa.Table:
        return pa.table({"url": pa.array(
            [canonicalize_url(u) for u in t["url"].to_pylist()], pa.string())})

    return grouped_sum_count(raw.map_batches(canon, batch_format="pyarrow"),
                             "url", count_alias="n_captures")


# ---------------------------------------------------------------------------
# Linked pages (anchors embedded in the html payload)
# ---------------------------------------------------------------------------

def linked_pages_from_documents(sf_dir: str):
    """Pages whose html carries REAL ``<a href>`` anchors: doc ``d`` links
    to docs ``(d*31 + 7 + 13*j) % N`` for ``j < 1 + d % 3`` — the same
    deterministic edge set as ``pipelines/webgraph.py::doc_links``, so SQL
    oracles regenerate it arithmetically while the ENGINE must recover it
    by parsing the html bytes.  Page and anchor urls live on
    ``host{id % 37}.example``; the anchor TEXT is the matchable phrase
    ``_MATCHABLE_PHRASES[dst % 20]`` — a pure function of the TARGET doc,
    so every anchor pointing at one page carries the same label (the
    anchor-text entity-linking op rests on this).  The anchors sit between
    ``</p>`` and ``</body>``, so :func:`extract_text`'s byte-identical
    invariant is untouched."""
    from lexmapr_ray.sources.tables import read_parquet

    n_docs = read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"]).count()
    ds = read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            d = int(d)
            dsts = [(d * 31 + 7 + 13 * j) % n_docs for j in range(1 + d % 3)]
            anchors = b"".join(
                b'<a href="https://host%d.example/p/%d">%s</a>'
                % (dst % 37, dst,
                   _MATCHABLE_PHRASES[dst % len(_MATCHABLE_PHRASES)].encode())
                for dst in dsts
            )
            urls.append(f"https://host{d % 37}.example/p/{d}")
            htmls.append(_HTML_PREFIX + escape_html(t) + b"</p>"
                         + anchors + b"</body></html>")
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(htmls, pa.binary())})

    return ds.map_batches(to_pages, batch_format="pyarrow", batch_size=512)
