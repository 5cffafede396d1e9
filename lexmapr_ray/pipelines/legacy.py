"""Legacy LexMapr-compatible CSV->TSV runner (conformance surface).

Byte-compatible re-implementation of the reference's input/output contract
(``/root/reference/lexmapr/pipeline.py:62-107, 279-297``): CSV/TSV sample
files in, tab-separated report out, including the reference's quirky
serialization (Python ``str()`` repr for list/dict cells, newline-prefixed
rows, trailing newline).  Used by the conformance tests that compare against
the reference's committed golden TSVs; the web-scale path lives in
:mod:`lexmapr_ray.pipelines.kg`.
"""

from __future__ import annotations

import csv
import os

from lexmapr_ray.lexkit.classify import with_classifier
from lexmapr_ray.lexkit.lexicon import Lexicon, build_lexicon
from lexmapr_ray.lexkit.matcher import match_sample

OUTPUT_FIELDS_BASE = [
    "Sample_Id",
    "Sample_Desc",
    "Processed_Sample",
    "Processed_Sample (With Scientific Name)",
    "Matched_Components",
]
FULL_FIELDS = ["Match_Status(Macro Level)", "Match_Status(Micro Level)", "Sample_Transformations"]
NOT_FULL_FIELDS = ["Match_Status(Macro Level)"]
BUCKET_FULL_FIELDS = [
    "LexMapr Classification (Full List)",
    "LexMapr Bucket",
    "Third Party Bucket",
    "Third Party Classification",
]
BUCKET_NOT_FULL_FIELDS = ["Third Party Classification"]


def iter_sample_rows(input_path: str):
    """Yield ``(sample_id, sample_text)`` rows from a CSV/TSV sample file.

    Mirrors pipeline.py:97-112: delimiter by extension, header skipped,
    columns after the first joined with spaces.
    """
    _, ext = os.path.splitext(input_path)
    if ext == ".csv":
        delimiter = ","
    elif ext == ".tsv":
        delimiter = "\t"
    else:
        raise ValueError("Should not reach here")
    with open(input_path, newline="") as fr:
        reader = csv.reader(fr, delimiter=delimiter)
        next(reader)
        for row in reader:
            yield row[0].strip(), " ".join(row[1:]).strip()


def build_legacy_lexicon(
    *,
    config: str | None = None,
    no_cache: bool = False,
    bucket: bool = False,
    resolve=None,
) -> Lexicon:
    """Reference pipeline.py:28-54 resource assembly for the legacy CLI:
    predefined resources (+classification tables when ``bucket``), then —
    when a ``--config`` ontology JSON is given — the fetched ontology
    lookup table merged in, ontology side winning, honoring ``--no-cache``
    (reference get_config_resources(path, no_cache),
    pipeline_resources.py:74-101)."""
    import tempfile

    from lexmapr_ray.lexkit.lexicon import (build_lexicon,
                                            merge_config_into_lexicon)

    lexicon = build_lexicon(classification=bucket)
    if config:
        # per-config JSON cache, keyed by config basename like the
        # reference (pipeline_resources.py:95-101); LEXMAPR_RAY_CACHE_DIR
        # overrides the default tmp location.  --no-cache rebuilds and
        # replaces the cached table (review r5: the flag was a no-op
        # because no cache_dir was ever passed).
        cache_dir = os.environ.get(
            "LEXMAPR_RAY_CACHE_DIR",
            os.path.join(tempfile.gettempdir(), "lexmapr_ray_onto_cache"))
        lexicon = merge_config_into_lexicon(
            lexicon, config, no_cache=no_cache, resolve=resolve,
            cache_dir=cache_dir)
    return lexicon


def _sample_table(input_path: str):
    """The sample file as an Arrow table: (idx, sample_id, sample) rows in
    file order."""
    import pyarrow as pa

    rows = list(iter_sample_rows(input_path))
    return pa.table({
        "idx": pa.array(range(len(rows)), pa.int64()),
        "sample_id": pa.array([r[0] for r in rows], pa.string()),
        "sample": pa.array([r[1] for r in rows], pa.string()),
    })


def run_samples(
    input_path: str,
    *,
    lexicon: Lexicon | None = None,
    full: bool = True,
    bucket: bool = False,
) -> str:
    """Run the matcher over a legacy sample file; return the report TSV.
    Plain Python throughout: the serial run loads neither Ray nor Arrow."""
    if lexicon is None:
        lexicon = build_lexicon(classification=bucket)
    lexicon, classify_fn = with_classifier(lexicon, bucket)
    rows = [dict(zip(_REPORT_KEYS, _report_fields(sample, lexicon, classify_fn)),
                 sample_id=sample_id, sample=sample)
            for sample_id, sample in iter_sample_rows(input_path)]
    return _format_report_rows(rows, full=full, bucket=bucket)


# the serialized per-sample report fields, in _report_fields' order
_REPORT_KEYS = ("cleaned", "sc_name", "components", "macro", "micro", "conversions",
               "lexmapr_hier", "lexmapr_final", "ifsac_final", "ifsac_labels")
_NO_CLASSIFICATION = {"lexmapr_hierarchy_buckets": [], "lexmapr_final_buckets": [],
                      "ifsac_final_buckets": [], "ifsac_final_labels": []}


def _report_fields(sample: str, lexicon: Lexicon, classify_fn) -> tuple[str, ...]:
    """One sample's report fields (:data:`_REPORT_KEYS`), serialized as the
    reference writes them."""
    r = match_sample(sample, lexicon, bucket=classify_fn is not None,
                     classify_fn=classify_fn)
    c = r.classification or _NO_CLASSIFICATION
    return (r.cleaned_sample, r.scientific_name_sample, str(r.matched_components),
            r.macro_status, str(r.micro_status), str(r.conversions),
            str(c["lexmapr_hierarchy_buckets"]), str(c["lexmapr_final_buckets"]),
            str(c["ifsac_final_buckets"]), str(c["ifsac_final_labels"]))


def _format_report_rows(rows: list[dict], *, full: bool, bucket: bool) -> str:
    """Serialize matched rows in the reference's byte format (shared by the
    serial and distributed paths)."""
    fields = list(OUTPUT_FIELDS_BASE)
    fields += FULL_FIELDS if full else NOT_FULL_FIELDS
    if bucket:
        fields += BUCKET_FULL_FIELDS if full else BUCKET_NOT_FULL_FIELDS
    out = ["\t".join(fields)]
    for r in rows:
        line = (
            "\n" + r["sample_id"] + "\t" + r["sample"] + "\t" + r["cleaned"] + "\t"
            + r["sc_name"] + "\t" + r["components"] + "\t" + r["macro"]
        )
        if full:
            line += "\t" + r["micro"] + "\t" + r["conversions"]
        if bucket:
            if full:
                line += ("\t" + r["lexmapr_hier"] + "\t" + r["lexmapr_final"]
                         + "\t" + r["ifsac_final"])
            line += "\t" + r["ifsac_labels"]
        out.append(line)
    out.append("\n")
    return "".join(out)


class SampleMatcher:
    """Ray Data task stage for the distributed legacy run: sample rows in,
    the rows plus their serialized report fields (:data:`_REPORT_KEYS`) out.

    ``lexicon`` is a plain :class:`Lexicon` or its ``ray.put`` handle.
    The first call resolves it, with its classifier when ``bucket``,
    through ``stages/match.py::_resolve`` (the per-process memo the KG
    matcher uses), and pickling drops the resolved state, so a task ships
    the handle, never the lexicon."""

    def __init__(self, lexicon, bucket: bool = False):
        self.source = lexicon
        self.bucket = bucket
        self._resolved = None  # (lexicon, classify_fn) after the first call

    def __getstate__(self):
        return {**self.__dict__, "_resolved": None}

    def __call__(self, batch):
        import pyarrow as pa

        if self._resolved is None:
            from lexmapr_ray.stages.match import _resolve

            self._resolved = _resolve(self.source, self.bucket)
        fields = [_report_fields(s, *self._resolved) for s in batch["sample"].to_pylist()]
        out = batch.select(["idx", "sample_id", "sample"])
        for k, col in zip(_REPORT_KEYS, list(zip(*fields)) or [()] * len(_REPORT_KEYS)):
            out = out.append_column(k, pa.array(col, pa.string()))
        return out


def run_samples_distributed(
    input_path: str,
    *,
    lexicon: Lexicon | None = None,
    full: bool = True,
    bucket: bool = False,
    batch_size: int = 256,
    concurrency=None,
) -> str:
    """Distributed legacy run: byte-identical report to :func:`run_samples`.

    Rows are tagged with their input index, matched by
    :class:`SampleMatcher` tasks (at most ``concurrency`` at once, default
    ``stages/dedup.py::_auto_concurrency``), then globally sorted back to
    input order (the reference's output preserves file order; a ``sort``
    is how a distributed engine restores it)."""
    import ray
    import ray.data as rd

    from lexmapr_ray.stages.dedup import _auto_concurrency

    if lexicon is None:
        lexicon = build_lexicon(classification=bucket)
    matched = rd.from_arrow(_sample_table(input_path)).map_batches(
        SampleMatcher(ray.put(lexicon), bucket),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=_auto_concurrency(concurrency),
        num_cpus=1,
    )
    out_rows = matched.sort("idx").to_pandas().to_dict("records")
    return _format_report_rows(out_rows, full=full, bucket=bucket)
