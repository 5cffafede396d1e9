"""Per-partition lineage records for resumable runs.

A checkpointed run writes one Parquet directory per input shard
(``<out_dir>/parts/part=<shard_id>/``) plus one JSON sidecar per completed
shard (``<out_dir>/_lineage/part-<shard_id>.json``) holding input lineage
and stage metrics.  Resume = skip every shard whose sidecar is complete
(north rule: "resumable from checkpoint with per-partition lineage +
metrics").  The reference has no equivalent (its only checkpoints are
lexicon JSON caches, /root/reference/lexmapr/pipeline_resources.py:60-71);
this is engine-side scale infrastructure.

Sidecars are written atomically (tmp + rename) AFTER the partition's
Parquet is fully written, so a killed run can only ever leave a missing or
complete sidecar — a partial partition directory without a sidecar is
re-processed and overwritten on resume.
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class ShardRecord:
    shard_id: int
    input_desc: str  # human/machine-readable lineage of the input slice
    rows_in: int
    triples_out: int
    wall_s: float
    engine_config: dict = field(default_factory=dict)
    completed_at: float = 0.0
    status: str = "complete"


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def part_dir(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, "parts", f"part={shard_id}")


def record_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(lineage_dir(out_dir), f"part-{shard_id}.json")


def write_record(out_dir: str, rec: ShardRecord) -> None:
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    rec.completed_at = time.time()
    path = record_path(out_dir, rec.shard_id)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(asdict(rec), f, indent=1)
    os.replace(tmp, path)  # atomic on POSIX


def load_record(out_dir: str, shard_id: int) -> ShardRecord | None:
    path = record_path(out_dir, shard_id)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            data = json.load(f)
    except (json.JSONDecodeError, OSError):
        return None  # torn write (pre-atomic-rename crash): reprocess
    return ShardRecord(**data)


def completed_shards(out_dir: str) -> dict[int, ShardRecord]:
    out: dict[int, ShardRecord] = {}
    ldir = lineage_dir(out_dir)
    if not os.path.isdir(ldir):
        return out
    for name in os.listdir(ldir):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        sid = int(name[len("part-"):-len(".json")])
        rec = load_record(out_dir, sid)
        if rec is not None and rec.status == "complete":
            out[sid] = rec
    return out


def committed_files(out_dir: str) -> list[str]:
    """The Parquet files of every committed partition of *out_dir*, in
    shard order.  Only a shard with a complete sidecar counts: the
    partition directory of a crashed shard is left out."""
    return [f for sid in sorted(completed_shards(out_dir))
            for f in sorted(glob.glob(os.path.join(part_dir(out_dir, sid), "*.parquet")))]
