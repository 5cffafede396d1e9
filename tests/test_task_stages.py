"""Stateful stages run as Ray Data tasks over per-process state.

Every stateful stage is passed to ``map_batches`` as a callable instance:
Ray runs it as tasks, each task ships only the instance's small
constructor arguments, and heavy state (the MinHash scratch slab, a
resolved lexicon) lives once per worker process.  These tests pin that
contract: task output equals the direct call, a used instance pickles
small, the slab is shared and only grows, and no actor-pool form
(a class as ``map_batches``' first argument, ``fn_constructor_kwargs``)
is left in the engine.
"""

from __future__ import annotations

import ast
import os
import pickle

import numpy as np
import pyarrow as pa
import pytest

from test_kg_pipeline import _tiny_lexicon

ENGINE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "lexmapr_ray")


def _docs(n: int = 96) -> pa.Table:
    """(doc_id, text) rows with near-duplicate pairs, a few languages and
    one gramless (empty) document."""
    base = ["the quick brown fox jumps over the lazy dog near the river bank",
            "der hund und die katze laufen schnell durch einen dunklen wald",
            "les enfants que nous avons vus mangent de la soupe chaude ce soir",
            "select the orders table where the stream group is sorted by key"]
    texts = []
    for i in range(n):
        t = f"{base[i % 4]} item {i // 8} variant {i % 3}"
        texts.append("" if i == 5 else t)
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _samples(n: int = 40) -> pa.Table:
    phrases = ["chicken breast", "fresh poultry breast with apple", "whole milk",
               "nothing matches here", "Apples and whole milk"]
    rows = [phrases[i % len(phrases)] for i in range(n)]
    return pa.table({"idx": pa.array(range(n), pa.int64()),
                     "sample_id": pa.array([f"s{i}" for i in range(n)], pa.string()),
                     "sample": pa.array(rows, pa.string())})


def _sorted(t: pa.Table, keys) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys]).combine_chunks()


def _stages(tmp_path):
    """(name, instance, input table, sort keys, batch_size) per stage."""
    import ray

    from lexmapr_ray.pipelines.legacy import SampleMatcher
    from lexmapr_ray.stages.dedup import HostSigPartial, MinHasher
    from lexmapr_ray.stages.textstats import LangIdHeuristic

    lex_ref = ray.put(_tiny_lexicon(tmp_path))
    docs = _docs()
    # batches of 8 rows hold whole hosts of 4 documents, so the per-batch
    # host partials equal the partials of one call over the whole table
    return [
        ("MinHasher", MinHasher("word"), docs, ["doc_id", "bucket"], 8),
        ("MinHasher-char", MinHasher("char"), docs, ["doc_id", "bucket"], 8),
        ("LangIdHeuristic", LangIdHeuristic(), docs, ["doc_id"], 8),
        ("HostSigPartial", HostSigPartial(4), docs, ["host_id"], 8),
        ("SampleMatcher", SampleMatcher(lex_ref), _samples(), ["idx"], 8),
    ]


def test_task_stage_output_equals_direct_call(ray_session, tmp_path):
    """Each stage through Ray (several input blocks, small batches, >= 3
    output blocks) equals one direct call on the whole table."""
    import ray
    import ray.data as rd

    for name, stage, table, keys, batch_size in _stages(tmp_path):
        want = _sorted(stage(table), keys)
        n = table.num_rows
        blocks = [table.slice(i, 16) for i in range(0, n, 16)]
        out = rd.from_arrow(blocks).map_batches(
            stage, batch_format="pyarrow", batch_size=batch_size,
            concurrency=2).materialize()
        assert out.num_blocks() >= 3, name
        got = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs())), keys)
        assert got.equals(want), name


def test_used_task_stage_pickles_small(ray_session, tmp_path):
    """An instance that has processed a batch ships as a few KB at most:
    no slab, no lexicon, no resolved state travels with a task."""
    import ray

    from lexmapr_ray.stages.similarity import _XEncRescorer

    stages = [s[:4] for s in _stages(tmp_path)]
    state = ({0: [(0, 10)], 1: [(0, 20), (1, 5)]}, np.array([0, 1]),
             np.arange(128, dtype=np.int64).reshape(2, 64))
    emb = pa.table({"vec_id": pa.array([0, 1, 2], pa.int64()),
                    "embedding": pa.array([[0.5] * 64] * 3, pa.list_(pa.float32()))})
    stages.append(("_XEncRescorer", _XEncRescorer(ray.put(state)), emb,
                   ["query_id", "vec_id"]))
    for name, stage, table, keys in stages:
        want = _sorted(stage(table), keys)
        assert want.num_rows > 0, name
        blob = ray.cloudpickle.dumps(stage)
        assert len(blob) < 4096, (name, len(blob))
        assert b"chicken breast" not in blob, name
        clone = pickle.loads(blob)
        for attr in ("_resolved", "_state", "_slab_buf"):
            assert getattr(clone, attr, None) is None, (name, attr)
        assert _sorted(clone(table), keys).equals(want), name


def test_minhash_slab_is_per_process_and_only_grows():
    """Every MinHasher instance in a process shares one scratch slab; a
    wider batch grows it, a narrower one reuses it as is."""
    from lexmapr_ray.stages import dedup

    small = _docs(16)
    big = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array([" ".join(f"w{i}" for i in range(500))] * 4)})
    dedup._SLAB.clear()
    dedup.MinHasher("word")(small)
    first = dedup._SLAB["buf"]
    dedup.MinHasher("word")(small)
    assert dedup._SLAB["buf"] is first
    dedup.MinHasher("char")(big)
    grown = dedup._SLAB["buf"]
    assert grown.shape[1] > first.shape[1]
    dedup.MinHasher("word")(small)
    assert dedup._SLAB["buf"] is grown


def _actor_pool_uses(path: str) -> list[str]:
    """``fn_constructor_*`` keywords and class-valued first arguments of
    ``map_batches`` calls in one source file."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg and kw.arg.startswith("fn_constructor"):
                bad.append(f"{path}:{node.lineno} {kw.arg}")
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "map_batches" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name) and (
                    first.id in classes or (first.id in imported and first.id[:1].isupper())):
                bad.append(f"{path}:{node.lineno} map_batches({first.id}, ...)")
    return bad


def test_no_actor_pool_stage_in_engine():
    """The engine has one execution pattern for stateful stages: a callable
    instance run as tasks.  No file under lexmapr_ray/ may pass a class to
    ``map_batches`` or use ``fn_constructor_kwargs``."""
    bad = []
    for root, _, files in os.walk(ENGINE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as f:
                    if "fn_constructor_kwargs" in f.read():
                        bad.append(f"{path}: fn_constructor_kwargs")
                bad += _actor_pool_uses(path)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("stage", ["DecodeImage", "ResizeImage", "SampleFrames"])
def test_media_codec_validated_at_construction(stage):
    """A stage built on the driver still rejects an unusable codec there,
    before any task runs."""
    from lexmapr_ray.stages import multimodal

    cls = getattr(multimodal, stage)
    with pytest.raises(NotImplementedError):
        cls(codec="pil")
    with pytest.raises(ValueError):
        cls(codec="nope")
