"""lexmapr_ray: Ray-Data-native LexMapr-equivalent engine."""

import sys

# Surfaced by `legacy-run -v/--version` (reference bin/lexmapr:48-49
# prints `lexmapr <__version__>` the same way; ours is this engine's own
# version, not the reference's 0.7.3)
__version__ = "0.5.0"


def _configure_data_context() -> None:
    """Engine-wide Ray Data context defaults.

    Called by the Ray-facing ``functions``, ``stages``, ``sources`` and
    ``state`` package ``__init__``s and ``pipelines/ingest.py``, and by
    this package's import once ``ray.data`` is loaded; ``lexkit``, the
    serial ``legacy-run`` and the CLI never import Ray.  Ray copies the
    current context into each new Dataset, so a Dataset created before
    any Ray-facing engine import keeps Ray's own (pull-based) sort.

    ``use_push_based_shuffle = True``: the default simple-shuffle sort
    stalls pathologically on this engine's post-combiner sorts once the
    shuffled payload crosses ~0.5 GB — measured on the 2M-page KG
    pipeline, the 129-block / 941 MB triple sort spent 173 s between the
    streaming barrier and the sort tasks actually running (~2-4 effective
    CPUs of a 32-CPU box), while the identical sort in a fresh session
    takes ~7 s.  With push-based shuffle the same end-to-end run drops
    143.9 s -> 46.1 s and is matcher-bound again.  Push-based shuffle
    (the Exoshuffle pipelined map->merge design) is also Ray's documented
    scale path for multi-node shuffles, which is where this engine's wide
    ops are headed anyway; sort outputs remain range-partitioned blocks,
    so the per-block-reduce co-location invariant is unchanged (pinned by
    tests/test_stages.py::test_sorted_reduce_survives_tiny_block_target).
    """
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    # the non-deprecated spelling of use_push_based_shuffle = True
    DataContext.get_current().shuffle_strategy = \
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


if "ray.data" in sys.modules:
    _configure_data_context()
