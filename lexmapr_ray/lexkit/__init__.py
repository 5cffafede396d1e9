"""lexkit: pure-Python, dependency-free re-implementation of the LexMapr
term-normalization and ontology-matching semantics.

This package contains NO Ray code, and importing any of it imports neither
``ray`` nor ``pandas`` (``tests/test_import_boundary.py`` holds it to that):
a process that only builds, loads or matches against a lexicon, such as the
serial ``legacy-run``, starts without paying for Ray Data.  It is the
single-node semantic core that the Ray Data stages in
:mod:`lexmapr_ray.stages` wrap in vectorized batch transforms.  Conformance is verified against the reference's committed golden
outputs (``/root/reference/lexmapr/tests/test_output/*.tsv``).
"""

from lexmapr_ray.lexkit.lexicon import (  # noqa: F401
    build_lexicon,
    create_lookup_table_skeleton,
    merge_lookup_tables,
)
from lexmapr_ray.lexkit.matcher import match_sample, MatchOutput  # noqa: F401
