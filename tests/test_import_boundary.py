"""The engine's import boundary.

``lexkit``, the serial ``legacy-run`` path and the CLI must start without
Ray or pandas: importing ``ray.data`` costs a cold process about a second,
which a run that only builds or matches against a lexicon never needs.
Every other engine module is Ray-facing and applies the engine's Ray Data
defaults (push-based sort) when imported alone.  An import happens once per
process, so each check runs in a fresh interpreter.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_LEXICON = os.path.join(ROOT, "tests", "data", "lexicon")


def _modules() -> list[str]:
    """Every module of the engine, by name, found without importing it;
    ``__main__`` runs the CLI on import, so it is left out."""
    names = []
    for path in sorted(glob.glob(os.path.join(ROOT, "lexmapr_ray", "**", "*.py"),
                                 recursive=True)):
        parts = os.path.relpath(path, ROOT)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        if parts[-1] != "__main__":
            names.append(".".join(parts))
    return names


def _ray_free(name: str) -> bool:
    return (name in ("lexmapr_ray", "lexmapr_ray.pipelines", "lexmapr_ray.cli",
                     "lexmapr_ray.pipelines.legacy")
            or name.startswith("lexmapr_ray.lexkit"))


RAY_FREE = [m for m in _modules() if _ray_free(m)]
RAY_FACING = [m for m in _modules() if not _ray_free(m)]

PUSH_BASED = """
from ray.data import DataContext
from ray.data.context import ShuffleStrategy

print(DataContext.get_current().shuffle_strategy
      == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED)
"""


def _run(code: str, tmp_path=None) -> str:
    """Run *code* in a fresh interpreter at the checkout root; its stdout."""
    env = dict(os.environ, LEXMAPR_RESOURCES=TEST_LEXICON)
    if tmp_path is not None:
        env["LEXMAPR_CACHE_DIR"] = str(tmp_path / "lexicon_cache")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def test_module_lists_cover_the_engine():
    assert "lexmapr_ray.lexkit.lexicon" in RAY_FREE
    assert "lexmapr_ray.pipelines.kg" in RAY_FACING
    assert "lexmapr_ray.pipelines.ingest" in RAY_FACING
    assert len(RAY_FACING) > 20


@pytest.mark.parametrize("module", RAY_FREE)
def test_import_leaves_out_ray_and_pandas(module):
    out = _run(f"""
        import sys
        import {module}
        print(sorted({{"ray", "pandas"}} & set(sys.modules)))
    """)
    assert out.split() == ["[]"]


def test_ray_data_alone_is_not_push_based():
    """The control for the checks below: Ray's own default is not the
    engine's, so they would fail without the engine's setting."""
    assert _run("import ray.data\n" + PUSH_BASED).split() == ["False"]


@pytest.mark.parametrize("module", RAY_FACING)
def test_ray_facing_import_sets_push_based_sort(module):
    assert _run(f"import {module}\n" + PUSH_BASED).split() == ["True"]


def test_lexkit_after_ray_data_sets_push_based_sort():
    """A process that already uses Ray Data gets the default from any
    engine import, lexkit included."""
    out = _run("import ray.data\nimport lexmapr_ray.lexkit\n" + PUSH_BASED)
    assert out.split() == ["True"]


LEGACY_REPORT = "\n".join([
    "Sample_Id\tSample_Desc\tProcessed_Sample\tProcessed_Sample (With Scientific Name)"
    "\tMatched_Components\tMatch_Status(Macro Level)\tThird Party Classification",
    "s1\tChiken breast\tchicken breast\tchicken {gallus gallus} breast"
    "\t['chicken breast:FOODON_09900001']\tFull Term Match\t[]",
    "s2\tjacket potatoe and BBQ pollo\tjacket potato barbecue chicken"
    "\tjacket potato and barbecue chicken {gallus gallus}"
    "\t['baked potato:FOODON_09900002', 'chicken:FOODON_09900021']\tComponent Match"
    "\t['chicken']",
    "s3\tfrozen yogurt; canned corn\tfrozen yogurt canned corn\tfrozen yogurt canned corn"
    "\t['canned corn:FOODON_09900003', 'frozen yogurt:FOODON_09900004']\tComponent Match"
    "\t[]",
]) + "\n"


def test_legacy_run_never_imports_ray(tmp_path):
    """The serial legacy run, with bucket classification, on the test
    lexicon: the reference-format report, with Ray, pandas and Arrow never
    loaded."""
    csv_in = tmp_path / "samples.csv"
    csv_in.write_text("SampleId,Sample\ns1,Chiken breast\n"
                      "s2,jacket potatoe and BBQ pollo\ns3,frozen yogurt; canned corn\n")
    out = tmp_path / "report.tsv"
    got = _run(f"""
        import sys
        from lexmapr_ray import cli
        rc = cli.main(["legacy-run", {str(csv_in)!r}, "-b", "-o", {str(out)!r}])
        print(rc, sorted({{"ray", "pandas", "pyarrow"}} & set(sys.modules)))
    """, tmp_path)
    assert got.split() == ["0", "[]"]
    assert out.read_text() == LEGACY_REPORT


SORT_PROBE = """
import ray
import ray.data as rd
{imports}
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False)
try:
    rd.DataContext.get_current().enable_progress_bars = False
    ds = rd.from_items([{{"subj": f"s{{i % 7}}", "pred": "p", "obj": f"o{{i % 3}}"}}
                        for i in range(300)], override_num_blocks=4)
    from lexmapr_ray.pipelines.kg import materialize_graph

    out = materialize_graph(ds).materialize()
    print(out.count(), "SortMerge" in out.stats())
finally:
    ray.shutdown()
"""


@pytest.mark.parametrize("imports,push_based", [
    ("import lexmapr_ray.lexkit", True),
    # a Dataset created before any engine import keeps Ray's own sort
    ("", False),
])
def test_graph_sort_push_based_after_lexkit_import(imports, push_based):
    """Ray copies the current context into each new Dataset, so only a
    Dataset created after the engine set its default sorts push-based
    (the push-based plan has a ``SortMerge`` sub-operator)."""
    out = _run(SORT_PROBE.format(imports=imports))
    assert out.split()[-2:] == ["21", str(push_based)]
