"""End-to-end conformance against the reference's committed golden TSVs.

Every input/expected pair from the reference's black-box suite
(``/root/reference/lexmapr/tests/test_pipeline.py:345-428``) is run through
our matcher and compared byte-for-byte.  This is the P/R oracle for the
north rule: exact match on all 28 goldens == P/R 1.0 on the reference's own
corpora.
"""

import os

import pytest

from lexmapr_ray.pipelines.legacy import run_samples
from tests.conftest import REFERENCE_TESTS, requires_path

# (golden_name, input_name, full, bucket) — mirrors the reference test table.
GOLDEN_CASES = [
    ("empty", "empty.csv", True, False),
    ("empty_not_full", "empty.csv", False, False),
    ("empty_with_tsv_input", "empty_with_tsv_input.tsv", True, False),
    ("empty_not_full_with_tsv_input", "empty_with_tsv_input.tsv", False, False),
    ("empty_buckets", "empty.csv", True, True),
    ("empty_buckets_not_full", "empty.csv", False, True),
    ("empty_buckets_with_tsv_input", "empty_with_tsv_input.tsv", True, True),
    ("empty_buckets_not_full_with_tsv_input", "empty_with_tsv_input.tsv", False, True),
    ("small_simple", "small_simple.csv", True, False),
    ("small_simple_not_full", "small_simple.csv", False, False),
    ("small_simple_with_tsv_input", "small_simple_with_tsv_input.tsv", True, False),
    ("small_simple_not_full_with_tsv_input", "small_simple_with_tsv_input.tsv", False, False),
    ("test_tokenization", "test_tokenization.csv", True, False),
    ("test_preprocessing", "test_preprocessing.csv", True, False),
    ("test_punctuation", "test_punctuation.csv", True, False),
    ("test_extra_inner_spaces", "test_extra_inner_spaces.csv", True, False),
    ("test_spelling_corrections", "test_spelling_corrections.csv", True, False),
    ("test_abbreviations", "test_abbreviations.csv", True, False),
    ("test_non_english_words", "test_non_english_words.csv", True, False),
    ("test_stop_word_handling", "test_stop_word_handling.csv", True, False),
    ("test_candidate_phrase", "test_candidate_phrase.csv", True, False),
    ("test_full_term_dir_match", "test_full_term_dir_match.csv", True, False),
    ("test_full_term_coc_match", "test_full_term_coc_match.csv", True, False),
    ("test_full_term_perm_match", "test_full_term_perm_match.csv", True, False),
    ("test_full_term_sfx_match", "test_full_term_sfx_match.csv", True, False),
    ("test_full_term_wiki_match", "test_full_term_wiki_match.csv", True, False),
    ("test_sample_id_only", "test_sample_id_only.csv", True, False),
    ("test_pluralization", "test_pluralization.csv", True, False),
]


@requires_path(os.path.join(REFERENCE_TESTS, "test_output"),
               os.path.join(REFERENCE_TESTS, "test_input"))
@pytest.mark.parametrize("golden,inp,full,bucket", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden(golden, inp, full, bucket, lexicon):
    with open(os.path.join(REFERENCE_TESTS, "test_output", golden + ".tsv")) as fp:
        expected = fp.read()
    got = run_samples(
        os.path.join(REFERENCE_TESTS, "test_input", inp),
        lexicon=lexicon, full=full, bucket=bucket,
    )
    assert got == expected


@requires_path(os.path.join(REFERENCE_TESTS, "test_ontologies", "pizza.owl"))
def test_legacy_cli_flag_parity(tmp_path, capsys, monkeypatch):
    """Reference bin/lexmapr:36-54 flag surface on legacy-run: -v prints
    the version, -c merges an ontology config into the lexicon end-to-end
    to a golden-format TSV (file:// IRI, offline seam), --no-cache is
    accepted and bypasses the per-config cache."""
    import json

    import pytest as _pytest

    import lexmapr_ray
    from lexmapr_ray import cli

    with _pytest.raises(SystemExit) as e:
        cli.main(["legacy-run", "x.csv", "-v"])
    assert e.value.code == 0
    assert lexmapr_ray.__version__ in capsys.readouterr().out

    # pizza.owl under the #Food root adds labels the predefined lexicon
    # does NOT carry (e.g. coberturademozzarella -> MozzarellaTopping) —
    # so the positive match below proves the -c merge wiring end-to-end
    owl = "/root/reference/lexmapr/tests/test_ontologies/pizza.owl"
    root = "http://www.co-ode.org/ontologies/pizza/pizza.owl#Food"
    cfg = tmp_path / "pizza_food.json"
    cfg.write_text(json.dumps([{f"file://{owl}": root}]))
    csv_in = tmp_path / "samples.csv"
    csv_in.write_text("SampleId,Sample\ns1,coberturademozzarella\n")
    out = tmp_path / "report.tsv"

    cache_dir = tmp_path / "onto_cache"
    monkeypatch.setenv("LEXMAPR_RAY_CACHE_DIR", str(cache_dir))
    rc = cli.main(["legacy-run", str(csv_in), "-c", str(cfg),
                   "-o", str(out)])
    assert rc == 0
    report = out.read_text()
    assert report.splitlines()[0].startswith("Sample_Id\t")
    assert "PIZZA.OWL_MOZZARELLATOPPING" in report
    assert "Full Term Match" in report

    # the per-config lookup cache materialized; a poisoned cache is USED
    # on the next -c run (proving the cache path) and --no-cache rebuilds
    import pathlib

    from lexmapr_ray.lexkit.ontology import config_cache_path

    cache_file = pathlib.Path(config_cache_path(str(cfg), str(cache_dir)))
    assert cache_file.exists()
    poisoned = json.loads(cache_file.read_text())
    poisoned["standard_resource_labels"] = {}
    poisoned["standard_resource_label_permutations"] = {}
    poisoned["synonyms"] = {}
    cache_file.write_text(json.dumps(poisoned))
    rc = cli.main(["legacy-run", str(csv_in), "-c", str(cfg),
                   "-o", str(out)])
    assert rc == 0
    assert "PIZZA.OWL_MOZZARELLATOPPING" not in out.read_text()
    rc = cli.main(["legacy-run", str(csv_in), "-c", str(cfg),
                   "--no-cache", "-o", str(out)])
    assert rc == 0
    assert "PIZZA.OWL_MOZZARELLATOPPING" in out.read_text()

    # without the config the term is NOT in the predefined lexicon
    rc = cli.main(["legacy-run", str(csv_in), "-o", str(out)])
    assert rc == 0
    assert "PIZZA.OWL_MOZZARELLATOPPING" not in out.read_text()
