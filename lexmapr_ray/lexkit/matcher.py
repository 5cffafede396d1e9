"""Mention → ontology-term matching (the LexMapr rule cascade).

Pure-Python semantic core.  ``match_sample`` reproduces, token for token, the
per-row body of the reference's main loop
(``/root/reference/lexmapr/pipeline.py:110-277``): the normalization chain,
the full-term match cascade, component (partial) matching with token
permutations and suffix/synonym retries, ancestor suppression and the
retained-phrase post-filter.  Conformance is pinned by the committed golden
TSVs under ``/root/reference/lexmapr/tests/test_output/``.

The only intentional deviation is a pure acceleration: component matching is
driven by the lexicon's candidates, not by every combination of the mention's
tokens.  Below 15 tokens the matcher builds only the chunks whose sorted token
multiset is matchable, found through the lexicon's token blocks
(:meth:`~lexmapr_ray.lexkit.lexicon.Lexicon.matchable_chunks`); on the
contiguous n-gram path a chunk is checked with
:meth:`~lexmapr_ray.lexkit.lexicon.Lexicon.chunk_can_match` before its
factorial permutation probes.  A chunk that cannot match under ANY
permutation, suffix or synonym rewrite is never probed — the probes it avoids
are exactly the probes that would have returned ``None``.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import combinations, permutations

from lexmapr_ray.lexkit.inflect import singularize
from lexmapr_ray.lexkit.lexicon import Lexicon, _canon_str
from lexmapr_ray.lexkit.textproc import (
    is_date,
    is_number,
    ngrams,
    preprocess,
    punctuation_treatment,
    remove_duplicate_tokens,
    word_tokenize,
)

_MULTI_SPACE = re.compile(" +")


# ---------------------------------------------------------------------------
# Token-level treatments (reference: pipeline_helpers.py:14-147)
# ---------------------------------------------------------------------------

def singularize_token(token: str, table: dict, micro_status: list) -> str:
    """pipeline_helpers.py:14-39 — inflection with domain exceptions."""
    lemma = token
    if token not in table["inflection_exceptions"]:
        lemma = singularize(token)
    for tail in ("us", "ia", "ta"):
        if token.endswith(tail):
            lemma = token
    if token != lemma:
        micro_status.append("Inflection (Plural) Treatment: " + token)
    return lemma


def spelling_correction(token: str, table: dict, micro_status: list) -> str:
    """pipeline_helpers.py:42-55."""
    if token in table["spelling_mistakes"]:
        token = table["spelling_mistakes"][token]
        micro_status.append("Spelling Correction Treatment: " + token)
    return token


def abbreviation_normalization(text: str, table: dict, micro_status: list) -> str:
    """pipeline_helpers.py:58-89 (token and phrase variants share one body)."""
    if text in table["abbreviations"]:
        text = table["abbreviations"][text]
        micro_status.append("Abbreviation-Acronym Treatment: " + text)
    return text


def non_english_normalization(text: str, table: dict, micro_status: list) -> str:
    """pipeline_helpers.py:92-125."""
    if text in table["non_english_words"]:
        text = table["non_english_words"][text]
        micro_status.append("Non English Language Words Treatment: " + text)
    return text


def get_cleaned_sample(input_sample: str, token: str, table: dict) -> str:
    """pipeline_helpers.py:128-147 — append token unless stop word."""
    if not input_sample and token not in table["stop_words"]:
        return token
    if token not in table["stop_words"]:
        return input_sample + " " + token
    return input_sample


def get_annotated_sample(annotated: str, lemma: str, sci_names: dict) -> str:
    """pipeline_helpers.py:531-552 — embed scientific names in braces."""
    annotated = lemma if not annotated else annotated + " " + lemma
    if lemma in sci_names:
        annotated = annotated + "  {" + sci_names[lemma] + "}"
    if annotated in sci_names:
        annotated = annotated + "  {" + sci_names[annotated] + "}"
    return annotated


def refine_sample_sc_name(sample, cleaned_sample, annotated, third_party_classification):
    """pipeline_helpers.py:175-195 — domain rule resetting the annotation."""
    if "gallus" in sample or (
        "dog" in sample
        and "companion animal" not in str(third_party_classification)
    ):
        annotated = cleaned_sample
    return annotated


# ---------------------------------------------------------------------------
# Lexicon probes (reference: pipeline_helpers.py:451-528)
# ---------------------------------------------------------------------------

def _map_term_helper(term: str, table: dict):
    """pipeline_helpers.py:505-528 — label probe, then permutation probe."""
    if term in table["standard_resource_labels"]:
        term_id = table["standard_resource_labels"][term]
        return {
            "term": table["non_standard_resource_ids"][term_id],
            "id": term_id,
            "status": ["A Direct Match"],
        }
    if term in table["standard_resource_label_permutations"]:
        term_id = table["standard_resource_label_permutations"][term]
        return {
            "term": table["non_standard_resource_ids"][term_id],
            "id": term_id,
            "status": ["Permutation of Tokens in Resource Term"],
        }
    return None


def _suffix_probes_can_hit(term: str, lexicon) -> bool:
    """Acceleration only: ``term + " " + suffix`` can hit the exact-label or
    permutation index for SOME suffix only if multiset(term) is one of the
    precomputed label-minus-suffix multisets — a necessary condition for
    both probe kinds (string equality implies multiset equality), so a False
    skips the whole 15-suffix x 2-probe loop with zero semantic change."""
    if lexicon is None:
        return True
    return _canon_str(term) in lexicon.suffix_stripped_multisets


def map_term(term: str, table: dict, consider_suffixes: bool = False, *, lexicon=None):
    """pipeline_helpers.py:451-502 — probe with suffix and synonym retries."""
    if consider_suffixes:
        if _suffix_probes_can_hit(term, lexicon):
            for suffix in table["suffixes"]:
                mapping = _map_term_helper(term + " " + suffix, table)
                if mapping:
                    mapping["status"].insert(-2, "Suffix Addition")
                    return mapping
    else:
        mapping = _map_term_helper(term, table)
        if mapping:
            return mapping

    if term in table["synonyms"]:
        synonym = table["synonyms"][term]
        if consider_suffixes:
            if _suffix_probes_can_hit(synonym, lexicon):
                for suffix in table["suffixes"]:
                    mapping = _map_term_helper(synonym + " " + suffix, table)
                    if mapping:
                        mapping["status"].insert(-2, "Suffix Addition")
                        mapping["status"].insert(-2, "Synonym Usage")
                        return mapping
        else:
            mapping = _map_term_helper(synonym, table)
            if mapping:
                mapping["status"].insert(-2, "Synonym Usage")
                return mapping
    return None


def get_term_parent_hierarchies(term_id: str, table: dict) -> list[list[str]]:
    """pipeline_helpers.py:415-448 — enumerate root paths over ``parents``."""
    hierarchies = [[term_id]]
    i = 0
    while i < len(hierarchies):
        hierarchy = hierarchies[i]
        node = hierarchy[-1]
        if str(node) == "bfo_0000001":  # cycle break, as in reference
            break
        elif node in table["parents"]:
            for node_parent in table["parents"][node]:
                hierarchies.append(hierarchy + [node_parent])
            hierarchies.pop(i)
            continue
        else:
            i += 1
    return hierarchies


# ---------------------------------------------------------------------------
# Retained-phrase post-filter (reference: pipeline_helpers.py:311-372)
# ---------------------------------------------------------------------------

def discard_subsumed_words(word_list: list[str], retained_list: list[str]) -> list[str]:
    """pipeline_helpers.py:311-337 — drop terms subsumed by other terms."""
    for word in word_list:
        if " " not in word:
            for other_word in word_list:
                if word in retained_list and word in other_word and word != other_word:
                    retained_list.remove(word)
        else:
            for other_word in word_list:
                ctr = 0
                tokens = word.split(" ")
                for tok in tokens:
                    if other_word.find(tok) == -1:
                        ctr += 1
                if word in retained_list and ctr == 0 and word != other_word:
                    retained_list.remove(word)
    return retained_list


def retain_phrase(term_list: list[str]) -> list[str]:
    """pipeline_helpers.py:340-372 — dedupe/subsume filter, sorted result."""
    returned_set_final: list[str] = []
    term_dict: dict[str, str] = {}
    word_list: list[str] = []
    retained_set: list[str] = []
    returned_set: list[str] = []
    for term in term_list:
        split_term = term.split(":", 1)
        token_part = split_term[0].strip()
        term_dict[token_part] = split_term[1].strip()
        word_list.append(token_part)
        retained_set.append(token_part)
    retained_set = discard_subsumed_words(word_list, retained_set)
    for item in retained_set:
        if item in term_dict:
            returned_set.append(item + ":" + term_dict[item])
            returned_set_final = list(OrderedDict.fromkeys(returned_set))
    return sorted(returned_set_final)


def get_matched_component_standardized(matched_components: list[str]) -> list[str]:
    """pipeline_helpers.py:555-574 — uppercase the ontology-id half."""
    out = []
    for item in matched_components:
        parts = str(item).split(":")
        out.append(parts[0] + ":" + parts[1].upper())
    return out


# ---------------------------------------------------------------------------
# Chunking (reference: pipeline_helpers.py:252-273)
# ---------------------------------------------------------------------------

def get_gram_chunks(text: str, num: int, tokens: list[str] | None = None):
    """pipeline_helpers.py:252-273 — all combinations under 15 tokens, else
    contiguous n-grams.  ``tokens`` lets callers reuse a tokenization."""
    if tokens is None:
        tokens = word_tokenize(text)
    if len(tokens) < 15:
        return list(combinations(tokens, num))
    return ngrams(text, num)


def component_chunks(text: str, tokens: list[str], lexicon: Lexicon) -> list:
    """The chunks component matching probes, in probe order: every 1-5-token
    chunk of ``get_gram_chunks`` (sizes 5 -> 1) that
    ``lexicon.chunk_can_match`` admits.  Below 15 tokens they come from the
    lexicon's token blocks, so the rejected combinations are never built."""
    if len(tokens) < 15:
        return [tuple(tokens[p] for p in pos) for pos in lexicon.matchable_chunks(tokens)]
    return [chunk for i in range(5, 0, -1)
            for chunk in get_gram_chunks(text, i, tokens=tokens)
            if lexicon.chunk_can_match(" ".join(chunk).split())]


# ---------------------------------------------------------------------------
# Full per-sample cascade (reference: pipeline.py:110-277)
# ---------------------------------------------------------------------------

@dataclass
class MatchOutput:
    original_sample: str
    cleaned_sample: str = ""
    scientific_name_sample: str = ""
    matched_components: list = field(default_factory=list)
    macro_status: str = "No Match"
    micro_status: list = field(default_factory=list)
    conversions: dict = field(default_factory=dict)
    classification: dict | None = None
    # engine-only (not in reference): standardized component -> the normalized
    # surface chunk that matched it; this is the canonicalization key of the
    # north star ("groupby normalized surface forms"), so triples group by
    # what the page actually said, not the whole sentence.
    component_surfaces: dict = field(default_factory=dict)


def match_sample(
    original_sample: str,
    lexicon: Lexicon,
    *,
    bucket: bool = False,
    classify_fn=None,
) -> MatchOutput:
    """Run the complete LexMapr cascade over one free-text sample/mention.

    Mirrors /root/reference/lexmapr/pipeline.py:110-277.  ``classify_fn`` is
    injected (when ``bucket``) to avoid a circular import with
    :mod:`lexmapr_ray.lexkit.classify`.
    """
    table = lexicon.table
    sci_names = lexicon.scientific_names
    out = MatchOutput(original_sample=original_sample)
    micro_status = out.micro_status

    sample = punctuation_treatment(original_sample.lower())
    sample_tokens = word_tokenize(sample)

    cleaned_sample = ""
    annotated = ""
    for token in sample_tokens:
        if is_date(token) or is_number(token):
            continue
        token = preprocess(token)
        lemma = singularize_token(token, table, micro_status)
        lemma = spelling_correction(lemma, table, micro_status)
        lemma = abbreviation_normalization(lemma, table, micro_status)
        lemma = non_english_normalization(lemma, table, micro_status)
        if token != lemma:
            out.conversions[token] = lemma
        cleaned_sample = get_cleaned_sample(cleaned_sample, lemma, table)
        if "  " in cleaned_sample:
            cleaned_sample = _MULTI_SPACE.sub(" ", cleaned_sample)
        cleaned_sample = abbreviation_normalization(cleaned_sample, table, micro_status)
        cleaned_sample = non_english_normalization(cleaned_sample, table, micro_status)
        annotated = get_annotated_sample(annotated, lemma, sci_names)
        if "  " in annotated:
            annotated = _MULTI_SPACE.sub(" ", annotated)

    cleaned_sample = remove_duplicate_tokens(cleaned_sample)
    annotated = remove_duplicate_tokens(annotated)
    out.cleaned_sample = cleaned_sample

    # Full-term match cascade (pipeline.py:159-183)
    full_term_match = map_term(sample, table)
    if not full_term_match:
        full_term_match = map_term(cleaned_sample, table)
        if full_term_match:
            micro_status.insert(0, "Used Cleaned Sample")
    if not full_term_match:
        full_term_match = map_term(sample, table, consider_suffixes=True, lexicon=lexicon)
    if not full_term_match:
        full_term_match = map_term(cleaned_sample, table, consider_suffixes=True,
                                   lexicon=lexicon)
        if full_term_match:
            micro_status.insert(0, "Used Cleaned Sample")

    component_matches: list[dict] = []
    surfaces: dict[str, str] = {}
    if full_term_match:
        key = full_term_match["term"] + ":" + full_term_match["id"]
        out.matched_components.append(key)
        surfaces[key] = cleaned_sample or sample
        out.macro_status = "Full Term Match"
        micro_status += full_term_match["status"]
    else:
        # Component matching (pipeline.py:193-220)
        covered_tokens: set[str] = set()
        cleaned_tokens = word_tokenize(cleaned_sample)
        # Acceleration only: the chunks that cannot match under any
        # permutation / suffix / synonym probe are skipped (module docstring).
        for gram_chunk in component_chunks(cleaned_sample, cleaned_tokens, lexicon):
            concat = " ".join(gram_chunk)
            split_tokens = concat.split()
            gram_tokens = word_tokenize(concat)
            if set(gram_tokens) <= covered_tokens:
                continue
            for gram_permutation in OrderedDict.fromkeys(permutations(split_tokens)):
                gram_permutation_str = " ".join(gram_permutation)
                component_match = map_term(gram_permutation_str, table)
                if not component_match:
                    component_match = map_term(
                        gram_permutation_str, table, consider_suffixes=True,
                        lexicon=lexicon,
                    )
                if component_match:
                    component_matches.append(component_match)
                    surfaces.setdefault(
                        component_match["term"] + ":" + component_match["id"], concat
                    )
                    covered_tokens.update(gram_tokens)
                    break

        # Ancestor suppression (pipeline.py:222-238)
        ancestors: set[str] = set()
        for component_match in component_matches:
            for hierarchy in get_term_parent_hierarchies(component_match["id"], table):
                hierarchy.pop(0)
                ancestors |= set(hierarchy)
        for component_match in component_matches:
            if component_match["id"] not in ancestors:
                out.matched_components.append(
                    component_match["term"] + ":" + component_match["id"]
                )

        if len(out.matched_components):
            out.matched_components = retain_phrase(out.matched_components)

        # Micro-status finalization (pipeline.py:249-256)
        covered_matches: set[str] = set()
        for component_match in component_matches:
            possible = component_match["term"] + ":" + component_match["id"]
            if possible in out.matched_components and possible not in covered_matches:
                covered_matches.add(possible)
                micro_status.append(
                    "{%s: %s}" % (component_match["term"], component_match["status"])
                )

        if out.matched_components:
            out.macro_status = "Component Match"

    if bucket and classify_fn is not None:
        out.classification = classify_fn(sample, out.matched_components)

    raw_components = list(out.matched_components)
    out.matched_components = get_matched_component_standardized(out.matched_components)
    for raw, std in zip(raw_components, out.matched_components):
        if raw in surfaces:
            out.component_surfaces[std] = surfaces[raw]

    third_party = out.classification["ifsac_final_labels"] if out.classification else []
    out.scientific_name_sample = refine_sample_sc_name(
        sample, cleaned_sample, annotated, third_party
    )
    return out
