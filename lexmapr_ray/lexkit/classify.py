"""Third-party (bucket) classification of matched samples.

Re-implementation of the reference's ontology-bucket classifier
(``/root/reference/lexmapr/pipeline_classification.py``): hierarchy-bucket
mapping (C1/C2), the default token-subset classification fallback (C3),
multi-class label decoding (C4), the ~300-line SEQUENTIAL label-refinement
rule engine (C5 — rule order is semantics, per the reference's own comment at
``pipeline_classification.py:72-73``), and the customized label ordering
(C6).

Determinism note: the reference's C6 picks the priority category with
``set.intersection(...).pop()`` (``pipeline_classification.py:31``), whose
result depends on ``PYTHONHASHSEED``; its CI pins seed 0.  This engine picks
the lexicographically smallest intersecting category instead — deterministic
under any seed.  The divergence is observable only when a label set contains
two or more priority categories at once.
"""

from __future__ import annotations

import re

from lexmapr_ray.lexkit.inflect import singularize
from lexmapr_ray.lexkit.lexicon import Lexicon
from lexmapr_ray.lexkit.matcher import get_term_parent_hierarchies
from lexmapr_ray.lexkit.textproc import punctuation_treatment, word_tokenize

PRIORITY_LISTING_CATEGORIES = {
    "multi-ingredient", "veterinary clinical/research",
    "environmental", "environmental-water", "environmental-farm",
    "environmental-restaurant", "environmental-retail",
    "environmental-abattoir", "environmental-warehouse",
    "environmental-researchfacility",
    "environmental-pasture", "environmental-animal housing",
    "environmental-factory/production facility",
    "environmental-vehicle", "environmental-construction",
}


def customize_order_of_labels(ifsac_final_labels) -> list[str]:
    """C6: one priority category first, remainder sorted.

    Mirrors pipeline_classification.py:10-37 with a deterministic
    tie-break (lexicographic min instead of hash-order ``pop``).
    """
    ret = set(ifsac_final_labels)
    out: list[str] = []
    labels = list(ifsac_final_labels)
    inter = ret.intersection(PRIORITY_LISTING_CATEGORIES)
    if inter:
        priority = min(inter)
        out.insert(0, str(priority))
        labels.remove(str(priority))
    out.extend(sorted(labels))
    return out


def decode_multi_class_labels(ifsac_final_labels) -> list[str]:
    """C4: split ';'-packed labels into a set (pipeline_classification.py:40-57)."""
    revised = set()
    for label in ifsac_final_labels:
        if ";" in label:
            revised.update(label.split(";"))
        else:
            revised.add(label)
    return list(revised)


def refine_ifsac_final_labels(sample: str, ifsac_final_labels, label_refinements) -> list[str]:
    """C5: the sequential label-refinement rule engine.

    Rule-for-rule mirror of pipeline_classification.py:60-360.  DO NOT
    reorder: the reference documents that rule order changes results.
    """
    ret = set(ifsac_final_labels)
    sample = punctuation_treatment(sample)
    sample_tokens = word_tokenize(sample)
    sample_tokens_set = set(sample_tokens)

    for label, refined_label in label_refinements.items():
        label_tokens = word_tokenize(label)
        if not (set(label_tokens) - set(sample_tokens)) or re.search(r"\b" + label + r"\b", sample):
            ret.add(refined_label)
            break

    specific_meat_categories = {"pork", "chicken", "beef", "fish", "game", "poultry", "turkey"}
    mollusk_categories = {"mollusks (non-bi-valve)", "mollusks (bi-valve)"}
    shellfish_categories = {"crustaceans", "mollusks"} | mollusk_categories
    aquatic_animal_categories = {"fish", "other aquatic animals"} | shellfish_categories
    poultry_categories = {"other poultry", "chicken", "turkey"}
    avian_categories = {"other poultry", "game", "poultry"} | poultry_categories
    animal_categories = {"human", "companion animal", "aquatic animals", "wild animal",
                         "beef", "pork", "other meat", "cow", "pig"}
    animal_categories |= avian_categories | aquatic_animal_categories | {"other animal"}
    veterinary_categories = avian_categories | aquatic_animal_categories | {"other animal"}
    veterinary_categories |= {"animal", "avian", "companion animal", "aquatic animals",
                              "wild animal", "beef", "pork", "other meat", "cow", "pig"}
    environmental_categories = {"environmental-water", "environmental-farm",
                                "environmental-restaurant", "environmental-retail",
                                "environmental-abattoir", "environmental-warehouse",
                                "environmental-researchfacility",
                                "environmental-pasture", "environmental-animal housing",
                                "environmental-factory/production facility",
                                "environmental-vehicle", "environmental-construction"}
    root_underground_categories = {"root/underground (roots)", "root/underground (tubers)",
                                   "root/underground (bulbs)", "root/underground (other)"}
    seeded_vegetable_categories = {"seeded vegetables (vine-grown)",
                                   "seeded vegetables (solanaceous)",
                                   "seeded vegetables (legumes)",
                                   "seeded vegetables (other)"}
    vegetable_categories = {"fungi", "sprouts", "root/underground", "seeded vegetables", "herbs",
                            "vegetable row crops (flower)", "vegetable row crops (stem)",
                            "vegetable row crops (leafy)"}
    vegetable_categories |= root_underground_categories | seeded_vegetable_categories
    fruit_categories = {"melon fruit", "pome fruit", "stone fruit", "sub-tropical fruit",
                        "small fruit", "tropical fruit"}
    plant_categories = {"oils", "vegetables", "fruits", "grains", "beans", "nuts", "seeds"}
    plant_categories |= vegetable_categories | fruit_categories
    other_plant_food_category = {"other (food additive)", "dietary supplement",
                                 "other (sweetener)", "other (flavoring and seasoning",
                                 "other (confectionary)"}
    other_animal_food_category = {"meat", "other meat", "beef", "pork"}

    if "animal feed" in ret and "by" in sample and "by product" not in sample:
        ret.remove("animal feed")

    if "clinical/research" in ret \
            and ret.intersection(plant_categories | other_plant_food_category) \
            and not ("swab" in sample or "clinical" in sample):
        ret.remove("clinical/research")
    if "clinical/research" in ret and "swab sub" in sample:
        ret.clear()
        ret.add("environmental")
    if "clinical/research" in ret and "scat" in sample:
        ret.remove("clinical/research")
        ret.add("environmental")
    if "clinical/research" in ret and "environmental" in ret \
            and not ("tissue" in sample or "biological" in sample):
        ret.remove("clinical/research")
    if "clinical/research" in ret and ret.intersection(environmental_categories):
        ret.remove("clinical/research")
    if "clinical/research" in ret and (ret.intersection(plant_categories)
                                       or ret.intersection(animal_categories)):
        if "shell" in sample or "shell on" in sample or "shellon" in sample:
            ret.remove("clinical/research")
    if "clinical/research" in ret and ret.intersection(veterinary_categories):
        ret.remove("clinical/research")
        ret.add("veterinary clinical/research")
    if "veterinary clinical/research" in ret and "animal" in ret:
        ret.remove("animal")

    if "animal" in ret and sample != "animal":
        ret.remove("animal")
        ret.add("other animal")

    if "dairy" in ret and "cow" in ret:
        ret.remove("cow")
    if "beef" in ret and "dairy" in ret and "milk" in sample:
        ret.remove("beef")
    beef_keywords = ["raw cow", "raw veal", "raw calf", "meat", "beef",
                     "cow lung", "cow liver", "cow heart"]
    for entry in beef_keywords:
        if entry in sample and "cow" in ret:
            ret.remove("cow")
            ret.add("beef")
    pork_keywords = ["raw pig", "raw swine", "meat", "pork", "porcine"]
    for entry in pork_keywords:
        if entry in sample and "pig" in ret:
            ret.remove("pig")
            ret.add("pork")
    if "cow" in ret and "beef" in ret:
        ret.remove("cow")
    if "beef" in ret and "fish" in ret and ("fillet" in sample or "filet" in sample):
        ret.remove("beef")
    if "beef" in ret and ("veterinary clinical/research" in ret):
        ret.remove("beef")
        ret.add("cow")
    if "oils" in ret and "in oil" in sample:
        ret.remove("oils")
    if "other (sweetener)" in ret and "sugar free" in sample:
        ret.remove("other (sweetener)")

    if "shellfish" in ret and "fish" in ret:
        ret.remove("fish")
    if "fish" in ret and "eggs" in ret:
        ret.remove("eggs")
    if "fish eggs" in ret and "eggs" in ret:
        ret.remove("fish eggs")
    if "fish" in ret and "poultry" in ret:
        ret.remove("poultry")
    if "fish" in ret and "other poultry" in ret:
        ret.remove("other poultry")
    if "poultry" in ret and "eggs" in ret:
        ret.remove("poultry")

    if ("pork" in ret or "pork" in sample) and ("pig" in ret):
        ret.remove("pig")
        ret.add("pork")
    if ("pork" in ret or "pork" in sample) and ("meat" in ret):
        ret.remove("meat")
        ret.add("pork")
    if "pork" in ret and "veterinary clinical/research" in ret:
        ret.remove("pork")
        ret.add("pig")
    if "meat" in ret and ("veterinary clinical/research" in ret or "engineering  seafood" in ret):
        ret.remove("meat")
    if ret.intersection(specific_meat_categories) and "meat" in ret:
        ret.remove("meat")

    if not ret.intersection(animal_categories) and "other meat" in ret \
            and ("veterinary clinical/research" in ret or "clinical/research" in ret):
        ret.remove("other meat")
        ret.add("other animal")
    if not ret.intersection(animal_categories) and "meat" in ret \
            and ("veterinary clinical/research" in ret or "clinical/research" in ret):
        ret.remove("meat")
        if "liver" not in sample:
            ret.add("other animal")
    if not ret.intersection(animal_categories) and ("veterinary clinical/research" in ret):
        ret.add("other animal")

    if "mollusks" in ret and ret.intersection(mollusk_categories):
        ret.remove("mollusks")
    if "shellfish" in ret and ret.intersection(shellfish_categories):
        ret.remove("shellfish")
    if "aquatic animals" in ret and ret.intersection(aquatic_animal_categories):
        ret.remove("aquatic animals")
    if "poultry" in ret and ret.intersection(poultry_categories):
        ret.remove("poultry")
    if "other animal" in ret and ret.intersection(avian_categories):
        ret.remove("other animal")
    if "animal" in ret and ret.intersection(animal_categories):
        ret.remove("animal")
    if "engineered seafood" in ret and ret.intersection(aquatic_animal_categories):
        ret = ret - ret.intersection(aquatic_animal_categories)
    if "engineered seafood" in ret and "aquatic animals" in ret:
        ret.remove("aquatic animals")
    if ("engineered seafood" in ret or "companion animal" in ret) and "other animal" in ret:
        ret.remove("other animal")

    if "root/underground" in ret and ret.intersection(root_underground_categories):
        ret.remove("root/underground")
    if "seeded vegetables" in ret and ret.intersection(seeded_vegetable_categories):
        ret.remove("seeded vegetables")
    if "vegetables" in ret and ret.intersection(vegetable_categories):
        ret.remove("vegetables")
    if "fruits" in ret and ret.intersection(fruit_categories):
        ret.remove("fruits")
    if "plant" in ret and ret.intersection(plant_categories):
        ret.remove("plant")

    if "nut" in ret and "seeds" in ret and len(ret) == 2:
        ret.remove("seeds")
    if "environment-water" in ret and "fish" in ret and len(ret) == 2:
        ret.remove("environment-water")

    if "environmental" in ret and ret.intersection(environmental_categories):
        ret.remove("environmental")
    if ("environmental-animal housing" in ret or "environmental-abattoir" in ret
            or "environmental-farm" in ret) \
            and "environmental-factory/production facility" in ret:
        ret.remove("environmental-factory/production facility")
    if "environmental-abattoir" in ret and "environmental-factory/production facility" in ret:
        ret.remove("environmental-factory/production facility")
    exclusions = {
        "clinical/research", "veterinary clinical/research", "animal feed", "human",
        "environmental",
    }

    if not (ret.intersection(exclusions) or ret.intersection(environmental_categories)) \
            and len(ret) >= 3:
        ret.add("multi-ingredient")

    if "other meat" in ret and "other animal" in ret:
        ret.remove("other animal")
    if "meat" in ret and ret.intersection(animal_categories):
        if len(ret) == 3 and "multi-ingredient" in ret:
            ret.remove("multi-ingredient")
            ret.remove("meat")
        else:
            ret.remove("meat")

    if "food" in ret and ret.intersection(animal_categories | plant_categories
                                          | other_animal_food_category | other_plant_food_category
                                          | {"plant", "animal"}):
        ret.remove("food")
    if "food" in ret and ("dairy" in ret or "environmental" in ret or "clinical/research" in ret
                          or "veterinary clinical/research" in ret):
        ret.remove("food")

    if "food" in ret and "environmental" in ret and "leaf" in sample:
        ret.remove("environmental")
    if "environmental-animal housing" in ret and "finished" in sample:
        ret.remove("environmental-animal housing")
    if ("chicken" in ret or "poultry" in ret or "other poultry" in ret or "cow" in ret) \
            and "environmental-factory/production facility" in ret:
        ret.remove("environmental-factory/production facility")
        ret.add("environmental-farm")
    if "eggs" in ret and "veterinary clinical/research" in ret:
        ret.remove("veterinary clinical/research")
    if "environmental" in ret \
            and ("multi-ingredient" in ret or ret.intersection(plant_categories)) \
            and not ("swab" in sample or "environmental" in sample):
        ret.remove("environmental")

    food_anatomical_parts = {"heart", "liver", "lung", "leg", "shell-on", "shell", "soft shell",
                             "tail", "hlso", "shellon", "beef", "pork", "meat", "porcine",
                             "shell on"}
    body_part_for_food_animal_categories = \
        aquatic_animal_categories | shellfish_categories | poultry_categories | {"cow"}
    if "veterinary clinical/research" in ret \
            and ret.intersection(body_part_for_food_animal_categories) \
            and sample_tokens_set.intersection(food_anatomical_parts) and "swab" not in sample:
        ret.remove("veterinary clinical/research")

    disambiguation_words = {"ground", "scraps", "cut", "smoke", "moon", "plain"}
    if "environmental" in ret \
            and (ret.intersection(animal_categories) or ret.intersection(plant_categories)
                 or "dairy" in ret) \
            and sample_tokens_set.intersection(disambiguation_words):
        ret.remove("environmental")

    if "animal feed" in ret:
        ret.clear()
        ret.add("animal feed")

    if ("multi-ingredient" in ret or "food supplement" in ret) and "food" in ret:
        ret.remove("food")
    if "food" in ret and len(ret) < 2:
        ret.remove("food")
        ret.add("multi-ingredient")

    return list(ret)


def classify_sample_helper(sample_hierarchy, buckets) -> dict:
    """C2: ``{level: {bucket_id: bucket_label}}`` for hierarchy positions
    that are buckets (pipeline_classification.py:363-376)."""
    out = {}
    for i, parent_id in enumerate(sample_hierarchy):
        parent_level = i + 1
        for bucket_label, bucket_id in buckets.items():
            if bucket_id == parent_id:
                out[parent_level] = {bucket_id: bucket_label}
    return out


def classify_sample(sample, matched_terms_with_ids, lookup_table, classification_lookup_table):
    """C1: full bucket classification (pipeline_classification.py:379-459)."""
    lexmapr_hierarchy_buckets = []
    ifsac_hierarchy_buckets = []
    lexmapr_final_buckets = []
    ifsac_final_buckets = []
    ifsac_final_labels = []

    if matched_terms_with_ids:
        for matched_term_with_id in matched_terms_with_ids:
            [_, term_id] = matched_term_with_id.split(":", 1)
            for hierarchy in get_term_parent_hierarchies(term_id, lookup_table):
                lexmapr_bucket = classify_sample_helper(
                    hierarchy, classification_lookup_table["buckets_lexmapr"]
                )
                if lexmapr_bucket:
                    lexmapr_hierarchy_buckets.append(lexmapr_bucket)
                    final = lexmapr_bucket[min(lexmapr_bucket.keys())]
                    if final not in lexmapr_final_buckets:
                        lexmapr_final_buckets.append(final)

                ifsac_bucket = classify_sample_helper(
                    hierarchy, classification_lookup_table["buckets_ifsactop"]
                )
                if ifsac_bucket:
                    ifsac_hierarchy_buckets.append(ifsac_bucket)
                    final = ifsac_bucket[min(ifsac_bucket.keys())]
                    if final not in ifsac_final_buckets:
                        ifsac_final_buckets.append(final)
                        final_id = list(final.keys())[0]
                        ifsac_final_labels.append(
                            classification_lookup_table["ifsac_labels"][final_id]
                        )

    if ifsac_final_labels:
        ifsac_final_labels = sorted(decode_multi_class_labels(ifsac_final_labels))

    if not ifsac_final_labels or set(ifsac_final_labels) == {"food"}:
        # C3: default token-subset classification; LAST matching entry wins.
        default_classification = ""
        sample_tokens = [singularize(t) for t in word_tokenize(sample)]
        for bucket, label in classification_lookup_table["ifsac_default"].items():
            bucket_tokens = [singularize(t) for t in word_tokenize(bucket)]
            if not (set(bucket_tokens) - set(sample_tokens)):
                default_classification = label
        if default_classification:
            ifsac_final_buckets.append("Default classification")
            ifsac_final_labels.append(default_classification)

    ifsac_final_labels = refine_ifsac_final_labels(
        sample, ifsac_final_labels, classification_lookup_table["ifsac_refinement"]
    )
    ifsac_final_labels = customize_order_of_labels(ifsac_final_labels)

    return {
        "lexmapr_hierarchy_buckets": lexmapr_hierarchy_buckets,
        "lexmapr_final_buckets": lexmapr_final_buckets,
        "ifsac_final_buckets": ifsac_final_buckets,
        "ifsac_final_labels": ifsac_final_labels,
    }


def make_classifier(lexicon: Lexicon):
    """Bind :func:`classify_sample` to a lexicon (both tables live in it)."""
    def classify(sample: str, matched_components: list[str]) -> dict:
        return classify_sample(sample, matched_components, lexicon.table, lexicon.table)

    return classify


def with_classifier(lexicon: Lexicon, bucket: bool):
    """The ``(lexicon, classify_fn)`` pair the matcher cascade runs with:
    ``classify_fn`` is :func:`make_classifier`'s when ``bucket``, else
    None."""
    return lexicon, make_classifier(lexicon) if bucket else None
