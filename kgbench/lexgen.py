"""Seeded generator for the lexicon resource CSVs that ``build_lexicon`` reads.

Writes the reference's predefined-resource file set (two-column CSVs with a
header row) at roughly the reference's sizes, so the benchmark runs without
any external lexicon tree.  The token vocabulary deliberately overlaps the
page generator's (``_MATCHABLE_PHRASES`` and ``_FILLER`` in
``lexmapr_ray.sources.pages``): every matchable phrase is a label, a share of
the synthetic labels reuse filler tokens, and a few synonym, abbreviation,
spelling, non-English and suffix rows fire on page text, so each cascade step
of the matcher does real work.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

from lexmapr_ray.sources.pages import _FILLER, _MATCHABLE_PHRASES

N_LABELS = 26_000
_SYLLABLES = ("ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo ga ge "
              "gi go ka ke ki ko la le li lo lu ma me mi mo mu na ne ni no nu "
              "pa pe pi po ra re ri ro ru sa se si so ta te ti to tu va ve vi "
              "za ze zo").split()
SUFFIXES = ["food product", "plant", "animal", "food source", "product",
            "meat", "part", "fluid", "organism", "derived", "root", "leaf",
            "seed", "tissue", "juice", "extract"]
# tokens that fire the token-level cascade steps on generated page text
_SPELLING = {"dolore": "dolor", "aliqua": "aliquam", "minim": "minimum"}
_NON_ENGLISH = {"enim": "indeed", "veniam": "pardon"}
_ABBREV = {"elit": "elite", "quis": "question"}
_STOP = ["sit", "sed", "the", "a", "an", "and", "or", "in", "on", "with"]


def _words(rng: np.random.RandomState, n: int) -> list[str]:
    """``n`` distinct pronounceable pseudo-words."""
    out: dict[str, None] = {}
    while len(out) < n:
        k = rng.randint(2, 5)
        out["".join(_SYLLABLES[i] for i in rng.randint(len(_SYLLABLES), size=k))] = None
    return list(out)


def _write(path: str, header: tuple[str, str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def generate(out_dir: str, seed: int) -> str:
    """Write every resource CSV into *out_dir*; returns the content digest."""
    rng = np.random.RandomState(seed)
    os.makedirs(out_dir, exist_ok=True)
    page_tokens = sorted({t for p in _MATCHABLE_PHRASES for t in p.split()} | set(_FILLER))
    vocab = _words(rng, 6000)

    labels: dict[str, str] = {}
    for i, phrase in enumerate(_MATCHABLE_PHRASES):
        ns = "ncbitaxon" if phrase in ("salmonella enterica", "ameiurus catus") else "foodon"
        labels[phrase] = f"{ns}_{9000000 + i:08d}"
    # a few page-vocabulary compounds so component matching finds hits in
    # filler text, and suffix-bearing labels the suffix probe can reach
    for phrase in _MATCHABLE_PHRASES[:8]:
        labels.setdefault(f"{phrase} {SUFFIXES[rng.randint(4)]}", f"foodon_{8000000 + len(labels):08d}")
    while len(labels) < N_LABELS:
        k = int(rng.choice([1, 2, 2, 3, 3, 3, 4, 5, 7]))
        toks = [vocab[j] for j in rng.randint(len(vocab), size=k)]
        if rng.rand() < 0.01:
            toks[rng.randint(k)] = page_tokens[rng.randint(len(page_tokens))]
        if rng.rand() < 0.05:
            toks.append(SUFFIXES[rng.randint(len(SUFFIXES))])
        label = " ".join(toks)
        if label not in labels:
            ns = "ncbitaxon" if rng.rand() < 0.05 else "foodon"
            labels[label] = f"{ns}_{len(labels):08d}"
    label_list = list(labels)

    _write(os.path.join(out_dir, "CombinedResourceTerms.csv"), ("Id", "Label"),
           [(tid, lab) for lab, tid in labels.items()])
    syn = {"lorem ipsum": "chicken breast", "magna pie": "apple pie"}
    while len(syn) < 713:
        syn[" ".join(vocab[j] for j in rng.randint(len(vocab), size=2))] = \
            label_list[rng.randint(len(label_list))]
    _write(os.path.join(out_dir, "SynLex.csv"), ("Synonym", "Label"), syn.items())
    abb = dict(_ABBREV)
    while len(abb) < 318:
        abb[vocab[rng.randint(len(vocab))][:3]] = label_list[rng.randint(len(label_list))]
    _write(os.path.join(out_dir, "AbbLex.csv"), ("Abbreviation", "Expansion"), abb.items())
    scor = dict(_SPELLING)
    while len(scor) < 4656:
        w = vocab[rng.randint(len(vocab))]
        cut = rng.randint(len(w))
        scor.setdefault(w[:cut] + w[cut + 1:], w)
    _write(os.path.join(out_dir, "ScorLex.csv"), ("Misspelling", "Correction"), scor.items())
    nef = dict(_NON_ENGLISH)
    while len(nef) < 181:
        nef[vocab[rng.randint(len(vocab))] + "o"] = vocab[rng.randint(len(vocab))]
    _write(os.path.join(out_dir, "NefLex.csv"), ("Word", "English"), nef.items())
    stop = list(_STOP) + [vocab[j] + "x" for j in range(154)]
    _write(os.path.join(out_dir, "mining-stopwords.csv"), ("Word", ""), ((w, "") for w in stop))
    infl = ["series", "species", "news", "fungus"] + [vocab[j] + "s" for j in range(200, 332)]
    _write(os.path.join(out_dir, "inflection-exceptions.csv"), ("Word", ""), ((w, "") for w in infl))
    _write(os.path.join(out_dir, "suffixes.csv"), ("Suffix", ""), ((s, "") for s in SUFFIXES))
    taxa = [lab for lab, tid in labels.items() if tid.startswith("ncbitaxon")]
    _write(os.path.join(out_dir, "foodon_ncbi_synonyms.csv"), ("Name", "Scientific"),
           ((label_list[rng.randint(len(label_list))], taxa[rng.randint(len(taxa))])
            for _ in range(2746)))
    buckets = [f"bucket {vocab[j]}" for j in range(400, 440)]
    _write(os.path.join(out_dir, "buckets-lexmapr.csv"), ("Id", "Bucket"),
           ((labels[label_list[j]], buckets[j % len(buckets)]) for j in range(0, len(label_list), 20)))
    _write(os.path.join(out_dir, "buckets-ifsactop.csv"), ("Id", "Bucket"),
           ((labels[label_list[j]], buckets[j % 12]) for j in range(5, len(label_list), 40)))
    _write(os.path.join(out_dir, "ifsac-labels.csv"), ("Bucket", "Label"),
           ((b, b.split()[1]) for b in buckets))
    _write(os.path.join(out_dir, "ifsac-default.csv"), ("Label", "Default"),
           ((b.split()[1], "other") for b in buckets[:12]))
    _write(os.path.join(out_dir, "ifsac-refinement.csv"), ("Label", "Refined"),
           ((b.split()[1], buckets[(i + 1) % 12].split()[1]) for i, b in enumerate(buckets[:12])))
    return content_digest(out_dir)


def content_digest(resource_dir: str) -> str:
    """sha256 over the resource files' names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(resource_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(resource_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]
