"""Lexicon (ontology lookup table) construction.

Builds the broadcastable, read-only lookup structure the matcher probes.
The data model mirrors the reference's 16-key nested dict
(``/root/reference/lexmapr/pipeline_resources.py:168-199``) so that its unit
tests and golden outputs transfer, but adds precomputed acceleration indexes
(sorted-token-multiset hash sets, and token blocks of those multisets keyed by
their rarest token) that let the matcher build only the candidate chunks that
can match and skip provably-failing permutation probes without changing
semantics.

Resource CSVs are read from the directory :func:`resource_dir` names at
call time: ``LEXMAPR_RESOURCES``, else the reference's
``predefined_resources`` directory.  The built lexicon is cached to a pickle
keyed by the resource files' identity; at cluster scale it is built once and
shipped to the matcher's worker processes via ``ray.put``.
"""

from __future__ import annotations

import functools
import csv
import hashlib
import os
import pickle
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, permutations, product

from lexmapr_ray.lexkit.textproc import punctuation_treatment, word_tokenize

REFERENCE_RESOURCE_DIR = "/root/reference/lexmapr/predefined_resources"
_CACHE_DIR = os.environ.get("LEXMAPR_CACHE_DIR", "/tmp/lexmapr_ray_cache")


@functools.lru_cache(maxsize=1 << 16)
def _canon_str(key: str):
    """Sorted-token canonical form of a probe string, memoized: the matcher
    probes the same surface strings (and term+suffix combinations) hundreds
    of times per batch, and split+sort dominated the probe profile.

    String keys in the reference index are exactly ``" ".join(tokens)``; a
    probe that isn't whitespace-normalized (e.g. the '" " + suffix' probe of
    an empty term) can never equal one, so it maps to a never-matching
    sentinel."""
    parts = key.split()
    if key != " ".join(parts):
        return ("\x00non-normalized", key)
    return tuple(sorted(parts))


class MultisetDict(dict):
    """Dict keyed by token multisets, probed with space-joined strings.

    The reference's permutation index stores EVERY token ordering of each
    label (``pipeline_resources.py:237-247``), so string membership there is
    exactly multiset equality.  This drop-in replacement stores one sorted
    tuple per label instead of up to 6! strings, with identical probe
    semantics and identical overwrite-on-collision behavior (all orderings
    of one label collapse to one key, and labels with equal multisets
    overwrite in insertion order, as in the reference build loop).
    """

    @staticmethod
    def _canon(key):
        if isinstance(key, str):
            return _canon_str(key)
        return key

    def __contains__(self, key):
        return super().__contains__(self._canon(key))

    def __getitem__(self, key):
        return super().__getitem__(self._canon(key))

    def __setitem__(self, key, value):
        super().__setitem__(self._canon(key), value)

    def get(self, key, default=None):
        return super().get(self._canon(key), default)


def create_lookup_table_skeleton() -> dict:
    """Empty lookup table with the fixed key set.

    Mirrors /root/reference/lexmapr/pipeline_resources.py:168-199.
    """
    return {
        "non_standard_resource_ids": {},
        "standard_resource_labels": {},
        "standard_resource_label_permutations": {},
        "synonyms": {},
        "parents": {},
        "abbreviations": {},
        "non_english_words": {},
        "spelling_mistakes": {},
        "inflection_exceptions": {},
        "stop_words": {},
        "suffixes": {},
        "buckets_ifsactop": {},
        "buckets_lexmapr": {},
        "ifsac_labels": {},
        "ifsac_refinement": {},
        "ifsac_default": {},
    }


def merge_lookup_tables(lookup_table_one: dict, lookup_table_two: dict) -> dict:
    """Merge two lookup tables; table-two wins key conflicts.

    Mirrors /root/reference/lexmapr/pipeline_helpers.py:375-412 (including
    its validation errors).
    """
    if lookup_table_one.keys() != lookup_table_two.keys():
        raise ValueError("lookup_table_one and lookup_table_two do not have the same keys")
    for key in lookup_table_one.keys():
        if not isinstance(lookup_table_one[key], dict):
            raise ValueError("lookup_table_one values are not all dictionaries")
        if not isinstance(lookup_table_two[key], dict):
            raise ValueError("lookup_table_two values are not all dictionaries")
    for key in lookup_table_one.keys():
        for nested_key, nested_val in lookup_table_two[key].items():
            lookup_table_one[key][nested_key] = nested_val
    return lookup_table_one


def read_resource_csv(path: str) -> dict[str, str]:
    """``{col0.lower(): col1.lower()}`` from a header-skipped CSV.

    Mirrors /root/reference/lexmapr/pipeline_resources.py:251-286 (missing
    second column becomes "").
    """
    ret: dict[str, str] = {}
    with open(path, newline="") as fp:
        next(fp)
        for row in csv.reader(fp, delimiter=","):
            if not row:
                continue
            key = row[0].strip()
            try:
                val = row[1].strip()
            except IndexError:
                val = ""
            ret[key.lower()] = val.lower()
    return ret


def get_resource_label_permutations(resource_label: str) -> list[str]:
    """All unique token-order permutations of a label (order-preserving).

    Mirrors /root/reference/lexmapr/pipeline_resources.py:289-307.
    """
    perm_tuples = list(OrderedDict.fromkeys(permutations(resource_label.split())))
    return [" ".join(t) for t in perm_tuples]


def add_predefined_resources(lookup_table: dict, resource_dir: str) -> dict:
    """Populate *lookup_table* from the predefined resource CSVs.

    Mirrors /root/reference/lexmapr/pipeline_resources.py:202-248: the
    permutation index skips labels with >=7 tokens and NCBI taxon ids.
    """
    rd = lambda name: read_resource_csv(os.path.join(resource_dir, name))  # noqa: E731
    lookup_table["abbreviations"] = rd("AbbLex.csv")
    lookup_table["non_english_words"] = rd("NefLex.csv")
    lookup_table["spelling_mistakes"] = rd("ScorLex.csv")
    lookup_table["inflection_exceptions"] = rd("inflection-exceptions.csv")
    lookup_table["stop_words"] = rd("mining-stopwords.csv")
    lookup_table["suffixes"] = rd("suffixes.csv")

    lookup_table["synonyms"] = {
        punctuation_treatment(k): punctuation_treatment(v)
        for k, v in rd("SynLex.csv").items()
    }

    lookup_table["non_standard_resource_ids"] = rd("CombinedResourceTerms.csv")
    lookup_table["standard_resource_labels"] = {
        punctuation_treatment(v): k
        for k, v in lookup_table["non_standard_resource_ids"].items()
    }

    # MultisetDict: one sorted-tuple key per label stands in for the full
    # factorial permutation enumeration of pipeline_resources.py:237-247,
    # with identical membership/overwrite semantics.
    perm_index = MultisetDict()
    for label, resource_id in lookup_table["standard_resource_labels"].items():
        if len(word_tokenize(label)) < 7 and "ncbitaxon" not in resource_id:
            perm_index[label] = resource_id
    lookup_table["standard_resource_label_permutations"] = perm_index
    return lookup_table


def add_classification_resources(lookup_table: dict, resource_dir: str) -> dict:
    """Populate the bucket-classification keys.

    Mirrors /root/reference/lexmapr/pipeline_resources.py:411-432.
    """
    rd = lambda name: read_resource_csv(os.path.join(resource_dir, name))  # noqa: E731
    lookup_table["buckets_lexmapr"] = rd("buckets-lexmapr.csv")
    lookup_table["buckets_ifsactop"] = rd("buckets-ifsactop.csv")
    lookup_table["ifsac_labels"] = rd("ifsac-labels.csv")
    lookup_table["ifsac_default"] = rd("ifsac-default.csv")
    lookup_table["ifsac_refinement"] = rd("ifsac-refinement.csv")
    return lookup_table


def merge_config_into_lexicon(lexicon, config: str, *, no_cache: bool = False,
                              resolve=None, cache_dir: str | None = None):
    """Return a NEW Lexicon with a ``--config`` ontology lookup table merged
    in (ontology side winning conflicts) and indexes rebuilt — the one
    shared implementation behind ``broadcast_lexicon(config=...)`` and the
    legacy CLI's ``-c`` (review r5: the two paths had drifted copies).

    The nested dicts are copied before merging: ``merge_lookup_tables``
    mutates its first argument in place (reference parity), and a shallow
    ``dict()`` would silently pollute the caller's lexicon while leaving
    its built indexes stale."""
    from lexmapr_ray.lexkit.ontology import get_config_resources

    onto = get_config_resources(config, no_cache=no_cache, resolve=resolve,
                                cache_dir=cache_dir)
    merged = merge_lookup_tables(
        {k: dict(v) for k, v in lexicon.table.items()}, onto)
    return Lexicon(merged, lexicon.scientific_names).build_indexes()


@dataclass
class Lexicon:
    """Broadcast-ready matcher state: lookup table + acceleration indexes.

    ``table`` is the reference-shaped 16-key dict.  The remaining fields are
    derived, probe-only structures:

    ``matchable_multisets`` holds the sorted-token-multiset tuple of every
    string the matcher could successfully probe: label keys, permutation-index
    keys (their sorted multisets collapse onto the labels'), synonym keys,
    and every label multiset with a trailing suffix's tokens removed (because
    the suffix probe appends ``" " + suffix`` before the exact-string lookup,
    ``chunk + suffix == label  <=>  chunk == label - suffix`` as multisets).
    A candidate chunk whose sorted multiset is absent cannot match under ANY
    token permutation, suffix addition or synonym rewrite, so the matcher
    skips the whole factorial probe loop for it.

    ``chunk_blocks`` lists each of those multisets with 1-5 tokens under its
    rarest token (token blocking): ``matchable_chunks`` reaches every
    multiset a mention contains through the mention's own tokens, so
    component matching builds only the chunks that ``chunk_can_match``
    would admit instead of every combination.
    """

    table: dict
    scientific_names: dict[str, str] = field(default_factory=dict)
    matchable_multisets: set = field(default_factory=set)
    # multiset(label) - multiset(suffix) for every (label, suffix) pair with
    # suffix ⊆ label: a term can hit ANY "term + ' ' + suffix" probe (exact
    # OR permutation index) only if its token multiset is in this set, so
    # map_term skips the 15-suffix x 2-probe loop for provably-missing terms
    suffix_stripped_multisets: set = field(default_factory=set)
    chunk_blocks: dict = field(default_factory=dict)

    def build_indexes(self) -> "Lexicon":
        t = self.table
        label_multisets = {
            tuple(sorted(k.split())) for k in t["standard_resource_labels"]
        }
        label_multisets.update(
            k if isinstance(k, tuple) else tuple(sorted(k.split()))
            for k in t["standard_resource_label_permutations"]
        )
        matchable = set(label_multisets)
        matchable.update(tuple(sorted(k.split())) for k in t["synonyms"])
        # suffix-stripped variants: chunk+suffix probes hit label L iff
        # multiset(chunk) == multiset(L) - multiset(suffix)
        stripped_set = strip_suffixes(label_multisets, t["suffixes"])
        matchable.update(stripped_set)
        self.matchable_multisets = matchable
        self.suffix_stripped_multisets = stripped_set
        self.chunk_blocks = _block_by_rarest_token(
            [ms for ms in matchable if 0 < len(ms) <= 5])
        return self

    def chunk_can_match(self, chunk_tokens: tuple[str, ...] | list[str]) -> bool:
        """Can ANY permutation of *chunk_tokens* (with or without a suffix)
        hit the label, permutation or synonym indexes?  False means every
        probe the reference would attempt is guaranteed to miss."""
        return tuple(sorted(chunk_tokens)) in self.matchable_multisets

    def matchable_chunks(self, tokens: list[str]) -> list[tuple[int, ...]]:
        """Position tuples of exactly the 1-5-token combinations of *tokens*
        that ``chunk_can_match`` admits, in ``combinations()`` order, sizes
        5 -> 1.  Found from the blocks of the mention's own tokens: each
        blocked multiset that is a sub-multiset of the mention expands into
        every position tuple that realizes it, so the non-matchable
        combinations are never built."""
        positions: dict[str, list[int]] = {}
        for i, tok in enumerate(tokens):
            positions.setdefault(tok, []).append(i)
        chunks = []
        for tok in positions:
            for ms in self.chunk_blocks.get(tok, ()):
                for t in ms:
                    if t not in positions:
                        break
                else:  # every token of ms occurs; _realizations checks counts
                    chunks += _realizations(ms, positions)
        chunks.sort(key=lambda c: (-len(c), c))
        return chunks


def strip_suffixes(label_multisets, suffixes) -> set:
    """``multiset(L) - multiset(S)`` for every label multiset L and suffix S
    with S a sub-multiset of L.  Only the labels holding S's rarest token
    can contain S, so each suffix visits that token's labels, not all of
    them (the empty suffix visits every label)."""
    postings: dict[str, list[tuple]] = {}
    for ms in label_multisets:
        for tok in set(ms):
            postings.setdefault(tok, []).append(ms)
    stripped_set = set()
    for suffix in suffixes:
        sc = Counter(suffix.split())
        if sc:
            rarest = min(sc, key=lambda tok: len(postings.get(tok, ())))
            candidates = postings.get(rarest, ())
        else:
            candidates = label_multisets
        for ms in candidates:
            mc = Counter(ms)
            if all(mc[tok] >= n for tok, n in sc.items()):
                stripped_set.add(tuple(sorted((mc - sc).elements())))
    return stripped_set


def _block_by_rarest_token(multisets: list[tuple]) -> dict[str, list[tuple]]:
    """Token blocking: each multiset listed once, under its token held by
    the fewest multisets (ties by the token), so a mention reaches every
    multiset it contains through its own tokens and visits short lists."""
    freq = Counter(tok for ms in multisets for tok in set(ms))
    blocks: dict[str, list[tuple]] = {}
    for ms in multisets:
        key = min(ms, key=lambda tok: (freq[tok], tok))
        blocks.setdefault(key, []).append(ms)
    return blocks


def _realizations(ms: tuple, positions: dict[str, list[int]]) -> list[tuple[int, ...]]:
    """Every sorted position tuple whose tokens form the sorted multiset
    *ms*: a token repeated n times picks n of its positions."""
    parts = []
    for tok, run in groupby(ms):
        n = sum(1 for _ in run)
        if len(positions[tok]) < n:
            return []
        parts.append(combinations(positions[tok], n))
    return [tuple(sorted(chain.from_iterable(pick))) for pick in product(*parts)]


def resource_dir(fallback: str | None = None) -> str:
    """The lexicon resource directory, looked up at call time:
    ``LEXMAPR_RESOURCES`` when set, else the reference's tree when
    present, else *fallback* (the engine passes none; tools pass
    ``tests/data/lexicon``).  Raises ``FileNotFoundError`` when none is
    a directory, or when ``LEXMAPR_RESOURCES`` names a missing one: a
    stated setting is never silently replaced."""
    env = os.environ.get("LEXMAPR_RESOURCES")
    if env:
        if os.path.isdir(env):
            return env
        raise FileNotFoundError(f"LEXMAPR_RESOURCES={env!r} is not a directory")
    for d in (REFERENCE_RESOURCE_DIR, fallback):
        if d and os.path.isdir(d):
            return d
    raise FileNotFoundError(
        f"no lexicon resources: {REFERENCE_RESOURCE_DIR} is absent"
        + (f", and so is {fallback}" if fallback else "")
        + "; set LEXMAPR_RESOURCES to a lexicon directory, such as the "
        "small hand-written tests/data/lexicon")


def _resource_fingerprint(resource_dir: str) -> str:
    parts = [resource_dir]
    try:
        for name in sorted(os.listdir(resource_dir)):
            st = os.stat(os.path.join(resource_dir, name))
            parts.append(f"{name}:{st.st_size}:{int(st.st_mtime)}")
    except OSError:
        pass
    return hashlib.md5("|".join(parts).encode()).hexdigest()


def build_lexicon(
    resources: str | None = None,
    *,
    classification: bool = True,
    use_cache: bool = True,
    golden_overlay: bool = True,
) -> Lexicon:
    """Build (or load from cache) the full matcher lexicon.

    Driver-side, runs once; the result is what gets ``ray.put`` into the
    object store and read once by each matcher worker process.
    ``resources`` defaults to :func:`resource_dir`.
    """
    resources = resources or resource_dir()
    cache_path = None
    if use_cache:
        os.makedirs(_CACHE_DIR, exist_ok=True)
        # _v4: chunk_blocks added to the pickled index
        key = _resource_fingerprint(resources) + (
            ("_cls" if classification else "") + ("_gold" if golden_overlay else "") + "_v4"
        )
        cache_path = os.path.join(_CACHE_DIR, f"lexicon_{key}.pkl")
        if os.path.exists(cache_path):
            try:
                with open(cache_path, "rb") as fp:
                    return pickle.load(fp)
            except Exception:
                pass

    table = create_lookup_table_skeleton()
    table = add_predefined_resources(table, resources)
    if classification:
        table = add_classification_resources(table, resources)
    if golden_overlay:
        from lexmapr_ray.lexkit.golden_overlay import apply_golden_overlay

        table = apply_golden_overlay(table)

    sci_path = os.path.join(resources, "foodon_ncbi_synonyms.csv")
    scientific_names = read_resource_csv(sci_path) if os.path.exists(sci_path) else {}

    lex = Lexicon(table=table, scientific_names=scientific_names).build_indexes()

    if cache_path:
        tmp = cache_path + f".tmp{os.getpid()}"
        with open(tmp, "wb") as fp:
            pickle.dump(lex, fp, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, cache_path)
    return lex
