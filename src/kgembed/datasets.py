"""Triple stores: TSV loading, dense id vocabularies, inverse-relation
augmentation, per-relation corruption statistics and filter indices.

A triple file is UTF-8, tab-separated, three columns (head, relation, tail),
no header. Ids are dense integers assigned in order of first appearance while
scanning train, then valid, then test, so the same files always produce the
same vocabulary.
"""

import logging
from collections import OrderedDict

import numpy as np

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")

# appended to a relation label to name its inverse; input labels must not use it
INVERSE_SUFFIX = "_inverse"


def load_tsv(path):
    """Read labeled triples from a TSV file.

    Returns a list of (head, relation, tail) label triples. Raises ValueError
    naming the offending line number when a line does not have exactly three
    tab-separated fields. Blank lines are skipped.
    """
    triples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            triples.append((parts[0], parts[1], parts[2]))
    return triples


class TripleStore:
    """Dense-id view of a train/valid/test triple corpus.

    Attributes:
        entity_to_id, relation_to_id: label -> dense id
        entity_labels, relation_labels: id -> label
        triples: dict split name -> (N, 3) int array of (h, r, t) ids
        num_base_relations: relation count before inverse augmentation;
            equals num_relations when the store is not augmented
        inverse_augmented: True once add_inverse_relations produced this store
    """

    def __init__(self, entity_to_id, relation_to_id, triples,
                 inverse_augmented=False, num_base_relations=None):
        self.entity_to_id = dict(entity_to_id)
        self.relation_to_id = dict(relation_to_id)
        self.entity_labels = [None] * len(self.entity_to_id)
        for label, i in self.entity_to_id.items():
            self.entity_labels[i] = label
        self.relation_labels = [None] * len(self.relation_to_id)
        for label, i in self.relation_to_id.items():
            self.relation_labels[i] = label
        self.triples = {
            split: np.asarray(arr, dtype=np.intp).reshape(-1, 3) for split, arr in triples.items()
        }
        for split in SPLITS:
            self.triples.setdefault(split, np.empty((0, 3), dtype=np.intp))
        self.inverse_augmented = inverse_augmented
        self.num_base_relations = (
            num_base_relations if num_base_relations is not None else len(self.relation_to_id)
        )
        self._filter_indexes = {}  # tuple of splits -> FilterIndex
        self._augmented = {}  # "inverse" -> the store add_inverse_relations made of it

    @property
    def num_entities(self):
        return len(self.entity_to_id)

    @property
    def num_relations(self):
        return len(self.relation_to_id)

    def num_triples(self, split):
        return self.triples[split].shape[0]

    def all_triples(self, splits=SPLITS):
        """Concatenated id triples over the given splits."""
        return np.concatenate([self.triples[s] for s in splits], axis=0)

    def filter_index(self, splits=SPLITS):
        """The FilterIndex over the given splits, built by the first call and
        returned by every later one; a store's triples never change after
        construction. Two threads may both build it on a first call: the
        builds are equal, and every caller gets the one the store keeps.
        """
        splits = tuple(splits)
        return (self._filter_indexes.get(splits)
                or self._filter_indexes.setdefault(splits, FilterIndex(self, splits)))

    @classmethod
    def from_labeled_triples(cls, train, valid=(), test=()):
        """Build vocabulary and id arrays from labeled triple lists.

        The vocabulary covers the union of all three splits. Exact duplicate
        triples within a split are dropped (keeping first occurrence) and the
        drop count is logged. Entities appearing only outside the training
        split are kept but logged, since nothing can be learned for them.
        """
        splits = OrderedDict([("train", train), ("valid", valid), ("test", test)])
        entity_to_id, relation_to_id = {}, {}
        for rows in splits.values():
            for h, r, t in rows:
                if h not in entity_to_id:
                    entity_to_id[h] = len(entity_to_id)
                if r not in relation_to_id:
                    relation_to_id[r] = len(relation_to_id)
                if t not in entity_to_id:
                    entity_to_id[t] = len(entity_to_id)

        id_triples = {}
        for split, rows in splits.items():
            # dict keys drop repeats and keep the first occurrence's order
            kept = list(dict.fromkeys(
                (entity_to_id[h], relation_to_id[r], entity_to_id[t]) for h, r, t in rows))
            dropped = len(rows) - len(kept)
            if dropped:
                log.warning("%s split: dropped %d duplicate triples", split, dropped)
            id_triples[split] = np.asarray(kept, dtype=np.intp).reshape(-1, 3)

        trained = np.zeros(len(entity_to_id), dtype=bool)
        trained[id_triples["train"][:, [0, 2]]] = True
        unseen = [label for label, i in entity_to_id.items() if not trained[i]]
        if unseen:
            log.warning(
                "%d entities appear only in valid/test and are never trained: %s%s",
                len(unseen), ", ".join(unseen[:5]), "..." if len(unseen) > 5 else "",
            )
        return cls(entity_to_id, relation_to_id, id_triples)

    @classmethod
    def from_files(cls, train_path, valid_path=None, test_path=None):
        train = load_tsv(train_path)
        valid = load_tsv(valid_path) if valid_path else []
        test = load_tsv(test_path) if test_path else []
        return cls.from_labeled_triples(train, valid, test)

    @classmethod
    def from_directory(cls, path):
        """Load <path>/train.txt, valid.txt, test.txt."""
        import os

        return cls.from_files(
            os.path.join(path, "train.txt"),
            os.path.join(path, "valid.txt"),
            os.path.join(path, "test.txt"),
        )


def add_inverse_relations(store):
    """The store whose training split also contains inverse triples, built
    by the first call and returned by every later one, as
    TripleStore.filter_index keeps its indexes: one augmented store, and so
    one set of its indexes, per store.

    For every training triple (h, r, t) an inverse triple (t, r', h) is added,
    where r' = r + R and R is the original relation count. Validation and test
    splits are left untouched; their inverse forms are derived on the fly
    during evaluation. Augmenting an augmented store is an error.
    """
    if store.inverse_augmented:
        raise ValueError("store already contains inverse relations")
    if "inverse" in store._augmented:
        return store._augmented["inverse"]
    base = store.num_relations
    relation_to_id = dict(store.relation_to_id)
    for label, i in store.relation_to_id.items():
        inv_label = label + INVERSE_SUFFIX
        if inv_label in relation_to_id:
            raise ValueError(
                f"relation label {inv_label!r} already exists; {INVERSE_SUFFIX!r} is reserved"
            )
        relation_to_id[inv_label] = base + i

    train = store.triples["train"]
    inverse = np.stack([train[:, 2], train[:, 1] + base, train[:, 0]], axis=1)
    triples = dict(store.triples)
    triples["train"] = np.concatenate([train, inverse], axis=0)
    # two threads may both build it on a first call, as in filter_index
    return store._augmented.setdefault("inverse", TripleStore(
        store.entity_to_id,
        relation_to_id,
        triples,
        inverse_augmented=True,
        num_base_relations=base,
    ))


def relation_stats(store, index=None):
    """Per-relation mean tails-per-head and heads-per-tail on the train split.

    Returns (tph, hpt) as float arrays of length num_relations, counted over
    the distinct training triples. Relations absent from the training split
    fall back to tph = hpt = 1, which makes the Bernoulli corruption
    probability an even split. index defaults to store.filter_index(("train",)).
    """
    R = store.num_relations
    if index is None:
        index = store.filter_index(("train",))
    (_, hr_relations), tails_per_hr = index.groups("tail")
    (rt_relations, _), _ = index.groups("head")
    triples = np.bincount(hr_relations, weights=tails_per_hr, minlength=R)
    heads = np.bincount(hr_relations, minlength=R)
    tails = np.bincount(rt_relations, minlength=R)
    tph = np.divide(triples, heads, out=np.ones(R), where=triples > 0)
    hpt = np.divide(triples, tails, out=np.ones(R), where=triples > 0)
    return tph, hpt


class FilterIndex:
    """True-triple lookups for filtered negative sampling and evaluation.

    The distinct triples of the chosen splits are two sorted int64 key arrays,
    tail_keys (h·R + r)·E + t and head_keys (r·E + t)·E + h, so the known tails
    of (h, r) are one searchsorted range of tail_keys, [(h·R + r)·E, +E).
    """

    def __init__(self, store, splits=SPLITS):
        E, R = store.num_entities, store.num_relations
        if E * E * max(R, 1) >= 2**63:
            raise ValueError(f"{E} entities and {R} relations overflow int64 triple keys")
        self.num_entities, self.num_relations = E, R
        h, r, t = store.all_triples(splits).astype(np.int64).T
        self.tail_keys = np.unique((h * R + r) * E + t)
        self.head_keys = np.unique((r * E + t) * E + h)
        self._adj = {}  # side -> keys - arange, built on the first draw

    def _range(self, side, a, b):
        """Keys plus each query's range start, first key position and key
        count: (h, r) queries for side "tail", (r, t) for side "head"."""
        E = self.num_entities
        keys = self.tail_keys if side == "tail" else self.head_keys
        width = self.num_relations if side == "tail" else E
        start = (np.asarray(a, dtype=np.int64) * width + b).reshape(-1) * E
        lo = np.searchsorted(keys, start)
        return keys, start, lo, np.searchsorted(keys, start + E) - lo

    def completions(self, side, a, b):
        """(rows, entities) of every known completion of the query batch
        (a[i], b[i]): (h, r) queries for side "tail", (r, t) for "head"."""
        keys, start, lo, counts = self._range(side, a, b)
        rows = np.repeat(np.arange(start.size), counts)
        # a row's entries sit at lo, lo + 1, ... of its range
        pos = np.arange(rows.size) + (lo - np.cumsum(counts) + counts)[rows]
        return rows, keys[pos] - start[rows]

    def groups(self, side):
        """The distinct queries with a known completion, in sorted order, and
        the number of completions of each: ((h, r), counts) for side "tail",
        ((r, t), counts) for side "head"."""
        keys = self.tail_keys if side == "tail" else self.head_keys
        width = self.num_relations if side == "tail" else self.num_entities
        prefixes, counts = np.unique(keys // self.num_entities, return_counts=True)
        return (prefixes // width, prefixes % width), counts

    def draw_unknown(self, side, a, b, exclude, rng):
        """One entity per query (a[i], b[i]), uniform over the entities that
        are neither a known completion nor exclude[i].

        The u-th such entity is found in one pass: adj = keys - arange is
        nondecreasing, so searchsorted on it counts the known completions at
        or below the answer. A saturated query, whose every entity but
        exclude[i] is known, has no such entity; it draws uniformly over the
        entities other than exclude[i] instead. Returns (entities, saturated).
        """
        E = self.num_entities
        keys, start, lo, count = self._range(side, a, b)
        if side not in self._adj:
            self._adj[side] = keys - np.arange(keys.size)
        exclude = np.asarray(exclude, dtype=np.int64).reshape(-1)
        key = start + exclude
        pos = np.searchsorted(keys, key)
        below = pos - lo  # known completions below exclude
        # exclude is known exactly when it is the key at its insertion point
        unknown = (keys.take(pos, mode="clip") != key if keys.size
                   else np.ones(key.shape, dtype=bool))
        free = E - count - unknown
        saturated = free == 0
        u = rng.integers(0, np.where(saturated, E - 1, free))
        # u ranks the entities outside the known completions (outside nothing
        # when saturated); step past exclude where it is ranked among them
        u += (saturated | unknown) & (u >= np.where(saturated, exclude, exclude - below))
        found = u + np.searchsorted(self._adj[side], start - lo + u, "right") - lo
        return np.where(saturated, u, found), saturated
