"""Seeded synthetic knowledge graph with planted relational structure.

Stands in for FB15k-237 until the real files are in the repository. Its
shape follows FB15k-237's published statistics (Toutanova and Chen, 2015:
14,541 entities, 237 relations, 272,115 / 17,535 / 20,466 train / valid /
test triples), scaled to NUM_ENTITIES: the number of relations, training
triples per entity and the validation and test splits relative to training
keep FB15k-237's ratios. The entity count is what one benchmark round can
afford: with inverse relations 1-N training scores every distinct (h, r)
pair of the training split against every entity, and both grow with E, so
an epoch costs about E^2 times a constant that these ratios fix.

Structure planted per seed:
  * every entity belongs to one of NUM_CLUSTERS clusters;
  * every relation pairs the clusters up symmetrically: target[r, c] is the
    partner of cluster c under relation r;
  * every triple (h, r, t) has t in cluster target[r, cluster[h]];
  * within a cluster, tails follow the same Zipf-like popularity over a
    random order of its members, so they concentrate on a few entities per
    cluster, as they do in Freebase.

Heads and relations are drawn uniformly. Every entity heads at least one
training triple, so the store built from the files has exactly E entities
and all of them are trained. The remaining triples are distinct draws split
at random into train, valid and test, as FB15k-237's were; no triple is in
two splits.
"""

import os

import numpy as np

# FB15k-237 (Toutanova and Chen, 2015)
FB15K237 = {"entities": 14541, "relations": 237, "train": 272115, "valid": 17535,
            "test": 20466}
NUM_ENTITIES = 1000
NUM_CLUSTERS = 8
POPULARITY_EXPONENT = 2.0


def split_sizes(E):
    """Relations and split sizes for E entities, at FB15k-237's ratios."""
    scale = E / FB15K237["entities"]
    return {name: max(1, round(FB15K237[name] * scale))
            for name in ("relations", "train", "valid", "test")}


def entity_label(i):
    return f"/m/e{i:05d}"


def relation_label(j):
    return f"/r/{j:03d}"


class PlantedGraph:
    """The generated splits (id triples) plus the structure that made them."""

    def __init__(self, cluster, target, splits):
        self.cluster = cluster      # (E,) cluster of each entity
        self.target = target        # (R, C) target cluster per relation and cluster
        self.splits = splits        # split name -> (N, 3) int64 (h, r, t)

    def write_tsv(self, directory):
        """Write train.txt, valid.txt and test.txt in the library's TSV format."""
        os.makedirs(directory, exist_ok=True)
        for split, rows in self.splits.items():
            lines = [f"{entity_label(h)}\t{relation_label(r)}\t{entity_label(t)}\n"
                     for h, r, t in rows.tolist()]
            with open(os.path.join(directory, f"{split}.txt"), "w",
                      encoding="utf-8") as f:
                f.writelines(lines)


def _draw(rng, heads, R, cluster, target, members, weights):
    """Triples with the given heads, uniform relations and planted tails."""
    relations = rng.integers(0, R, size=heads.size)
    tails = np.empty_like(heads)
    wanted = target[relations, cluster[heads]]
    for c in np.unique(wanted):
        rows = np.flatnonzero(wanted == c)
        tails[rows] = rng.choice(members[c], size=rows.size, p=weights[c])
    return np.stack([heads, relations, tails], axis=1).astype(np.int64)


def generate(seed, E=NUM_ENTITIES, C=NUM_CLUSTERS):
    """The planted graph for one workload seed; equal seeds, equal graphs."""
    sizes = split_sizes(E)
    R = sizes["relations"]
    rng = np.random.default_rng([seed, 0x5EED])
    cluster = rng.integers(0, C, size=E)
    # each relation pairs the clusters up symmetrically, a pattern every
    # interaction in the zoo can express (DistMult is symmetric in h and t)
    target = np.empty((R, C), dtype=np.int64)
    for r in range(R):
        order = rng.permutation(C).reshape(-1, 2)
        target[r, order[:, 0]] = order[:, 1]
        target[r, order[:, 1]] = order[:, 0]
    members = [np.flatnonzero(cluster == c) for c in range(C)]
    # every cluster has the same Zipf shape over a random order of its members
    weights = []
    for m in members:
        w = 1.0 / (1.0 + rng.permutation(m.size)) ** POPULARITY_EXPONENT
        weights.append(w / w.sum())
    draw = lambda heads: _draw(rng, heads, R, cluster, target, members, weights)
    keys = lambda x: (x[:, 0] * R + x[:, 1]) * E + x[:, 2]

    # one training triple headed by each entity, then distinct further draws
    # until there are enough for the rest of train and for valid and test
    first = draw(rng.permutation(E))
    wanted = sizes["train"] - E + sizes["valid"] + sizes["test"]
    pool = np.empty((0, 3), dtype=np.int64)
    while pool.shape[0] < wanted:
        more = draw(rng.integers(0, E, size=2 * wanted))
        pool = np.concatenate([pool, more])
        _, index = np.unique(keys(pool), return_index=True)
        pool = pool[np.sort(index)]                 # distinct, in draw order
        pool = pool[~np.isin(keys(pool), keys(first))]
    pool = pool[:wanted]
    n_train = sizes["train"] - E
    splits = {
        "train": np.concatenate([first, pool[:n_train]]),
        "valid": pool[n_train:n_train + sizes["valid"]],
        "test": pool[n_train + sizes["valid"]:],
    }
    return PlantedGraph(cluster, target, splits)
