"""Loading triple stores, relation statistics, and inverse augmentation."""

from pathlib import Path

import numpy as np

from kgembed.datasets import TripleStore, add_inverse_relations, relation_stats

DATA = Path(__file__).resolve().parents[1] / "data"

# --- 1. a store is three splits over one shared vocabulary -----------------

store = TripleStore.from_directory(DATA / "kinships")
print(f"kinships: {store.num_entities} entities, {store.num_relations} relations")
for split in ("train", "valid", "test"):
    print(f"  {split}: {store.num_triples(split)} triples")

# --- 2. ids follow first appearance across train, valid, test --------------

by_id = sorted(store.entity_to_id, key=store.entity_to_id.get)[:3]
print("\nentities 0, 1, 2:", by_id, "(order of first appearance)")

# --- 3. tails-per-head / heads-per-tail drive Bernoulli sampling -----------

tph, hpt = relation_stats(store)
r_names = {i: name for name, i in store.relation_to_id.items()}
skew = np.argmax(tph / (tph + hpt))
print(f"\nmost head-corruptible relation: {r_names[int(skew)]} "
      f"(tph {tph[skew]:.2f}, hpt {hpt[skew]:.2f})")

# --- 4. inverse augmentation doubles the relation vocabulary ---------------

aug = add_inverse_relations(store)
print(f"\naugmented: {aug.num_relations} relations "
      f"({aug.num_base_relations} base), train grows "
      f"{store.num_triples('train')} -> {aug.num_triples('train')}")
h, r, t = (int(v) for v in store.triples["train"][0])
print("triple", (h, r, t), "gains inverse", (t, r + store.num_relations, h))

# --- 5. the filter index answers "which completions are known true" --------

fi = store.filter_index()  # built once per store and split set, then reused
h, r, t = (int(v) for v in store.triples["test"][0])
known = fi.completions("tail", [h], [r])[1]
print(f"\ntest triple ({h}, {r}, {t}): the filtered setting drops the "
      f"{len(known)} completion(s) already known to be true from its candidates")
