"""How ranks become metrics: tie handling, filtering, and chance level.

A test triple is ranked against every candidate entity. Ties make the rank
ambiguous, so three definitions exist: optimistic (best position in the tie
block), pessimistic (worst), realistic (their mean). Filtering removes other
known-true triples from the candidate set before ranking.
"""

from pathlib import Path

import numpy as np

from kgembed.datasets import TripleStore
from kgembed.evaluation import compute_ranks, rank_from_scores
from kgembed.models import InteractionSpec, build_interaction, init_parameters

DATA = Path(__file__).resolve().parents[1] / "data"

# --- 1. one ranking, three answers ------------------------------------------

true_score = 5.0
candidates = np.array([7.0, 5.0, 5.0, 5.0, 1.0])
o, p, r = rank_from_scores(true_score, candidates)
print("true score 5.0 vs candidates", candidates.tolist())
print(f"optimistic {o}, pessimistic {p}, realistic {r} "
      f"(one candidate above, three tied)")

# --- 2. an untrained model ranks at chance ----------------------------------

store = TripleStore.from_directory(DATA / "nations")
spec = InteractionSpec(kind="distmult", num_entities=store.num_entities,
                       num_relations=store.num_relations, d_e=32)
model = build_interaction(spec)

amrs = []
for seed in range(5):
    result = compute_ranks(model, init_parameters(model, seed), store,
                           split="test", filtered=False)
    amrs.append(result.get("amr"))
print(f"\nuntrained adjusted mean rank over 5 seeds: {np.mean(amrs):.3f} "
      f"(1.0 means exactly chance)")

# --- 3. filtering can only improve the measured ranks -----------------------

params = init_parameters(model, 0)
# one pass scores each chunk of test triples once and ranks it both ways
raw, flt = compute_ranks(model, params, store, split="test", filtered=(False, True))
print(f"\nunfiltered mr {raw.get('mr'):.2f} vs filtered mr {flt.get('mr'):.2f}")
print(f"candidate sets shrink: {int(raw.sides['tail'].candidates.sum())} -> "
      f"{int(flt.sides['tail'].candidates.sum())} total tail candidates")

# --- 4. metrics come per side and per definition -----------------------------

print("\nside    definition   mr      hits@10")
for side in ("head", "tail", "both"):
    for definition in ("optimistic", "pessimistic", "realistic"):
        m = flt.metrics()[side][definition]
        print(f"{side:7s} {definition:12s} {m['mr']:7.2f} {m['hits_at_10']:.4f}")
print("(random float scores almost never tie, so the three definitions",
      "coincide here; integer or quantized scores pull them apart)")
