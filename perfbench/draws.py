"""Seeded input-random draws: subsemigroups of pt:4 as interchange JSON.

    python3 perfbench/draws.py SEED DIR

writes one `<label>.json` per input into DIR and prints the list of
[label, is_mutant] pairs as JSON.  The benchmark runs this in its own process:
on Linux a spawned child's peak RSS counts the parent's peak, so the process
that spawns the timed operations must not hold the tables built here.
"""

import json
import os
import random
import sys

import numpy as np

# Six draws of one size, each with a similar share of invertible elements (the
# rank of the radical elimination), so a run's work moves little with the seed.
# The exact elimination's cost still varies by about a quarter between draws of
# one size, and more for larger draws; six alike average that out, where in a
# spread of sizes the largest draw would dominate.
DRAWS = 6
SIZE = (57, 63)
INVERTIBLE_SHARE = (0.30, 0.42)
PT_POINTS = 4
UNDEF = PT_POINTS


class PartialMaps:
    """pt:4 as integer codes with its product, dom-identity and image-identity.

    A partial function f on 4 points is coded as sum of f[x] * 5**x, with
    image 4 meaning undefined; maps compose left to right, as in semicat's zoo.
    """

    def __init__(self):
        size = (PT_POINTS + 1) ** PT_POINTS
        digits = np.arange(size)[:, None] // (PT_POINTS + 1) ** np.arange(PT_POINTS) % (PT_POINTS + 1)
        images = np.hstack([digits, np.full((size, 1), UNDEF)])   # undefined maps to undefined
        weights = (PT_POINTS + 1) ** np.arange(PT_POINTS)
        # product[f][g] applies f, then g
        self.product = (images[:, digits] @ weights).T.tolist()
        points = np.arange(PT_POINTS)
        defined = digits != UNDEF
        self.dom_id = (np.where(defined, points, UNDEF) @ weights).tolist()
        in_image = (digits[:, :, None] == points).any(axis=1)
        self.im_id = (np.where(in_image, points, UNDEF) @ weights).tolist()
        self.size = size

    def closure(self, gens, limit):
        """Close under product, dom- and image-identity; None past limit elements."""
        mul, elems, frontier = self.product, [], list(dict.fromkeys(gens))
        seen = set(frontier)
        while frontier:
            f = frontier.pop()
            elems.append(f)
            row = mul[f]
            for g in [self.dom_id[f], self.im_id[f], *(row[h] for h in elems),
                      *(mul[h][f] for h in elems)]:
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
            if len(seen) > limit:
                return None
        return sorted(elems)

    def invertible_count(self, elems):
        """Elements a with some b in the subset: ab = a+ and ba = a*."""
        mul = self.product
        return sum(
            any(mul[a][b] == self.dom_id[a] and mul[b][a] == self.im_id[a] for b in elems)
            for a in elems
        )

    def draw(self, rng, lo, hi):
        """Subsemigroup generated by 2-3 random maps, with lo..hi elements and
        a share of invertible elements within INVERTIBLE_SHARE."""
        while True:
            gens = [rng.randrange(self.size) for _ in range(rng.choice((2, 3)))]
            elems = self.closure(gens, hi)
            if elems is None or len(elems) < lo:
                continue
            share = self.invertible_count(elems) / len(elems)
            if INVERTIBLE_SHARE[0] <= share <= INVERTIBLE_SHARE[1]:
                return elems

    def interchange(self, elems):
        index = {f: i for i, f in enumerate(elems)}
        table = [[index[self.product[f][g]] for g in elems] for f in elems]
        E = [i for i, f in enumerate(elems) if self.dom_id[f] == f]
        return {"n": len(elems), "table": table, "E": E}


def mutant(obj, rng):
    """Drop one maximal element of E; the rest is still a subsemilattice."""
    table, E = obj["table"], obj["E"]
    maximal = [e for e in E if all(table[e][f] != e or f == e for f in E)]
    drop = rng.choice(maximal)
    return {**obj, "E": [e for e in E if e != drop]}


def random_inputs(seed):
    """The seeded draws as interchange objects: [(name, obj, is_mutant), ...]."""
    rng, pt4 = random.Random(seed), PartialMaps()
    out = []
    for i in range(DRAWS):
        obj = pt4.interchange(pt4.draw(rng, *SIZE))
        out.append((f"draw{i}", obj, False))
        out.append((f"mutant{i}", mutant(obj, rng), True))
    return out


def write_inputs(seed, directory):
    manifest = []
    for label, obj, is_mutant in random_inputs(seed):
        with open(os.path.join(directory, label + ".json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        manifest.append([label, is_mutant])
    return manifest


if __name__ == "__main__":
    print(json.dumps(write_inputs(int(sys.argv[1]), sys.argv[2])))
