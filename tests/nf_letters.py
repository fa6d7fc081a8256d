"""Per-letter cost of the graph-product normal form, against an append/pop floor.

Run from the repository root (stdlib only; not a pytest module):

    PYTHONPATH=src python tests/nf_letters.py

For free3 (three generators, no commuting pair) and path4 (a-b-c-d, each
neighbour pair commuting) it draws 50,000 words of 0-24 letters from
random.Random(1) and prints, in ns per letter and best of 3 passes:

- normal_form: coxeter_ra.normal_form on each word, letters validated as
  the kernel reads them, one CoxElement per word;
- right_multiply: the kernel alone on each word's syllables (index, 1),
  listed before the clock starts, into fresh lists, with no validation
  and no element;
- append/pop: the floor, one list per word that pops its last letter when
  the next one equals it and appends the next one otherwise (free
  reduction), then a tuple, as normal_form's result holds one.

normal_form over append/pop is the gap to the floor.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import repeat

from tdlc import coxeter_ra as cox

WORDS = 50_000
MAX_LETTERS = 24
PASSES = 3
SYSTEMS = {
    "free3": (("a", "b", "c"), ()),
    "path4": (("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"))),
}


def words_for(rank: int) -> list[tuple[int, ...]]:
    rng = random.Random(1)
    letters = range(rank)
    return [tuple(rng.choices(letters, k=rng.randint(0, MAX_LETTERS))) for _ in range(WORDS)]


def run_normal_form(system, words):
    normal_form = cox.normal_form
    for w in words:
        normal_form(system, w)


def run_kernel(system, syllable_words):
    kernel, comm, order = cox.right_multiply, system._comm, system._order
    for syllables in syllable_words:
        kernel(comm, order, [], [], syllables)


def run_floor(system, words):
    for w in words:
        out = []
        for s in w:
            if out and out[-1] == s:
                out.pop()
            else:
                out.append(s)
        tuple(out)


def best_ns_per_letter(fn, system, words, letters: int) -> float:
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        fn(system, words)
        best = min(best, time.perf_counter() - start)
    return best / letters * 1e9


def main() -> int:
    print("| system | normal_form | right_multiply alone | append/pop floor | normal_form / floor |")
    print("| --- | --- | --- | --- | --- |")
    for name, (gens, pairs) in SYSTEMS.items():
        system = cox.RACoxeterSystem.create(gens, pairs)
        words = words_for(len(gens))
        letters = sum(map(len, words))
        syllable_words = [list(zip(w, repeat(1))) for w in words]
        nf, kernel, floor = (best_ns_per_letter(fn, system, data, letters) for fn, data in (
            (run_normal_form, words), (run_kernel, syllable_words), (run_floor, words)))
        print(f"| {name} | {nf:.0f} ns/letter | {kernel:.0f} ns/letter | {floor:.0f} ns/letter | {nf / floor:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
