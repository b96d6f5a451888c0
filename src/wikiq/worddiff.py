"""Move-aware word-level edit distance.

Distance between two token sequences is max(I, D) - min(I, D)/2 + M where
I is inserted words, D deleted words, and M sums, per matched block, the
block length times the fraction of the (matched) document the block moved
across.  Blocks come from iterated greedy longest-common-substring
matching (Tichy 1984): each step takes the longest common run of tokens
still unmatched on both sides, ties to the smallest (a_start, b_start), so
each token matches at most once per side.

`match_blocks` finds the candidate runs once instead of rescanning after
every block:

1. Every maximal common run of at least K tokens starts at a shared K-gram
   whose preceding tokens differ; it is extended by slice compares and put
   on a heap. Taking the runs from the heap (see below) leaves no free
   common run of K tokens.
2. The free runs left are shorter than K = 3. Two passes over the free
   positions take them, in time linear in those positions and in the
   first pass's hits, which it sorts. Both visit only the free b positions
   whose token is free in a: no other free b position can match.

Phase 1 walks b once and looks up b's K-gram only at the positions j that
can seed a run; skipping any other position leaves the heap as it was:

- A K-gram holding a token absent from a has no hit. If b[j + K - 1] is
  absent, each of the K-grams at j .. j + K - 1 holds it, so j jumps by K.
- Let b[cj:cend] == a[ci:ci + cend - cj] be a run already found. For
  cj < j <= cend - K, b's K-gram at j equals a's at i = ci + j - cj. If
  that K-gram occurs once in a, (i, j) is its only hit, and it is no seed,
  since a[i - 1] == b[j - 1]. So j jumps to the first position inside the
  run whose aligned K-gram repeats in a (where another run may start), or
  past cend - K.

What phase 1 needs of a depends on a alone: its K-gram index, the `once`
marks and its token set. The index maps a K-gram that occurs once in a to
its start, and one that repeats to the ascending list of its starts, each
listed once, so no run is pushed twice from one seed. A `Version` builds
it the first time it is the a side and keeps it, so a version diffed
against many others is indexed once.

The heap pops runs longest first, ties to the smallest (a_start, b_start).
A run that pops with all its positions still free is taken. One that lost
positions pushes back its maximal free pieces of at least K tokens, each
shorter than the run. Every free common run of K tokens or more lies in a
run still on the heap or in the one just popped, and the runs still on
the heap are at most as long as it and come after it. So a run taken is
the longest free run, ties to the smallest (a_start, b_start): the run
the greedy takes next. Taking blocks only removes free positions, so the
result is the greedy's block list, in the greedy's order. Phase 2 needs a
free position on both sides, so when the blocks cover a or b it is
skipped.

Phase 2 takes the free runs of 2 and of 1 token that the heap would pop
if it held every free common run, in the order it would pop them, without
building it:

- Length 2. No free common run of 3 tokens is left, so a free common
  bigram is a maximal free run, and each maximal free run of 2 tokens is
  one. The free bigrams of a go in a dict, each free bigram of b is looked
  up in it, and the hits are taken in (a_start, b_start) order, each only
  if its four positions are still free. A hit that lost positions would
  push pieces of 1 token, which the second pass covers.
- Length 1. A pair (i, j) with a[i] == b[j], both still free after the
  first pass, lay in a maximal free run of 1 or 2 tokens; if of 2, that
  run was not taken, so the pair is one of its pieces. So the heap's runs
  of 1 token hold every such pair (and others no longer free, which it
  skips), popped in (a_start, b_start) order.
  Taking (i, j) takes a[i], so each free a position, ascending, takes the
  first still-free b position that holds its token: the head of its
  token's ascending queue of free b positions.

The moved mass M is 0.0, with no ranks built, when the blocks in order of
a_start are also in order of b_start: each block then has the same rank on
both sides, so its two centers are the same float and its term is 0.0.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress, count, pairwise
from operator import itemgetter
from typing import NamedTuple, Sequence


# Phase 1 seeds the runs of at least K tokens from shared K-grams. Phase 2
# relies on K = 3: it takes only free runs of 2 tokens and of 1.
K = 3
# A side's K-gram index (K-gram -> its start, an int if it occurs once, else
# the ascending list of its starts), its `once` marks (its K-gram at i occurs
# nowhere else in it) and its set of tokens.
Grams = tuple[dict[tuple[str, ...], int | list[int]], bytes, frozenset[str]]


class Block(NamedTuple):
    a_start: int
    b_start: int
    length: int


class Version(tuple):
    """A version's tokens, with what `match_blocks` needs of it as the a
    side, built the first time it is asked for. A tuple, so the tokens
    cannot change under the index built from them."""

    @cached_property
    def grams(self) -> Grams:
        return _grams(self)


def _grams(a: Version) -> Grams:
    grams = list(zip(*(a[s:] for s in range(K))))
    # Each K-gram maps to its last start; most versions repeat none.
    index: dict[tuple[str, ...], int | list[int]] = dict(zip(grams, count()))
    once = bytearray(b"\x01") * len(grams) + bytes(len(a) - len(grams))
    if len(index) < len(grams):
        repeats: dict[tuple[str, ...], list[int]] = {}
        for i, gram in enumerate(grams):
            if index[gram] != i:
                repeats.setdefault(gram, []).append(i)
        for gram, starts in repeats.items():
            starts.append(index[gram])
            index[gram] = starts
            for i in starts:
                once[i] = 0
    return index, bytes(once), frozenset(a)


class DiffBreakdown(NamedTuple):
    inserted: int
    deleted: int
    moved_mass: float
    distance: float


def _common_run(a: Sequence[str], b: Sequence[str], i: int, j: int) -> int:
    """Length of the common run a[i:], b[j:], found by galloping slice
    compares from a 16-element window and then halving the step. When the
    next window would pass the end, one compare up to the end comes first."""
    limit = min(len(a) - i, len(b) - j)
    n, step = 0, 16
    while step <= limit - n and a[i + n:i + n + step] == b[j + n:j + n + step]:
        n += step
        step *= 2
    if step > limit - n and a[i + n:i + limit] == b[j + n:j + limit]:
        return limit
    while step > 1:
        step //= 2
        if step <= limit - n and a[i + n:i + n + step] == b[j + n:j + n + step]:
            n += step
    return n


def _common_tail(a: Sequence[str], b: Sequence[str], head: int) -> int:
    """Length of the common run that ends a[head:] and b[head:]: the run
    `_common_run` finds, galloping backwards from the ends."""
    la, lb = len(a), len(b)
    limit = min(la, lb) - head
    n, step = 0, 16
    while step <= limit - n and a[la - n - step:la - n] == b[lb - n - step:lb - n]:
        n += step
        step *= 2
    if step > limit - n and a[la - limit:la - n] == b[lb - limit:lb - n]:
        return limit
    while step > 1:
        step //= 2
        if step <= limit - n and a[la - n - step:la - n] == b[lb - n - step:lb - n]:
            n += step
    return n


def match_blocks(a: Sequence[str], b: Sequence[str]) -> list[Block]:
    """Greedy iterated longest-common-substring block alignment.

    Returns the blocks in the order the greedy takes them.
    """
    if not a or not b:
        return []
    # The slice compares need one sequence type: a tuple slice never equals
    # a list slice.
    if not isinstance(a, Version):
        a = Version(a)
    if not isinstance(b, tuple):
        b = tuple(b)
    # Phase 1: every maximal common run of at least K tokens starts at a
    # shared K-gram whose preceding tokens differ.
    index, once, tokens = a.grams
    # (-length, a_start, b_start)
    runs: list[tuple[int, int, int]] = []
    # b[cj:cend] == a[ci:ci + cend - cj]: the run found so far that reaches
    # furthest into b.
    ci = cj = cend = 0
    j, stop = 0, len(b) - K + 1
    while j < stop:
        if b[j + K - 1] not in tokens:
            # Each K-gram from j to j + K - 1 holds that token.
            j += K
            continue
        if cj < j <= cend - K:
            # Jump to the first K-gram inside the run that repeats in a.
            i = once.find(0, ci + j - cj, ci + cend - K - cj + 1)
            if i < 0:
                j = cend - K + 1
                continue
            j = cj + i - ci
        hits = index.get(b[j:j + K], ())
        for i in (hits,) if isinstance(hits, int) else hits:
            if i and j and a[i - 1] == b[j - 1]:
                continue
            length = K + _common_run(a, b, i + K, j + K)
            runs.append((-length, i, j))
            if j + length > cend:
                ci, cj, cend = i, j, j + length
        j += 1
    # Take the runs longest first, ties to the smallest (a_start, b_start).
    heapify(runs)
    a_free = bytearray(b"\x01") * len(a)
    b_free = bytearray(b"\x01") * len(b)
    blocks: list[Block] = []
    while runs:
        n, i, j = heappop(runs)
        length = -n
        if a_free.find(0, i, i + length) < 0 and b_free.find(0, j, j + length) < 0:
            # `tuple.__new__` skips the NamedTuple's Python-level `__new__`.
            blocks.append(tuple.__new__(Block, (i, j, length)))
            a_free[i:i + length] = bytes(length)
            b_free[j:j + length] = bytes(length)
            continue
        # It lost positions: its maximal free pieces of K tokens or more
        # go back on the heap.
        t = 0
        while t < length:
            while t < length and not (a_free[i + t] and b_free[j + t]):
                t += 1
            start = t
            while t < length and a_free[i + t] and b_free[j + t]:
                t += 1
            if t - start >= K:
                heappush(runs, (start - t, i + start, j + start))
    # Phase 2 needs a free position on both sides.
    if a_free.find(1) < 0 or b_free.find(1) < 0:
        return blocks
    # Phase 2: the free runs left are shorter than K = 3.
    free_i = list(compress(range(len(a)), a_free))
    left = set(map(a.__getitem__, free_i))
    # Only the free b positions whose token is free in a can match.
    free_j = list(compress(compress(range(len(b)), b_free),
                           map(left.__contains__, compress(b, b_free))))
    # Length-2 runs: the free common bigrams, by (a_start, b_start).
    if len(free_i) > 1 and len(free_j) > 1:
        bigrams: dict[tuple[str, str], list[int]] = {}
        for i, next_i in pairwise(free_i):
            if next_i == i + 1:
                bigrams.setdefault((a[i], a[next_i]), []).append(i)
        pairs = [(i, j) for j, next_j in pairwise(free_j) if next_j == j + 1
                 for i in bigrams.get((b[j], b[next_j]), ())]
        pairs.sort()
        for i, j in pairs:
            if a_free[i] and a_free[i + 1] and b_free[j] and b_free[j + 1]:
                blocks.append(Block(i, j, 2))
                a_free[i] = a_free[i + 1] = b_free[j] = b_free[j + 1] = 0
    # Length-1 runs: each free a position, ascending, takes the first free
    # b position that holds its token. A token's queue lists its free b
    # positions descending, so `pop` gives the first.
    queues: dict[str, list[int]] = {}
    for j in reversed(free_j):
        if b_free[j]:
            queues.setdefault(b[j], []).append(j)
    for i in free_i:
        if a_free[i]:
            queue = queues.get(a[i])
            if queue:
                blocks.append(Block(i, queue.pop(), 1))
    return blocks


def _moved_mass(blocks: list[Block]) -> float:
    """Sum of block length x normalized center shift.

    Positions are ranks within the matched content only, so blocks that keep
    their place relative to the other matched text contribute zero even when
    surrounding text is inserted or deleted (a pure insertion has M = 0).
    """
    # No two blocks share an a_start, so this is the order by a_start.
    by_a = sorted(blocks)
    if all(x.b_start < y.b_start for x, y in pairwise(by_a)):
        # Each block has the same rank on both sides: every shift is 0.0.
        return 0.0
    total = sum(bl.length for bl in blocks)
    a_rank: dict[int, int] = {}
    b_rank: dict[int, int] = {}
    rank = 0
    for bl in by_a:
        a_rank[bl.a_start] = rank
        rank += bl.length
    rank = 0
    for bl in sorted(blocks, key=lambda bl: bl.b_start):
        b_rank[bl.b_start] = rank
        rank += bl.length
    mass = 0.0
    for bl in blocks:
        center_a = (a_rank[bl.a_start] + bl.length / 2.0) / total
        center_b = (b_rank[bl.b_start] + bl.length / 2.0) / total
        mass += bl.length * abs(center_a - center_b)
    return mass


def edit_distance(a: Sequence[str], b: Sequence[str]) -> DiffBreakdown:
    """Move-aware edit distance with its I / D / M components.

    The pair is matched in a canonical order so that the result is exactly
    symmetric (greedy tie-breaks would otherwise depend on argument order):
    the shorter side first, and between equal lengths the smaller token
    tuple. So the distance can depend on how the tokens are spelled:
    `baaabbb` vs `bbbaaba` gives 18/7 (2.571), but the same pair with a and
    b swapped, `abbbaaa` vs `aaabbab`, gives 24/7 (3.429).
    """
    swapped = len(a) > len(b) or (len(a) == len(b) and tuple(a) > tuple(b))
    if swapped:
        a, b = b, a
    blocks = match_blocks(a, b)
    matched = sum(map(itemgetter(2), blocks))
    deleted = len(a) - matched
    inserted = len(b) - matched
    if swapped:
        inserted, deleted = deleted, inserted
    moved = _moved_mass(blocks)
    distance = max(inserted, deleted) - 0.5 * min(inserted, deleted) + moved
    return tuple.__new__(DiffBreakdown, (inserted, deleted, moved, distance))


def triangle_guard(d_ij: float, d_jk: float, d_ik: float) -> float:
    """Clamp d_ik so the triple satisfies the triangle inequality."""
    if d_ij < 0 or d_jk < 0 or d_ik < 0:
        raise ValueError("negative edit distance")
    return min(d_ik, d_ij + d_jk)
