import heapq
import importlib.util
import io
import itertools
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from wikiq import worddiff
from wikiq.ingest import Namespace, parse_dump
from wikiq.longevity import build_contributions
from wikiq.synth import SynthSpec, generate
from wikiq.worddiff import (K, Block, DiffBreakdown, Version, _common_run, _common_tail,
                            edit_distance, match_blocks, triangle_guard)

tokens = st.lists(st.sampled_from("abcdefgh"), max_size=30)


def _longest_common_block(a, b, a_free, b_free, occ):
    """Longest common substring over still-unmatched positions.

    Ties break by smallest a offset, then smallest b offset.
    """
    best_len = 0
    best_a = best_b = 0
    prev: dict[int, int] = {}
    for j, tok in enumerate(b):
        if not b_free[j]:
            prev = {}
            continue
        cur: dict[int, int] = {}
        for k in occ.get(tok, ()):
            if not a_free[k]:
                continue
            run = prev.get(k - 1, 0) + 1
            cur[k] = run
            a_start = k - run + 1
            b_start = j - run + 1
            if run > best_len or (
                run == best_len and (a_start, b_start) < (best_a, best_b)
            ):
                best_len = run
                best_a = a_start
                best_b = b_start
        prev = cur
    if best_len == 0:
        return None
    return Block(best_a, best_b, best_len)


def reference_match_blocks(a, b):
    """Greedy iterated longest-common-substring block alignment, rescanning
    every free token pair after each block it takes."""
    a_free = [True] * len(a)
    b_free = [True] * len(b)
    occ: dict[str, list[int]] = {}
    for i, tok in enumerate(a):
        occ.setdefault(tok, []).append(i)
    blocks: list[Block] = []
    while True:
        block = _longest_common_block(a, b, a_free, b_free, occ)
        if block is None:
            break
        blocks.append(block)
        for i in range(block.a_start, block.a_start + block.length):
            a_free[i] = False
        for j in range(block.b_start, block.b_start + block.length):
            b_free[j] = False
    return blocks


def reference_phase_two(a, b, blocks):
    """`blocks`, the blocks phase 1 took, followed by the short free runs
    found by scanning every pair of free equal tokens: each maximal free
    common run is bucketed by its length, and the buckets are taken longest
    first, ties to the smallest (a_start, b_start). A run that lost
    positions goes back as its maximal free pieces. Unlike phase 2 it
    assumes no bound on the runs' lengths."""
    a, b = tuple(a), tuple(b)
    a_free = bytearray(b"\x01") * len(a)
    b_free = bytearray(b"\x01") * len(b)
    for bl in blocks:
        a_free[bl.a_start:bl.a_start + bl.length] = bytes(bl.length)
        b_free[bl.b_start:bl.b_start + bl.length] = bytes(bl.length)
    blocks = list(blocks)
    occ: dict[str, list[int]] = {}
    for i in itertools.compress(range(len(a)), a_free):
        occ.setdefault(a[i], []).append(i)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for j in itertools.compress(range(len(b)), b_free):
        for i in occ.get(b[j], ()):
            if i and j and a_free[i - 1] and b_free[j - 1] and a[i - 1] == b[j - 1]:
                continue
            n = 1
            while (i + n < len(a) and j + n < len(b) and a_free[i + n]
                   and b_free[j + n] and a[i + n] == b[j + n]):
                n += 1
            buckets.setdefault(n, []).append((i, j))
    while buckets:
        length = max(buckets)
        starts = buckets.pop(length)
        starts.sort()
        for i, j in starts:
            if all(a_free[i:i + length]) and all(b_free[j:j + length]):
                blocks.append(Block(i, j, length))
                a_free[i:i + length] = bytes(length)
                b_free[j:j + length] = bytes(length)
                continue
            t = 0
            while t < length:
                while t < length and not (a_free[i + t] and b_free[j + t]):
                    t += 1
                start = t
                while t < length and a_free[i + t] and b_free[j + t]:
                    t += 1
                if t > start:
                    buckets.setdefault(t - start, []).append((i + start, j + start))
    return blocks


def phase_one_then_reference(a, b):
    """`match_blocks`'s phase 1, whose blocks are the ones of at least K
    tokens, then `reference_phase_two`."""
    return reference_phase_two(
        a, b, [bl for bl in match_blocks(a, b) if bl.length >= K])


def reference_moved_mass(blocks):
    """Sum of block length x normalized center shift, over ranks within
    the matched content, ranking every block list in full."""
    total = sum(bl.length for bl in blocks)
    if total == 0:
        return 0.0
    a_rank: dict[int, int] = {}
    b_rank: dict[int, int] = {}
    rank = 0
    for bl in sorted(blocks, key=lambda bl: bl.a_start):
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


def assert_moved_mass_bits(a, b):
    """The moved mass and the distance carry the reference moved mass's
    bits (`.hex()` tells 0.0 from -0.0), in both argument orders."""
    for x, y in ((a, b), (b, a)):
        with mock.patch.object(worddiff, "_moved_mass", reference_moved_mass):
            expected = edit_distance(x, y)
        got = edit_distance(x, y)
        assert got.moved_mass.hex() == expected.moved_mass.hex()
        assert got.distance.hex() == expected.distance.hex()


def brute_longest_common_substring(a, b):
    """Exhaustive longest-common-substring oracle (first match wins)."""
    best = (0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            length = 0
            while (i + length < len(a) and j + length < len(b)
                   and a[i + length] == b[j + length]):
                length += 1
            if length > best[2]:
                best = (i, j, length)
    return best


def test_identity_block():
    blocks = match_blocks(["x", "y", "z"], ["x", "y", "z"])
    assert blocks == [Block(0, 0, 3)]


def test_swap_gives_two_unit_blocks():
    blocks = match_blocks(["x", "y"], ["y", "x"])
    assert sorted((b.a_start, b.b_start, b.length) for b in blocks) == [
        (0, 1, 1), (1, 0, 1)
    ]


def test_rotated_blocks_match_exhaustive_oracle():
    a = list("abcde")
    b = list("deabc")
    i, j, length = brute_longest_common_substring(a, b)
    assert (i, j, length) == (0, 2, 3)
    blocks = match_blocks(a, b)
    assert blocks[0] == Block(0, 2, 3)
    assert blocks[1] == Block(3, 0, 2)


def test_pure_insertion():
    d = edit_distance(list("wxy"), list("wxyuv"))
    assert d == DiffBreakdown(inserted=2, deleted=0, moved_mass=0.0, distance=2.0)


def test_disjoint_replacement():
    d = edit_distance(list("pq"), list("rs"))
    assert d.inserted == 2 and d.deleted == 2 and d.moved_mass == 0.0
    assert d.distance == 1.0


def test_block_move_centers():
    # [a,b] moved to the end of a ten-token document; centers computed by
    # hand over matched ranks: 2*|0.1-0.9| + 8*|0.6-0.4| = 3.2
    a, b = list("abcdefghij"), list("cdefghijab")
    d = edit_distance(a, b)
    assert d.inserted == 0 and d.deleted == 0
    assert d.moved_mass == pytest.approx(3.2)
    assert d.distance == pytest.approx(3.2)
    assert d.moved_mass == reference_moved_mass(match_blocks(a, b))
    assert d.distance == reference_moved_mass(match_blocks(a, b))


def test_both_empty():
    assert edit_distance([], []) == DiffBreakdown(0, 0, 0.0, 0.0)


@given(tokens, tokens)
def test_symmetry(a, b):
    d1 = edit_distance(a, b)
    d2 = edit_distance(b, a)
    assert d1.distance == d2.distance
    assert d1.inserted == d2.deleted and d1.deleted == d2.inserted
    assert d1.moved_mass == d2.moved_mass


@given(tokens)
def test_identity_distance(a):
    assert edit_distance(a, a).distance == 0.0


@given(tokens, tokens)
def test_positivity(a, b):
    d = edit_distance(a, b)
    if a == b:
        assert d.distance == 0.0
    else:
        assert d.distance > 0.0


@given(tokens, st.integers(min_value=1, max_value=5))
def test_insertion_monotonicity(a, k):
    # appending k fresh tokens (outside the fuzz alphabet) adds exactly k
    fresh = [f"z{i}" for i in range(k)]
    base = edit_distance(a, a).distance
    extended = edit_distance(a, a + fresh).distance
    assert extended == base + k


@given(tokens, tokens)
def test_deterministic(a, b):
    assert edit_distance(a, b) == edit_distance(a, b)


@given(tokens, tokens, tokens)
@settings(max_examples=200)
def test_triangle_after_guard(a, b, c):
    d_ij = edit_distance(a, b).distance
    d_jk = edit_distance(b, c).distance
    d_ik = triangle_guard(d_ij, d_jk, edit_distance(a, c).distance)
    assert d_ik <= d_ij + d_jk + 1e-12


def test_triangle_guard_values():
    assert triangle_guard(3, 4, 10) == 7
    assert triangle_guard(3, 4, 5) == 5
    assert triangle_guard(0, 0, 0) == 0
    assert triangle_guard(1, 2, 3) == triangle_guard(1, 2, triangle_guard(1, 2, 3))


def test_triangle_guard_rejects_negative():
    with pytest.raises(ValueError):
        triangle_guard(-1, 0, 0)


def test_every_token_matched_at_most_once():
    a = list("aabbaabb")
    b = list("bbaabbaa")
    blocks = match_blocks(a, b)
    seen_a = list(itertools.chain.from_iterable(
        range(bl.a_start, bl.a_start + bl.length) for bl in blocks))
    seen_b = list(itertools.chain.from_iterable(
        range(bl.b_start, bl.b_start + bl.length) for bl in blocks))
    assert len(seen_a) == len(set(seen_a))
    assert len(seen_b) == len(set(seen_b))
    for bl in blocks:
        assert a[bl.a_start:bl.a_start + bl.length] == b[bl.b_start:bl.b_start + bl.length]


def pushes_a_piece(a, b):
    """Whether `match_blocks(a, b)` pops a phase-1 run that lost positions
    and pushes a free piece of it back on the heap."""
    with mock.patch.object(worddiff, "heappush", wraps=heapq.heappush) as push:
        blocks = match_blocks(a, b)
    return push.called, blocks


def runs_event(a, b):
    """Label a hypothesis example by whether a phase-1 run of
    `match_blocks(a, b)` pushes a piece back on the heap."""
    event("a run pushes a piece" if pushes_a_piece(a, b)[0] else "no run pushes a piece")


def assert_same_as_reference(a, b):
    assert match_blocks(a, b) == reference_match_blocks(a, b)
    assert match_blocks(b, a) == reference_match_blocks(b, a)
    with mock.patch.object(worddiff, "match_blocks", reference_match_blocks):
        expected = edit_distance(a, b)
    assert edit_distance(a, b) == expected


@st.composite
def small_alphabet_pairs(draw):
    alphabet = "abcdefgh"[:draw(st.integers(min_value=1, max_value=8))]
    side = st.lists(st.sampled_from(alphabet), max_size=60)
    return draw(side), draw(side)


@given(small_alphabet_pairs())
@settings(max_examples=500)
def test_matches_reference_on_small_alphabets(pair):
    assert_same_as_reference(*pair)


@given(small_alphabet_pairs())
@settings(max_examples=500)
def test_moved_mass_matches_reference_bits(pair):
    a, b = pair
    blocks = match_blocks(a, b)
    kept = (sorted(blocks, key=lambda bl: bl.a_start)
            == sorted(blocks, key=lambda bl: bl.b_start))
    event("blocks keep their order" if kept else "blocks cross")
    assert_moved_mass_bits(a, b)


@st.composite
def runs_around_k(draw):
    """Runs of K-1, K and K+1 tokens, reordered and joined by short gaps."""
    lengths = draw(st.lists(st.sampled_from([K - 1, K, K + 1]),
                            min_size=1, max_size=8))
    runs = [draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
            for n in lengths]
    order = draw(st.permutations(range(len(runs))))
    gap = st.lists(st.sampled_from("abx"), max_size=2)
    a = [tok for run in runs for tok in run + draw(gap)]
    b = [tok for k in order for tok in runs[k] + draw(gap)]
    return a, b


@given(runs_around_k())
@settings(max_examples=300)
def test_matches_reference_on_runs_around_k(pair):
    assert_same_as_reference(*pair)


@st.composite
def stretches_split_by_absent_tokens(draw):
    """b over a larger alphabet than a: tokens a lacks cut b into stretches
    of K-1, K and K+1 tokens, each a slice of a or drawn from a's alphabet."""
    a = draw(st.lists(st.sampled_from("abc"), max_size=40))
    b = draw(st.lists(st.sampled_from("xyz"), max_size=2))
    for n in draw(st.lists(st.sampled_from([K - 1, K, K + 1]), max_size=8)):
        if len(a) >= n and draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=len(a) - n))
            b += a[start:start + n]
        else:
            b += draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
        b += draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=2))
    return a, b


@given(stretches_split_by_absent_tokens())
@settings(max_examples=300)
def test_matches_reference_on_stretches_split_by_absent_tokens(pair):
    assert_same_as_reference(*pair)


@st.composite
def duplicated_spans(draw):
    """a holds a span twice, the second copy from an offset on, so K-grams
    inside the run b shares with the first copy recur in a. b's run ends at
    b's end, at a token a lacks (a stretch's end), or before more of a."""
    tok = st.sampled_from("abcd")
    span = draw(st.lists(tok, min_size=K + 1, max_size=12))
    cut = draw(st.integers(min_value=1, max_value=len(span) - K))
    a = (draw(st.lists(tok, max_size=4)) + span + draw(st.lists(tok, max_size=4))
         + span[cut:] + draw(st.lists(tok, max_size=4)))
    end = draw(st.sampled_from([[], ["x"], ["x", "y", "z"]]))
    b = (draw(st.lists(tok, max_size=3)) + span + end
         + draw(st.lists(tok, max_size=6)))
    return a, b


@given(duplicated_spans())
@settings(max_examples=500)
def test_matches_reference_on_duplicated_spans(pair):
    runs_event(*pair)
    assert_same_as_reference(*pair)


def test_pushed_piece_waits_between_runs_of_its_length():
    # Phase 1 finds (0, 5) and (3, 1) of 4 tokens, (2, 5) and (4, 3) of 3.
    # Taking (0, 5) takes a[3], so (3, 1) pushes its free piece (4, 2) of
    # 3 tokens, which pops after (2, 5) and before (4, 3).
    a, b = list("bababbb"), list("aabbbbaba")
    pushes = []

    def push(heap, run):
        pushes.append((run, sorted(heap)))
        heapq.heappush(heap, run)

    with mock.patch.object(worddiff, "heappush", push):
        blocks = match_blocks(a, b)
    assert pushes == [((-3, 4, 2), [(-3, 2, 5), (-3, 4, 3)])]
    assert blocks == [Block(0, 5, 4), Block(4, 2, 3)]
    assert_same_as_reference(a, b)


@given(st.lists(st.sampled_from("abc"), max_size=K - 1),
       st.lists(st.sampled_from("abcx"), max_size=12))
def test_matches_reference_with_a_side_shorter_than_k(short, other):
    assert_same_as_reference(short, other)


@given(st.lists(st.sampled_from("abcd"), max_size=40),
       st.lists(st.lists(st.sampled_from("abcdx"), max_size=40), max_size=4))
@settings(max_examples=200)
def test_prepared_version_matches_reference_in_either_order(tokens, others):
    # One Version, its index built on first use as the a side, diffed
    # against several sides, plain and prepared, in both orders.
    version = Version(tokens)
    for other in [*others, tokens[:K - 1], [], list(tokens)]:
        for side in (other, Version(other)):
            for a, b in ((version, side), (side, version)):
                expected = reference_match_blocks(list(a), list(b))
                assert match_blocks(a, b) == expected
                assert match_blocks(list(a), list(b)) == expected
            assert edit_distance(version, side) == edit_distance(tokens, other)


@st.composite
def bursts_of_absent_tokens(draw):
    """b cut by bursts of 1 to 2K tokens a lacks. The pieces between them
    hold 0 to 2K - 1 tokens, so bursts sit at the start, the middle and the
    end of b, at every offset mod K, next to runs shorter than K; each piece
    is a slice of a or drawn from a's alphabet."""
    a = draw(st.lists(st.sampled_from("abc"), max_size=30))
    burst = st.lists(st.sampled_from("xyz"), min_size=1, max_size=2 * K)

    def piece():
        n = draw(st.integers(min_value=0, max_value=2 * K - 1))
        if len(a) >= n and draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=len(a) - n))
            return a[start:start + n]
        return draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))

    b = piece()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        b += draw(burst) + piece()
    return a, b


@given(bursts_of_absent_tokens())
@settings(max_examples=500)
def test_matches_reference_on_bursts_of_absent_tokens(pair):
    assert_same_as_reference(*pair)


@st.composite
def fresh_b_with_short_shared_runs(draw):
    """b mostly of tokens a lacks, joined by runs of a's tokens shorter
    than K, so most of the free b positions phase 2 sees hold a token that
    is not free in a. A run of K or more, copied from a, takes some of a's
    tokens in phase 1, so a token of a can be absent from phase 2 too."""
    a = draw(st.lists(st.sampled_from("abcd"), max_size=30))
    fresh = st.lists(st.sampled_from("uvwxyz"), max_size=8)
    b = draw(fresh)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        n = draw(st.integers(min_value=1, max_value=K - 1))
        if len(a) >= K and draw(st.integers(min_value=0, max_value=4)) == 0:
            n = draw(st.integers(min_value=K, max_value=len(a)))
        if len(a) >= n and draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=len(a) - n))
            b += a[start:start + n]
        else:
            b += draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
        b += draw(fresh)
    return a, b


@given(fresh_b_with_short_shared_runs())
@settings(max_examples=500)
def test_matches_reference_on_fresh_b_with_short_shared_runs(pair):
    assert_same_as_reference(*pair)


def brute_grams(text):
    starts: dict[tuple[str, ...], list[int]] = {}
    for i in range(len(text) - K + 1):
        starts.setdefault(tuple(text[i:i + K]), []).append(i)
    return starts


@st.composite
def texts_with_repeated_grams(draw):
    """Distinct tokens, so every K-gram is unique, with spans copied 2 to 5
    times into them; a span may be shorter than K."""
    text = [f"u{i}" for i in range(draw(st.integers(min_value=0, max_value=12)))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        span = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=K + 2))
        for _ in range(draw(st.integers(min_value=2, max_value=5))):
            at = draw(st.integers(min_value=0, max_value=len(text)))
            text[at:at] = span
    return text


@given(st.one_of(texts_with_repeated_grams(),
                 st.lists(st.sampled_from("ab"), max_size=K - 1),
                 st.lists(st.sampled_from("abc"), max_size=20)))
@settings(max_examples=300)
def test_gram_index_matches_brute_force(text):
    index, once, tokens = Version(text).grams
    expected = brute_grams(text)
    assert index.keys() == expected.keys()
    for gram, starts in expected.items():
        if len(starts) == 1:
            assert index[gram] == starts[0] and isinstance(index[gram], int)
        else:
            # Ascending, each start once: a start listed twice would seed
            # the same run twice, which the block lists cannot show.
            assert index[gram] == starts
    assert once == bytes(len(expected.get(tuple(text[i:i + K]), ())) == 1
                         for i in range(len(text)))
    assert once[max(len(text) - K + 1, 0):] == bytes(min(K - 1, len(text)))
    assert tokens == frozenset(text)


def test_token_spelling_moves_the_distance():
    # Equal-length versions are matched in the order of their token tuples,
    # so swapping the spellings of a and b swaps the order the greedy sees
    # and changes the distance.
    for a, b, distance in (("baaabbb", "bbbaaba", 18 / 7),
                           ("abbbaaa", "aaabbab", 24 / 7)):
        assert edit_distance(list(a), list(b)).distance == pytest.approx(distance)
        assert edit_distance(list(b), list(a)).distance == pytest.approx(distance)


def test_matches_reference_on_synth_pipeline_pairs():
    # Every (a, b) pair build_contributions diffs on the synth seed 1 corpus.
    dump, _ = generate(SynthSpec(seed=1))
    pages = [page for page in parse_dump(io.BytesIO(dump.encode()))
             if page.namespace is Namespace.ARTICLE]
    pairs = []

    def record(a, b):
        pairs.append((a, b))
        return match_blocks(a, b)

    with mock.patch.object(worddiff, "match_blocks", record):
        build_contributions(pages)
    assert pairs
    for a, b in pairs:
        assert match_blocks(a, b) == reference_match_blocks(a, b)
        assert_moved_mass_bits(a, b)


def zipf_words(rng, n, vocabulary=2000):
    weights = [1.0 / (rank + 1) for rank in range(vocabulary)]
    return [f"w{r}" for r in rng.choices(range(vocabulary), weights, k=n)]


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=100, max_value=400),
       st.sampled_from(["insert", "delete", "move", "replace"]))
@settings(max_examples=60, deadline=None)
def test_matches_reference_on_zipf_edits(seed, n, edit):
    rng = random.Random(seed)
    a = zipf_words(rng, n)
    b = list(a)
    start = rng.randrange(n)
    span = rng.randint(1, 40)
    if edit == "insert":
        b[start:start] = zipf_words(rng, span)
    elif edit == "delete":
        del b[start:start + span]
    elif edit == "replace":
        b[start:start + span] = zipf_words(rng, rng.randint(1, 40))
    else:
        moved = b[start:start + span]
        del b[start:start + span]
        at = rng.randrange(len(b) + 1)
        b[at:at] = moved
    runs_event(a, b)
    assert_same_as_reference(a, b)


@st.composite
def synth_shaped_edits(draw):
    """A text and the same text after 1 to 4 edits at random places, as
    synth writes them: fresh words inserted, and spans deleted. The words
    come from a vocabulary of 8, 64 or 200,000, so runs of K tokens overlap
    often, sometimes, or almost never."""
    vocabulary = draw(st.sampled_from([8, 64, 200_000]))
    word = st.integers(min_value=0, max_value=vocabulary - 1).map("w{}".format)
    a = draw(st.lists(word, max_size=80))
    b = list(a)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(b)))
        if draw(st.booleans()):
            b[at:at] = draw(st.lists(word, min_size=1, max_size=12))
        else:
            del b[at:at + draw(st.integers(min_value=1, max_value=12))]
    return a, b


@given(synth_shaped_edits())
@settings(max_examples=500)
def test_matches_reference_on_synth_shaped_edits(pair):
    runs_event(*pair)
    assert_same_as_reference(*pair)


def assert_same_as_phase_two_reference(a, b):
    """Blocks in order, and the moved mass's and distance's bits, equal
    those of phase 1 followed by `reference_phase_two`, in both argument
    orders."""
    for x, y in ((a, b), (b, a)):
        assert match_blocks(x, y) == phase_one_then_reference(x, y)
        with mock.patch.object(worddiff, "match_blocks", phase_one_then_reference):
            expected = edit_distance(x, y)
        got = edit_distance(x, y)
        assert got.moved_mass.hex() == expected.moved_mass.hex()
        assert got.distance.hex() == expected.distance.hex()


@st.composite
def rewritten_zipf_sections(draw):
    """A section rewritten between a shared head and tail: 50 to 400 fresh
    tokens a side, drawn from one Zipf vocabulary, so phase 2 sees long
    stretches of free tokens that repeat on both sides."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    head = zipf_words(rng, draw(st.integers(min_value=0, max_value=100)))
    tail = zipf_words(rng, draw(st.integers(min_value=0, max_value=100)))
    old = zipf_words(rng, draw(st.integers(min_value=50, max_value=400)))
    new = zipf_words(rng, draw(st.integers(min_value=50, max_value=400)))
    return head + old + tail, head + new + tail


@given(rewritten_zipf_sections())
@settings(max_examples=60, deadline=None)
def test_phase_two_matches_reference_on_rewritten_zipf_sections(pair):
    assert_same_as_phase_two_reference(*pair)


def free_bigram_hits(a, b):
    """(i, j) for every common bigram whose four positions phase 1 left
    free."""
    a_free, b_free = [True] * len(a), [True] * len(b)
    for bl in match_blocks(a, b):
        if bl.length >= K:
            a_free[bl.a_start:bl.a_start + bl.length] = [False] * bl.length
            b_free[bl.b_start:bl.b_start + bl.length] = [False] * bl.length
    return [(i, j) for i in range(len(a) - 1) for j in range(len(b) - 1)
            if a[i:i + 2] == b[j:j + 2] and a_free[i] and a_free[i + 1]
            and b_free[j] and b_free[j + 1]]


@st.composite
def conflicting_bigrams(draw):
    """Chunks of 1 to 3 tokens over 2 or 3 symbols, each side's chunks cut
    apart by a token only that side holds. Phase 1 can take only a whole
    chunk of 3, so many bigrams stay free, and those inside a chunk of 3
    overlap (`aab` holds `aa` and `ab`): taking one splits the other."""
    alphabet = "abc"[:draw(st.integers(min_value=2, max_value=3))]
    chunk = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3)

    def side(cut):
        return [tok for c in draw(st.lists(chunk, min_size=4, max_size=20))
                for tok in c + [cut]]

    return side("x"), side("y")


@given(conflicting_bigrams())
@settings(max_examples=500)
def test_phase_two_matches_reference_on_conflicting_bigrams(pair):
    a, b = pair
    hits = free_bigram_hits(a, b)
    a_pos = [i + t for i, _ in hits for t in (0, 1)]
    b_pos = [j + t for _, j in hits for t in (0, 1)]
    conflict = len(set(a_pos)) < len(a_pos) or len(set(b_pos)) < len(b_pos)
    event("free bigrams conflict" if conflict else "no conflict")
    assert_same_as_phase_two_reference(a, b)


def test_phase_two_takes_the_free_piece_of_a_split_bigram():
    # Phase 1 takes nothing. The free bigrams `aa` and `ab` of a hit b at
    # (0, 2) and (1, 0). (0, 2) is taken first and takes a[1], so (1, 0)
    # splits, and its free piece (2, 1) is taken as a run of 1 token.
    a, b = list("aab"), list("abaa")
    expected = [Block(0, 2, 2), Block(2, 1, 1)]
    assert reference_phase_two(a, b, []) == expected
    assert match_blocks(a, b) == expected
    assert reference_match_blocks(a, b) == expected


def test_phase_two_matches_reference_on_long_history_pairs(monkeypatch):
    """Every pair `build_contributions` diffs on the benchmark's seed-1
    `long_history` corpus: the diffs the word diff's timing is measured
    on, most of which reach phase 2."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # `dataclasses` looks the module up in `sys.modules` by its name.
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    dump, _, _ = inputs.generate("long_history", 1)
    pages = [page for page in parse_dump(io.BytesIO(dump.encode()))
             if page.namespace is Namespace.ARTICLE]
    pairs = []

    def record(a, b):
        pairs.append((a, b))
        return match_blocks(a, b)

    with mock.patch.object(worddiff, "match_blocks", record):
        build_contributions(pages)
    short = pushed = 0
    for a, b in pairs:
        push, blocks = pushes_a_piece(a, b)
        pushed += push
        assert blocks == phase_one_then_reference(a, b)
        short += any(bl.length < K for bl in blocks)
    assert short > len(pairs) // 2
    # Both cases of the heap are checked here: in 71 of the 1,121 pairs
    # with two nonempty sides a run loses positions and pushes a piece
    # back, and in 1,050 none does.
    nonempty = sum(bool(a) and bool(b) for a, b in pairs)
    assert pushed > 20 and nonempty - pushed > 100


def test_tuple_and_list_inputs_agree():
    a = tuple("abcdefgh")
    b = list("xxabcdefghyy")
    assert match_blocks(a, b) == [Block(0, 2, 8)]


def brute_run(a, b, i, j):
    """The first mismatch of a[i:] and b[j:], scanned one element at a time."""
    n = 0
    while i + n < len(a) and j + n < len(b) and a[i + n] == b[j + n]:
        n += 1
    return n


def brute_tail(a, b, head):
    """The common run that ends a[head:] and b[head:], scanned backwards."""
    n = 0
    while n < min(len(a), len(b)) - head and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


@st.composite
def planted_runs(draw, tail):
    """(a, b, i, j): a[i:] and b[j:] start with a common run of a length
    around the gallop's 16-element window and its doublings. It ends both
    sides if `tail`, else drawn suffixes follow. As tuples or as str."""
    n = draw(st.sampled_from((0, 1, 15, 16, 17, 31, 32, 33, 48)))
    run = draw(st.text("ab", min_size=n, max_size=n))
    pre_a = draw(st.text("abc", max_size=20))
    pre_b = pre_a if draw(st.booleans()) else draw(st.text("abc", max_size=20))
    suffix = st.just("") if tail else st.text("abc", max_size=20)
    a, b = pre_a + run + draw(suffix), pre_b + run + draw(suffix)
    if draw(st.booleans()):
        a, b = tuple(a), tuple(b)
    return a, b, len(pre_a), len(pre_b)


@given(planted_runs(tail=False))
@settings(max_examples=500)
def test_common_run_is_the_first_mismatch(case):
    a, b, i, j = case
    assert _common_run(a, b, i, j) == brute_run(a, b, i, j)
    assert _common_run(a, b, 0, 0) == brute_run(a, b, 0, 0)


@given(planted_runs(tail=True))
@settings(max_examples=500)
def test_common_tail_stays_out_of_the_head(case):
    a, b, _, _ = case
    for head in (0, brute_run(a, b, 0, 0)):
        tail = _common_tail(a, b, head)
        assert tail == brute_tail(a, b, head)
        assert head + tail <= min(len(a), len(b))
