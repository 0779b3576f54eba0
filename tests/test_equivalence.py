"""The fast paths against straightforward references.

The greedy best response must return the same table and score as the
original O(Q^3) pair of routines, kept verbatim below, and as the original
two-field-call loop up to GF(32); the depth-first brute force over s1(0) = 0
(and s1(1) = 0 when uniform) with running bucket scores must return the same
value and pair as the original loop over all Q^Q tables with field-method
calls; win_probability, DetStrategy.wins and the plugged values, read from
win rows gathered on the field's exp/log tables, must equal the original
_score sum and win matrix, both built from two field calls a cell, and
best_response_search, which draws its starts from the byte stream in bulk,
must return what it returns on the per-word stream's starts
(oracles.WordStream, one try at a time); the tower's carried eta must give
the same responses as recomputing compute_eta from scratch at every tower
round, and its verdict must be verify_values' verdict on those responses;
best_shift, which scores every translate from the win set's row and column
counts, must return the same BestShift as the original O(Q^4) loop that
shifts and rescores each translate; on the same random.Random stream, the
bulk verdict-table draws must count the same wins, and the bulk transcript
draws give the same transcripts, as the per-word reference
(oracles.WordStream, one getrandbits(32) call per four bytes, one try at a
time on lanes of 1, 2 or 4 bytes read one byte at a time), whatever the
draw block size; run_honest, which draws its
shares and then its challenges from the byte stream in bulk and computes
its responses in one pass, must give the same Transcript as the per-word
stream's shares and challenges and the original per-round responses; and
the batch verdict (rejected_rows) must reject exactly the inputs accepts
rejects, in exact enumeration, the verdict table and Monte Carlo: by
columns on a tower over Q <= 256, in byte lanes up to Q = 16 and 16-bit
lanes beyond, and by one accepts call per row on every other strategy.
"""

import dataclasses
import itertools
import random
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import cache, cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc import (
    CausalModel,
    CheatStrategy,
    DetStrategy,
    FieldSpec,
    GameDist,
    CapabilityError,
    ProtocolParams,
    Transcript,
    Variant,
    best_response_search,
    best_shift,
    brute_force_value,
    build_attack,
    exact_cheat_probability,
    hiding_distributions,
    honest_responses,
    mc_cheat_probability,
    predicted_attack_probability,
    run_honest,
    shift_strategy,
    tower_gamma,
    trend_sweep,
    verify_values,
    win_probability,
    zeros_strategy,
)
from relbc import adversary, games, protocol
from relbc.adversary import _drawn_columns, _GameRound, _product_columns
from relbc.analysis import _column_rejections, _plugged_values, _table_wins
from relbc.cli import _transcripts
from relbc.games import BestShift, _game_tables, _greedy_best

from oracles import (WordStream, accepted_inputs, compute_eta,
                     reference_table_wins, reference_transcripts,
                     symmetrize_up)

FIELDS = {q: spec for q, spec in (
    (2, FieldSpec(2)), (3, FieldSpec(3)), (4, FieldSpec(2, 2)),
    (5, FieldSpec(5)), (7, FieldSpec(7)), (8, FieldSpec(2, 3)),
    (9, FieldSpec(3, 2)))}


# --- reference: the original O(Q^3) best responses, verbatim -------------

def _greedy_best_s2(spec: FieldSpec, s1, w) -> tuple[tuple[int, ...], int]:
    """Optimal player-2 table against a fixed s1, ties to the smallest index.

    Returns the table and the total integer score (weights squared scale).
    """
    q = spec.q
    add, mul, sub = spec.add, spec.mul, spec.sub
    s2 = []
    total = 0
    for y in range(q):
        best_b, best_score = 0, -1
        for b in range(q):
            score = 0
            for x in range(q):
                # wins iff b = x*y - s1(x)
                if b == sub(mul(x, y), s1[x]):
                    score += w[x]
            if score > best_score:
                best_b, best_score = b, score
        s2.append(best_b)
        total += w[y] * best_score
    return tuple(s2), total


def _greedy_best_s1(spec: FieldSpec, s2, w) -> tuple[tuple[int, ...], int]:
    q = spec.q
    mul, sub = spec.mul, spec.sub
    s1 = []
    total = 0
    for x in range(q):
        best_a, best_score = 0, -1
        for a in range(q):
            score = 0
            for y in range(q):
                if a == sub(mul(x, y), s2[y]):
                    score += w[y]
            if score > best_score:
                best_a, best_score = a, score
        s1.append(best_a)
        total += w[x] * best_score
    return tuple(s1), total


def _gammas(q):
    return (Fraction(1, q), Fraction(1, 2), Fraction(3, 4), Fraction(1, 7),
            Fraction(0), Fraction(1))


def _tables(spec, rng):
    """Seeded random tables plus tables built to make the scores tie."""
    q = spec.q
    yield from (tuple(rng.randrange(q) for _ in range(q)) for _ in range(6))
    yield (0,) * q                                  # x*y - 0: a full tie row
    yield (q - 1,) * q                              # constant shift of it
    yield tuple(range(q))                           # identity table
    yield tuple(spec.mul(x, x) for x in range(q))   # x^2: ties at y = x
    yield tuple(spec.neg(x) for x in range(q))      # b = x*(y+1): tie at y=-1


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_greedy_best_matches_cubic_reference(q):
    spec = FIELDS[q]
    tables = _game_tables(spec)
    rng = random.Random(f"greedy:{q}")
    for gamma in _gammas(q):
        w, _den = GameDist(spec, gamma).weights()
        for table in _tables(spec, rng):
            assert _greedy_best(tables, table, w) == _greedy_best_s2(spec, table, w)
            assert _greedy_best(tables, table, w) == _greedy_best_s1(spec, table, w)


def test_greedy_best_breaks_ties_to_smallest_index():
    spec = FIELDS[5]
    w, _den = GameDist.uniform(spec).weights()
    # against all zeros, every nonzero y sees each answer win exactly once
    table, _score = _greedy_best(_game_tables(spec), (0,) * 5, w)
    assert table == (0,) * 5


# --- reference: brute force over every s1, with field-method calls --------

def _method_greedy_best(spec: FieldSpec, other, w) -> tuple[tuple[int, ...], int]:
    """The original greedy best response, verbatim: two field calls a cell."""
    q = spec.q
    mul, sub = spec.mul, spec.sub
    table = []
    total = 0
    for y in range(q):
        score = [0] * q
        for x in range(q):
            score[sub(mul(x, y), other[x])] += w[x]
        best = max(score)
        table.append(score.index(best))
        total += w[y] * best
    return tuple(table), total


@pytest.mark.parametrize("p, n", [(3, 3), (2, 5)], ids=["q27", "q32"])
def test_greedy_best_matches_method_reference_past_gf9(p, n):
    # the cubic reference stops at GF(9); the two-call one reaches the
    # fields game_search solves
    spec = FieldSpec(p, n)
    tables = _game_tables(spec)
    rng = random.Random(f"greedy-method:{spec.q}")
    for gamma in _gammas(spec.q):
        w, _den = GameDist(spec, gamma).weights()
        for table in _tables(spec, rng):
            assert (_greedy_best(tables, table, w)
                    == _method_greedy_best(spec, table, w))


@pytest.mark.parametrize("p, n, columns", [
    (3, 3, 4), (2, 5, 3), (2, 5, 31), (257, 1, 256), (2, 9, 256)],
    ids=["q27-by4", "q32-by3", "q32-by31", "q257", "q512"])
def test_greedy_best_column_blocks_match_one_block(p, n, columns,
                                                   monkeypatch):
    # bucket columns gathered a block at a time (at the default 256,
    # GF(257) splits 129 + 128 columns and GF(512) 256 + 256) give the
    # table and score of one block over all Q columns, ties included
    spec = FieldSpec(p, n)
    tables = _game_tables(spec)
    rng = random.Random(f"greedy-blocks:{spec.q}")
    cases = [(GameDist(spec, gamma).weights()[0], table)
             for gamma in _gammas(spec.q)[:2] for table in _tables(spec, rng)]
    monkeypatch.setattr(games, "_GATHER_COLUMNS", spec.q)
    want = [_greedy_best(tables, table, w) for w, table in cases]
    monkeypatch.setattr(games, "_GATHER_COLUMNS", columns)
    assert [_greedy_best(tables, table, w) for w, table in cases] == want


def test_greedy_best_holds_one_column_block():
    # at GF(1024) the 1023 gathered bucket rows take ~8 MB of tuples at
    # once, and a block of 256 columns of them ~2 MB
    spec = FieldSpec(2, 10)
    tables = _game_tables(spec)
    w, _den = GameDist(spec, Fraction(1, 3)).weights()
    rng = random.Random("greedy-memory")
    other = tuple(rng.randrange(spec.q) for _ in range(spec.q))
    tracemalloc.start()
    try:
        _greedy_best(tables, other, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_win_matrix_holds_itself_once():
    # the rows go into one growing buffer, so building GF(1024)'s 1 MB
    # matrix peaks near the matrix alone (b"".join of the rows peaked at
    # ~2.1x: every row and the joined copy at once)
    spec = FieldSpec(2, 10)
    strategy = DetStrategy.random(spec, random.Random("wins-memory"))
    spec.mul(2, 3)  # the field's tables are built before the trace
    tracemalloc.start()
    try:
        wins = strategy.wins
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(wins) == spec.q ** 2
    assert peak <= 1.3 * spec.q ** 2


def reference_brute_force(dist: GameDist):
    """The original brute-force loop, verbatim: all Q^Q tables in product order.

    Returns the value and the (s1, s2) pair of the first maximum.
    """
    spec = dist.field
    q = spec.q
    w, den = dist.weights()
    best_score = -1
    best_pair = None
    for s1 in itertools.product(range(q), repeat=q):
        s2, score = _method_greedy_best(spec, s1, w)
        if score > best_score:
            best_score = score
            best_pair = (s1, s2)
    return Fraction(best_score, den * den), best_pair


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_brute_force_matches_full_enumeration(q):
    spec = FIELDS[q]
    for gamma in (Fraction(1, q), tower_gamma(spec, CausalModel(rho=4)),
                  Fraction(0), Fraction(1, 2), Fraction(1)):
        dist = GameDist(spec, gamma)
        fast = brute_force_value(dist)
        value, (s1, s2) = reference_brute_force(dist)
        assert fast.value == value, gamma
        assert fast.strategy.s1 == s1 and fast.strategy.s2 == s2, gamma


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.integers(1, 12), st.data())
def test_brute_force_matches_full_enumeration_on_random_gamma(q, den, data):
    gamma = Fraction(data.draw(st.integers(0, den)), den)
    dist = GameDist(FIELDS[q], gamma)
    fast = brute_force_value(dist)
    value, pair = reference_brute_force(dist)
    assert fast.value == value
    assert (fast.strategy.s1, fast.strategy.s2) == pair


# --- reference: the tower with eta recomputed at every round ---------------

def reference_responses(spec, variant, m, model, game, d, xs):
    """Responses of build_attack, with compute_eta run from scratch at each
    tower round instead of carried forward."""
    rho, k0 = model.rho, model.k0
    sym_m = m if variant is Variant.SYMMETRIZED else m - 1
    n_rounds = m
    yt = [0] * n_rounds
    steps = (sym_m - k0) // (rho + 1) if sym_m >= 2 else 0
    for s in range(max(steps, 0)):
        prefix = k0 + s * (rho + 1)
        ka, kb = prefix + rho, prefix + rho + 1
        eta = compute_eta(spec, d, xs[:prefix], tuple(yt[:prefix]))
        xin = yin = 1
        for j in range(prefix + 1, ka + 1):
            if (ka - j) % 2 == 0:
                xin = spec.mul(xin, xs[j - 1])
        for j in range(prefix + 1, prefix + rho + 1):
            if (kb - j) % 2 == 0:
                yin = spec.mul(yin, xs[j - 1])
        yt[ka - 1] = spec.mul(eta, game.s1[xin])
        yt[kb - 1] = spec.mul(spec.mul(eta, game.s2[yin]), xs[kb - 1])
    return tuple(y if k % 2 == 1 else spec.neg(y)
                 for k, y in enumerate(yt, start=1))


@st.composite
def attack_cases(draw):
    spec = draw(st.sampled_from([FIELDS[2], FIELDS[3], FIELDS[4], FIELDS[5]]))
    q = spec.q
    model = CausalModel(rho=draw(st.sampled_from([2, 4])),
                        k0=draw(st.integers(0, 2)))
    variant = draw(st.sampled_from(list(Variant)))
    m = draw(st.integers(2, 16))
    table = st.lists(st.integers(0, q - 1), min_size=q, max_size=q)
    game = DetStrategy(spec, draw(table), draw(table))
    n_challenges = build_attack(spec, variant, m, model, game).n_challenges
    d = draw(st.integers(0, 1))
    xs = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n_challenges,
                             max_size=n_challenges)))
    return spec, variant, m, model, game, d, xs


@settings(max_examples=300, deadline=None)
@given(attack_cases())
def test_carried_eta_matches_recomputed_eta(case):
    spec, variant, m, model, game, d, xs = case
    strategy = build_attack(spec, variant, m, model, game)
    expect = reference_responses(spec, variant, m, model, game, d, xs)
    assert strategy.responses(d, xs) == expect
    for k in range(1, len(expect) + 1):
        assert strategy.respond(k, d, xs) == expect[k - 1]
    assert strategy.accepts(d, xs) == verify_values(strategy.params, d, xs,
                                                    expect)


# --- reference: the original O(Q^4) best shift, verbatim --------------------

def reference_best_shift(strategy: DetStrategy, dist: GameDist) -> BestShift:
    """Best translate of a strategy under a (typically biased) distribution.

    Enumerates all Q^2 shifts; since the average of the shifted values over
    (u, v) equals the uniform winning probability, the maximum is at least
    the uniform value of the input strategy.
    """
    q = strategy.field.q
    best = None
    for u in range(q):
        for v in range(q):
            shifted = shift_strategy(strategy, u, v)
            value = win_probability(shifted, dist)
            if best is None or value > best.value:
                best = BestShift(u, v, shifted, value)
    return best


SHIFT_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 7, 8, 9)] + [
    FieldSpec(2, 4), FieldSpec(5, 2)]


def _shift_gammas(spec):
    """Uniform, both ends, two fixed biases and the tower's rho = 2, 4 gamma
    (rho = 2 gives the uniform one again), without repeats."""
    gammas = [Fraction(1, spec.q), Fraction(0), Fraction(1), Fraction(1, 3),
              Fraction(7, 9)] + [tower_gamma(spec, CausalModel(rho=rho, k0=0))
                                 for rho in (2, 4)]
    return list(dict.fromkeys(gammas))


def _shift_strategies(spec):
    """All zeros, a seeded random pair, and a pair that always wins when
    x = -1 or y = 0 (the zeros pair translated by (1, 0))."""
    rng = random.Random(f"best-shift:{spec.q}")
    return [DetStrategy.zeros(spec), DetStrategy.random(spec, rng),
            shift_strategy(DetStrategy.zeros(spec), 1, 0)]


@pytest.mark.parametrize("spec", SHIFT_FIELDS, ids=lambda s: f"q{s.q}")
def test_best_shift_matches_quartic_reference(spec):
    for gamma in _shift_gammas(spec):
        dist = GameDist(spec, gamma)
        for strategy in _shift_strategies(spec):
            assert best_shift(strategy, dist) == reference_best_shift(strategy, dist)


def test_best_shift_all_ties_pick_the_identity():
    # uniform weights score every translate |W|/Q^2, and a strategy that
    # never wins scores 0 under every distribution: the first (u, v) wins
    spec = FIELDS[3]
    never = DetStrategy(spec, (0, 0, 1), (1, 2, 1))
    assert win_probability(never, GameDist(spec, Fraction(1, 2))) == 0
    rng = random.Random("ties")
    for strategy, gamma in ((never, Fraction(1, 2)), (never, Fraction(1)),
                            (DetStrategy.random(FIELDS[7], rng), Fraction(1, 7))):
        dist = GameDist(strategy.field, gamma)
        got = best_shift(strategy, dist)
        assert got == reference_best_shift(strategy, dist)
        assert (got.u, got.v, got.strategy) == (0, 0, strategy)


@st.composite
def shift_cases(draw):
    spec = draw(st.sampled_from(SHIFT_FIELDS[:7]))
    q = spec.q
    table = st.lists(st.integers(0, q - 1), min_size=q, max_size=q)
    den = draw(st.integers(1, 12))
    gamma = Fraction(draw(st.integers(0, den)), den)
    return DetStrategy(spec, draw(table), draw(table)), GameDist(spec, gamma)


@settings(max_examples=200, deadline=None)
@given(shift_cases())
def test_best_shift_matches_reference_on_random_tables(case):
    strategy, dist = case
    assert best_shift(strategy, dist) == reference_best_shift(strategy, dist)


def test_best_shift_gf256_within_budget():
    # the reference loop needs ~Q^4 = 4e9 field ops here (hours)
    spec = FieldSpec(2, 8)
    dist = GameDist(spec, tower_gamma(spec, CausalModel(rho=4, k0=0)))
    strategy = DetStrategy.random(spec, random.Random("gf256"))
    start = time.perf_counter()
    got = best_shift(strategy, dist)
    elapsed = time.perf_counter() - start
    assert got.strategy == shift_strategy(strategy, got.u, got.v)
    assert elapsed < 2.0


# --- reference: the original field-call scorer and win matrix, verbatim ------

def _score(spec: FieldSpec, s1, s2, w) -> int:
    q = spec.q
    add, mul = spec.add, spec.mul
    total = 0
    for x in range(q):
        s1x = s1[x]
        wx = w[x]
        if not wx:
            continue
        for y in range(q):
            if add(s1x, s2[y]) == mul(x, y):
                total += wx * w[y]
    return total


def reference_wins(strategy: DetStrategy) -> bytes:
    """The original DetStrategy.wins, with self as an argument: wins[a*Q + b]
    is 1 when the pair wins on (a, b), s1[a] + s2[b] = a*b, from Q^2 field
    ops."""
    spec = strategy.field
    q, add, mul, s2 = spec.q, spec.add, spec.mul, strategy.s2
    return b"".join(bytes([add(c, s2[b]) == mul(a, b) for b in range(q)])
                    for a, c in enumerate(strategy.s1))


def reference_win_probability(strategy: DetStrategy,
                              dist: GameDist) -> Fraction:
    w, den = dist.weights()
    return Fraction(_score(strategy.field, strategy.s1, strategy.s2, w),
                    den * den)


SCORE_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 7, 8, 9)] + [
    FieldSpec(2, 4), FieldSpec(5, 2), FieldSpec(3, 3), FieldSpec(2, 5)]


def _score_strategies(spec):
    """_tables' random, zero, constant, identity, square and negation
    tables, each paired with itself and with the table three places on."""
    tables = list(_tables(spec, random.Random(f"score:{spec.q}")))
    return [DetStrategy(spec, a, b) for a, b in itertools.chain(
        zip(tables, tables), zip(tables, tables[3:] + tables[:3]))]


@pytest.mark.parametrize("spec", SCORE_FIELDS, ids=lambda s: f"q{s.q}")
def test_gathered_win_rows_match_field_call_scoring(spec):
    models = [CausalModel(rho=rho, k0=0) for rho in (2, 4)]
    for strategy in _score_strategies(spec):
        assert strategy.wins == reference_wins(strategy)
        for gamma in _gammas(spec.q):
            dist = GameDist(spec, gamma)
            assert (win_probability(strategy, dist)
                    == reference_win_probability(strategy, dist))
        for model in models:
            windowed = GameDist(spec, tower_gamma(spec, model))
            assert _plugged_values(spec, model, strategy) == (
                reference_win_probability(strategy, GameDist.uniform(spec)),
                reference_win_probability(strategy, windowed))


@pytest.mark.parametrize("spec", SCORE_FIELDS, ids=lambda s: f"q{s.q}")
def test_best_shift_matches_quartic_reference_on_score_tables(spec,
                                                             monkeypatch):
    # the zero, identity and tie (x^2) tables and a random pair, under
    # every _gammas weight; each translate is built once and keeps its win
    # counts across the weights
    monkeypatch.setattr(sys.modules[__name__], "shift_strategy",
                        cache(shift_strategy))
    tables = list(_tables(spec, random.Random(f"score:{spec.q}")))
    zero, identity, square = tables[6], tables[8], tables[9]
    for s1, s2 in ((zero, identity), (identity, square), tables[:2]):
        strategy = DetStrategy(spec, s1, s2)
        for gamma in _gammas(spec.q):
            dist = GameDist(spec, gamma)
            assert (best_shift(strategy, dist)
                    == reference_best_shift(strategy, dist))


def test_win_probability_holds_no_square_table():
    # a Q^2 table at GF(1024) takes at least 8 MB as tuples and 1 MB as bytes
    spec = FieldSpec(2, 10)
    strategy = DetStrategy.random(spec, random.Random("traced"))
    dist = GameDist(spec, Fraction(1, 3))
    tracemalloc.start()
    try:
        value = win_probability(strategy, dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert value == reference_win_probability(strategy, dist)


class _WordTries:
    """_ByteStream's tries read off oracles.WordStream, one at a time."""

    def __init__(self, rng):
        self.words = WordStream(rng)

    def tries(self, space, count):
        return [self.words.below(space) for _ in range(count)]


@pytest.mark.parametrize("p, n, restarts", [(5, 1, 4), (2, 4, 16), (3, 3, 4),
                                            (2, 5, 3), (2, 10, 1)],
                         ids=["q5", "q16", "q27", "q32", "q1024"])
def test_search_starts_match_per_call_randrange(p, n, restarts, monkeypatch):
    # the reference starts are the per-word stream's tries below Q, one at
    # a time (at Q = 1024, the top 10 bits of 2-byte lanes); the name
    # dates from when the starts were randrange draws
    spec = FieldSpec(p, n)
    count = 2 * spec.q * restarts
    assert (list(protocol._ByteStream(random.Random("starts")).tries(
        spec.q, count)) == _WordTries(random.Random("starts")).tries(
            spec.q, count))
    dist = GameDist(spec, Fraction(1, 3))
    iters = 1 if spec.q > 32 else 3
    bulk = best_response_search(dist, restarts, iters, seed=2)
    monkeypatch.setattr(games, "_ByteStream", _WordTries)
    assert best_response_search(dist, restarts, iters, seed=2) == bulk


# --- the verdict-table draws against the per-word reference ----------------

def _same_wins(table: bytes, samples: int, seed: int) -> int:
    got = _table_wins(table, samples, random.Random(f"{seed}:mc"))
    assert got == reference_table_wins(table, samples,
                                       random.Random(f"{seed}:mc"))
    return got


# 2^j - 1, 2^j and 2^j + 1 for every byte-try width k = 1..8, up to the
# table cap 256
DRAW_SPACES = sorted({n for j in range(1, 9) for n in (2 ** j - 1, 2 ** j,
                                                        2 ** j + 1)
                      if 2 <= n <= adversary.MC_TABLE_CAP})


@pytest.mark.parametrize("space", DRAW_SPACES)
def test_table_wins_match_randrange_loop(space):
    # the per-try reference's draws, one byte a try (the name dates from
    # randrange draws)
    rng = random.Random(f"table:{space}")
    table = bytes(rng.randrange(2) for _ in range(space))
    for seed in range(3):
        _same_wins(table, 1000, seed)


@pytest.mark.parametrize("space", [2, 3, 128, 129])
def test_table_wins_all_win_and_all_loss(space):
    assert _same_wins(bytes([1]) * space, 500, 7) == 500
    assert _same_wins(bytes(space), 500, 7) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=256),
       st.integers(0, 2 ** 32), st.integers(100, 3000))
def test_table_wins_match_randrange_loop_on_random_tables(table, seed, samples):
    _same_wins(bytes(table), samples, seed)


@pytest.mark.parametrize("space", [2, 3, 128, 162, 256])
def test_table_wins_look_tries_up_as_they_read_them(space):
    # the stream's top-bits table composed with the verdict table is one
    # translate a block (after the rejected bytes are deleted at 3 and
    # 162), and gives the per-try reference's count and the tries of the
    # plain stream, looked up one at a time
    rng = random.Random(f"composed:{space}")
    table = bytes(rng.randrange(2) for _ in range(space))
    for seed in range(3):
        _same_wins(table, 3000, seed)
        code = table.ljust(256, b"\0")
        looked_up = protocol._ByteStream(random.Random(seed)).tries(
            space, 3000, code)
        tries = protocol._ByteStream(random.Random(seed)).tries(space, 3000)
        assert looked_up == bytes(map(table.__getitem__, tries))


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("space, seed", [(17, 45), (129, 291)])
def test_table_wins_refill_when_first_block_is_short(space, seed,
                                                     monkeypatch):
    # 17 and 129 entries reject a try with probability 15/32 and 127/256,
    # so the first 100 tries fall short and the stream reads on; in 3-word
    # blocks every read also spans blocks and carries leftover bytes, and
    # the 100 kept tries take at least 100 bytes
    table = bytes(i % 2 for i in range(space))
    want = reference_table_wins(table, 100, random.Random(f"{seed}:mc"))
    rng = _CountingRandom(f"{seed}:mc")
    assert _table_wins(table, 100, rng) == want
    assert rng.calls > 1
    monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", 3)
    rng = _CountingRandom(f"{seed}:mc")
    assert _table_wins(table, 100, rng) == want
    assert rng.calls > 100 // 12


# --- the transcript draws against the per-word reference -------------------


@pytest.mark.parametrize("n_ch", [1, 4, 12])
@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128,
                               3, 5, 27, 131, 243, 256, 4096, 2 ** 16,
                               2 ** 20])
def test_bulk_transcripts_match_randrange_loop(q, n_ch, monkeypatch):
    # small blocks and 128-row chunks, so every estimate spans many
    # getrandbits blocks, reads cross block boundaries and the bits of a
    # chunk are followed by its challenges; q <= 256 reads one byte a try,
    # q <= 2^16 a 2-byte lane and 2^20 a 4-byte one, and only q other than
    # 2^j rejects tries (131 and 243 at the full byte width k = 8); the
    # name dates from randrange draws
    monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", 61)
    monkeypatch.setattr(adversary, "_CHUNK_ROWS", 128)
    rng = _CountingRandom(f"{q}:{n_ch}:mc")
    got = list(_transcripts(rng, q, n_ch, 300))
    assert got == reference_transcripts(random.Random(f"{q}:{n_ch}:mc"),
                                        q, n_ch, 300)
    assert rng.calls > 1


@pytest.mark.parametrize("q, n_ch, seed", [(3, 4, 3505), (5, 1, 22)])
def test_word_transcripts_refill_when_first_block_is_short(q, n_ch, seed,
                                                           monkeypatch):
    # 3-word (12-byte) blocks: the 100 bits end 4 bytes into a block, whose
    # other 8 bytes carry into the challenge read; Q = 3 and Q = 5 reject a
    # byte try with probability 1/4 and 3/8, so the first 100 * n_ch
    # challenge tries fall short and the stream reads on, and the bits and
    # the kept tries take at least 100 * (1 + n_ch) bytes
    monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", 3)
    rng = _CountingRandom(f"{seed}:mc")
    got = list(_transcripts(rng, q, n_ch, 100))
    assert rng.calls > 100 * (1 + n_ch) // 12
    assert got == reference_transcripts(random.Random(f"{seed}:mc"), q, n_ch,
                                        100)


def test_bulk_transcripts_span_full_size_blocks():
    # 12,000 rows at Q = 16: 12,000 bytes of bits in one 3,000-word block,
    # then 144,000 challenge bytes in a full 32,768-word block and a
    # 3,232-word one
    rng = _CountingRandom("blocks:mc")
    got = list(_transcripts(rng, 16, 12, 12000))
    assert rng.calls == 3
    assert got == reference_transcripts(random.Random("blocks:mc"), 16, 12,
                                        12000)


# --- reference: per-word shares and the original per-round responses --------

def word_stream_sample(params: ProtocolParams, rng: random.Random
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shares a_i, then the challenges, one per-word try at a time."""
    stream, q, rounds = WordStream(rng), params.field.q, params.n_rounds
    shares = [stream.below(q) for _ in range(rounds + params.n_challenges)]
    return tuple(shares[:rounds]), tuple(shares[rounds:])


def reference_honest_response(params: ProtocolParams, k: int, d: int,
                              a: tuple[int, ...], xs: tuple[int, ...]) -> int:
    last = params.n_rounds
    if not 1 <= k <= last:
        raise ValueError(f"round index {k} out of range 1..{last}")
    spec = params.field
    if k == 1:
        return spec.add(spec.mul(d, xs[0]), a[0])
    if k < last:
        return spec.add(spec.mul(xs[k - 1], a[k - 2]), a[k - 1])
    if params.variant is Variant.STANDARD:
        return a[last - 2]
    return spec.mul(xs[last - 1], a[last - 2])


def reference_run_honest(params: ProtocolParams, d: int, seed: int = 0
                         ) -> Transcript:
    rng = random.Random(f"{seed}:honest-run")
    a, xs = word_stream_sample(params, rng)
    responses = tuple(reference_honest_response(params, k, d, a, xs)
                      for k in range(1, params.n_rounds + 1))
    accepted = verify_values(params, d, xs, responses)
    return Transcript(params, d, xs, responses, accepted)


HONEST_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(3, 2), FieldSpec(2, 4),
                 FieldSpec(2, 8), FieldSpec(2, 16)]


@pytest.mark.parametrize("block_words", [None, 3], ids=["full", "refill"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("spec", HONEST_FIELDS, ids=lambda s: f"q{s.q}")
def test_run_honest_matches_per_call_reference(spec, variant, block_words,
                                               monkeypatch):
    # the shares are the per-word stream's tries below Q; 3-word blocks
    # make every longer honest run read several blocks, carrying leftover
    # bytes; GF(256) reads one byte a try and GF(2^16) a 2-byte lane
    if block_words:
        monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", block_words)
    for m in (1, 2, 7, 31):
        if variant is Variant.SYMMETRIZED and m < 2:
            continue
        params = ProtocolParams(spec, m, variant)
        for seed in range(4):
            for d in (0, 1):
                got = run_honest(params, d, seed=seed)
                assert got == reference_run_honest(params, d, seed=seed)
                assert got.accepted
        a, xs = word_stream_sample(params, random.Random(f"{m}:shares"))
        for d in (0, 1):
            assert honest_responses(params, d, a, xs) \
                == tuple(reference_honest_response(params, k, d, a, xs)
                         for k in range(1, params.n_rounds + 1))


# --- reference: the original hiding enumeration, one round at a time ----------

def reference_hiding_distribution(params: ProtocolParams, upto_round: int):
    last = params.n_rounds
    q = params.field.q
    n_x = min(upto_round, params.n_challenges)
    n_a = min(upto_round, last - 1)
    states = q ** (n_x + n_a)
    pad_x = (0,) * (params.n_challenges - n_x)
    pad_a = (0,) * (last - n_a)
    out = {}
    for d in (0, 1):
        dist = {}
        for xs in itertools.product(range(q), repeat=n_x):
            for a in itertools.product(range(q), repeat=n_a):
                ys = tuple(reference_honest_response(params, k, d, a + pad_a,
                                                     xs + pad_x)
                           for k in range(1, upto_round + 1))
                key = (xs, ys)
                dist[key] = dist.get(key, 0) + Fraction(1, states)
        out[d] = dist
    return out


@pytest.mark.parametrize("spec, m, variant", [
    (FIELDS[2], 1, Variant.STANDARD), (FIELDS[2], 4, Variant.STANDARD),
    (FIELDS[2], 4, Variant.SYMMETRIZED), (FIELDS[3], 3, Variant.STANDARD),
    (FIELDS[3], 3, Variant.SYMMETRIZED), (FIELDS[4], 2, Variant.SYMMETRIZED),
], ids=["q2-m1", "q2-m4", "q2-m4-sym", "q3-m3", "q3-m3-sym", "q4-m2-sym"])
def test_truncated_hiding_views_match_per_round_enumeration(spec, m, variant):
    # every round's view from one enumeration of the last round's states,
    # and the last two alone, as the hiding command asks for them
    params = ProtocolParams(spec, m, variant)
    last = params.n_rounds
    want = [reference_hiding_distribution(params, r)
            for r in range(1, last + 1)]
    assert hiding_distributions(params, range(1, last + 1)) == want
    assert hiding_distributions(params, (last - 1, last)) == want[-2:]
    assert [hiding_distributions(params, (r,))[0]
            for r in range(1, last + 1)] == want


def test_hiding_views_check_the_cap_round_by_round():
    # the smaller round's state count is the one reported, as when the
    # rounds were enumerated one at a time (symmetrized: round 8 also
    # enumerates the last challenge, so the two counts differ)
    params = ProtocolParams(FieldSpec(5), 8, Variant.SYMMETRIZED)
    with pytest.raises(CapabilityError) as alone:
        hiding_distributions(params, (7,))
    with pytest.raises(CapabilityError) as merged:
        hiding_distributions(params, (7, 8))
    assert str(merged.value) == str(alone.value)


# --- reference: accepts, one transcript at a time, for the column verdict ----

COLUMN_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 7, 8, 9)] + [FieldSpec(2, 4)]


def _rows_as_columns(rows, n):
    """The d column and the n challenge columns of a list of (d, xs) rows."""
    return (bytes(d for d, _ in rows),
            [bytes(xs[j] for _, xs in rows) for j in range(n)])


def _random_rows(rng, q, n, count):
    """count seeded rows with a random bit and mostly nonzero challenges
    (rows with a zero challenge are nearly always accepted)."""
    return [(rng.randrange(2),
             tuple(rng.randrange(1, q) if rng.random() < 0.9 else 0
                   for _ in range(n))) for _ in range(count)]


def _rejected_bytes(strategy, d, xs) -> bytes:
    return strategy.rejected_rows(d, xs).to_bytes(len(d), "big")


def _verdicts(s) -> bytes:
    """Every input's verdict, d-major in product order (1 = accepted): the
    joined _rejections, the enumeration a verdict table is made from."""
    return b"".join(s._rejections()).translate(adversary._LOST)


def _towers(spec, rng):
    """A tower with a seeded random game at every m = 2..13 for each
    variant, rho in {2, 4} and k0 in {0, 1, 2} (the shortest lengths fit
    no step and give zeros_strategy), and zeros_strategy itself."""
    for variant in Variant:
        for rho in (2, 4):
            for k0 in (0, 1, 2):
                model = CausalModel(rho=rho, k0=k0)
                for m in range(2, 14):
                    yield build_attack(spec, variant, m, model,
                                       DetStrategy.random(spec, rng))
        yield zeros_strategy(spec, variant, 5)


@pytest.mark.parametrize("spec", COLUMN_FIELDS, ids=lambda s: f"q{s.q}")
def test_column_verdict_matches_accepts(spec):
    # every input while 2*Q^n <= 4096 (the verdict table where it fits),
    # and 200 seeded rows with a random bit and mostly nonzero challenges
    # (rows with a zero challenge are nearly always accepted) at every
    # length
    q = spec.q
    rng = random.Random(f"columns:{q}")
    for s in _towers(spec, rng):
        assert s.columnar
        n = s.n_challenges
        size = q ** n
        if 2 * size <= 4096:
            inputs = list(itertools.product(range(q), repeat=n))
            (xs,) = _product_columns(q, n)
            assert _rejected_bytes(s, b"\1" * size, xs) == bytes(
                not s.accepts(1, row) for row in inputs)
            verdicts = _verdicts(s)
            assert verdicts == bytes(s.accepts(d, row) for d in (0, 1)
                                     for row in inputs)
            assert s.verdict_table == (
                verdicts if 2 * size <= adversary.MC_TABLE_CAP else None)
        rows = _random_rows(rng, q, n, 200)
        assert _rejected_bytes(s, *_rows_as_columns(rows, n)) == bytes(
            not s.accepts(*row) for row in rows)


WIDE_COLUMN_FIELDS = [FieldSpec(5, 2), FieldSpec(3, 3), FieldSpec(2, 5),
                      FieldSpec(7, 2), FieldSpec(3, 5), FieldSpec(2, 8)]


@pytest.mark.parametrize("spec", WIDE_COLUMN_FIELDS, ids=lambda s: f"q{s.q}")
def test_wide_column_verdict_matches_accepts(spec):
    # 16 < Q <= 256: pairs in 16-bit lanes, gathered from the win matrix;
    # batches of 0, 1 and 2 rows (itemgetter needs an index and gives a
    # scalar for one), of 200, and of 1000 on the longest towers, and
    # every input while 2*Q^n <= 4096 (the verdict table where it fits)
    q = spec.q
    rng = random.Random(f"wide-columns:{q}")
    for s in _towers(spec, rng):
        assert s.columnar
        n = s.n_challenges
        if 2 * q ** n <= 4096:
            verdicts = _verdicts(s)
            assert verdicts == bytes(
                s.accepts(d, row) for d in (0, 1)
                for row in itertools.product(range(q), repeat=n))
            assert s.verdict_table == (
                verdicts if 2 * q ** n <= adversary.MC_TABLE_CAP else None)
        for size in (0, 1, 2, 1000 if s.m == 13 else 200):
            rows = _random_rows(rng, q, n, size)
            assert _rejected_bytes(s, *_rows_as_columns(rows, n)) == bytes(
                not s.accepts(*row) for row in rows)


def test_wide_product_table_is_the_field_product():
    for spec in (FIELDS[2], FIELDS[3], FieldSpec(2, 4), *WIDE_COLUMN_FIELDS):
        q = spec.q
        s = build_attack(spec, Variant.SYMMETRIZED, 5, CausalModel(rho=4),
                         DetStrategy.zeros(spec))
        want = bytes(spec.mul(x, y) for x in range(q) for y in range(q))
        assert s._product_table == want.ljust(256, b"\0")


def test_wide_exact_matches_closed_form():
    # every d = 1 input of GF(27) towers with a silent prefix challenge
    # (27^4 rows in 27 column chunks) and with the standard variant's
    # silent final round; the bare one-step tower is in the routing test
    spec, rng = FieldSpec(3, 3), random.Random("wide-exact")
    for variant, m, model in [(Variant.SYMMETRIZED, 4, CausalModel(2, 1)),
                              (Variant.STANDARD, 4, CausalModel(2, 0))]:
        game = DetStrategy.random(spec, rng)
        s = build_attack(spec, variant, m, model, game)
        assert s.columnar and s._step_plan[1]
        assert exact_cheat_probability(s) == predicted_attack_probability(
            spec, variant, m, model, game)


@pytest.mark.parametrize("spec", COLUMN_FIELDS, ids=lambda s: f"q{s.q}")
def test_column_verdict_matches_accepts_on_the_largest_enumeration(spec):
    # the longest rho = 2 standard tower whose 2*Q^n inputs stay below
    # 10^5, every d = 1 input
    q = spec.q
    m = max(m for m in range(3, 18) if 2 * q ** (m - 1) <= 10 ** 5)
    s = build_attack(spec, Variant.STANDARD, m, CausalModel(rho=2, k0=0),
                     DetStrategy.random(spec, random.Random(f"large:{q}")))
    assert s.game_strategy is not None
    got = b"".join(_rejected_bytes(s, b"\1" * len(xs[0]), xs)
                   for xs in _product_columns(q, s.n_challenges))
    assert got == bytes(not s.accepts(1, row) for row in itertools.product(
        range(q), repeat=s.n_challenges))


def test_product_columns_run_through_product_order(monkeypatch):
    # byte columns up to Q = 256 and int arrays beyond, in chunks of at
    # most _CHUNK_ROWS rows
    for q, n, chunk_rows in ((2, 5, 10), (3, 4, 10), (16, 2, 10),
                             (5, 1, 10), (300, 2, 600)):
        monkeypatch.setattr(adversary, "_CHUNK_ROWS", chunk_rows)
        chunks = list(_product_columns(q, n))
        assert {type(x) for xs in chunks for x in xs} == {
            bytes if q <= 256 else array}
        assert max(len(xs[0]) for xs in chunks) <= chunk_rows
        assert [row for xs in chunks for row in zip(*xs)] == list(
            itertools.product(range(q), repeat=n))


@pytest.mark.parametrize("chunk_rows", [None, 8], ids=["natural", "small"])
def test_chunked_exact_matches_closed_form(chunk_rows, monkeypatch):
    # GF(3) at n = 11: the d = 1 inputs span three 3^10-row chunks; with
    # 8-row chunks every case spans many, and the chunk boundaries cut
    # through windows and steps
    if chunk_rows:
        monkeypatch.setattr(adversary, "_CHUNK_ROWS", chunk_rows)
        cases = [(FIELDS[2], Variant.STANDARD, 9, CausalModel(2, 1)),
                 (FIELDS[3], Variant.SYMMETRIZED, 7, CausalModel(4, 2)),
                 (FIELDS[4], Variant.SYMMETRIZED, 6, CausalModel(2, 0))]
    else:
        cases = [(FIELDS[3], Variant.SYMMETRIZED, 11, CausalModel(2, 0))]
    rng = random.Random(f"chunks:{chunk_rows}")
    for spec, variant, m, model in cases:
        game = DetStrategy.random(spec, rng)
        s = build_attack(spec, variant, m, model, game)
        assert len(list(_product_columns(spec.q, s.n_challenges))) > 1
        assert exact_cheat_probability(s) == predicted_attack_probability(
            spec, variant, m, model, game)


def _reference_mc_wins(s, samples, seed):
    return sum(s.accepts(d, xs) for d, xs in reference_transcripts(
        random.Random(f"{seed}:mc:{s.params.m}"), s.field.q, s.n_challenges,
        samples))


@pytest.mark.parametrize("spec, variant, m, model", [
    (FIELDS[2], Variant.SYMMETRIZED, 13, CausalModel(2, 1)),
    (FIELDS[3], Variant.STANDARD, 9, CausalModel(4, 0)),
    (FIELDS[5], Variant.SYMMETRIZED, 8, CausalModel(2, 2)),
    (FIELDS[7], Variant.STANDARD, 6, CausalModel(2, 0)),
    (FIELDS[9], Variant.SYMMETRIZED, 16, CausalModel(4, 1)),
    (FieldSpec(2, 4), Variant.STANDARD, 31, CausalModel(2, 0)),
    (FieldSpec(3, 3), Variant.SYMMETRIZED, 11, CausalModel(4, 1)),
    (FieldSpec(2, 8), Variant.SYMMETRIZED, 31, CausalModel(2, 0)),
], ids=["q2", "q3-rho4", "q5", "q7", "q9-rho4", "q16-m31", "q27-rho4",
        "q256-m31"])
def test_column_mc_wins_match_accepts_loop(spec, variant, m, model):
    s = build_attack(spec, variant, m, model,
                     DetStrategy.random(spec, random.Random(f"mc:{m}")))
    assert s.columnar and s.verdict_table is None
    for seed in range(3):
        assert mc_cheat_probability(s, 500, seed).wins \
            == _reference_mc_wins(s, 500, seed)


@pytest.mark.parametrize("spec, variant, m, seed", [
    (FIELDS[3], Variant.SYMMETRIZED, 8, 3187),
    (FieldSpec(2, 4), Variant.STANDARD, 5, 22),
    (FIELDS[5], Variant.SYMMETRIZED, 6, 1005),
], ids=["q3", "q16", "q5"])
def test_column_mc_refills_when_first_block_is_short(spec, variant, m, seed,
                                                     monkeypatch):
    # in 5-word blocks the bits and the challenges of the 100 rows span
    # many blocks, and each read carries the rest of its last block into
    # the next: the wins are those of full-size blocks
    s = build_attack(spec, variant, m, CausalModel(),
                     DetStrategy.random(spec, random.Random(1)))
    want = mc_cheat_probability(s, 100, seed).wins
    monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", 5)
    rng = _CountingRandom(f"{seed}:mc:{m}")
    rejected = _column_rejections(s, rng, 100)
    assert rng.calls > 100 * s.n_challenges // 20
    assert 100 - rejected == _reference_mc_wins(s, 100, seed) == want


def test_column_mc_spans_many_small_blocks(monkeypatch):
    # small blocks and 64-row chunks: the 400 rows are judged in 7 chunks
    monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", 61)
    monkeypatch.setattr(adversary, "_CHUNK_ROWS", 64)
    s = build_attack(FIELDS[7], Variant.SYMMETRIZED, 9, CausalModel(4, 1),
                     DetStrategy.random(FIELDS[7], random.Random(7)))
    rng = _CountingRandom("7:mc:9")
    rejected = _column_rejections(s, rng, 400)
    assert rng.calls > 10
    assert 400 - rejected == _reference_mc_wins(s, 400, 7)


def test_per_transcript_path_beyond_q256_and_without_a_step_plan(
        monkeypatch):
    calls = []
    accepts = CheatStrategy.accepts

    def spy(self, d, xs):
        calls.append(self.field.q)
        return accepts(self, d, xs)

    monkeypatch.setattr(CheatStrategy, "accepts", spy)
    gf16, gf27, gf256 = FieldSpec(2, 4), FieldSpec(3, 3), FieldSpec(2, 8)
    gf512, gf65536 = FieldSpec(2, 9), FieldSpec(2, 16)
    rng = random.Random("spy")

    def tower(spec, variant, m):
        return build_attack(spec, variant, m, CausalModel(),
                            DetStrategy.random(spec, rng))

    # towers over Q <= 256 judge columns, in byte lanes up to Q = 16 and
    # in 16-bit lanes beyond: no accepts call
    exact_cheat_probability(tower(gf16, Variant.STANDARD, 4))
    mc_cheat_probability(tower(gf16, Variant.STANDARD, 6), 200)
    gf4 = tower(FIELDS[4], Variant.SYMMETRIZED, 5)
    gf4_verdicts = _verdicts(gf4)
    wide = tower(gf27, Variant.SYMMETRIZED, 3)
    assert wide.columnar
    assert exact_cheat_probability(wide) == predicted_attack_probability(
        gf27, Variant.SYMMETRIZED, 3, CausalModel(), wide.game_strategy)
    mc_cheat_probability(wide, 200)
    mc_cheat_probability(tower(gf256, Variant.SYMMETRIZED, 31), 100)
    assert calls == []
    assert gf4_verdicts == bytes(accepted_inputs(gf4))
    calls.clear()
    # Q = 2^9 and Q = 2^16 play each transcript
    big = tower(gf512, Variant.SYMMETRIZED, 3)
    assert not big.columnar
    mc_cheat_probability(big, 200)
    mc_cheat_probability(tower(gf65536, Variant.SYMMETRIZED, 31), 100)
    assert calls == [512] * 200 + [65536] * 100
    # so does a strategy with no step plan, at any Q
    calls.clear()
    lifted = symmetrize_up(tower(gf16, Variant.STANDARD, 6))
    small = symmetrize_up(tower(FIELDS[2], Variant.STANDARD, 4))
    assert not lifted.columnar and not small.columnar
    mc_cheat_probability(lifted, 200)
    exact_cheat_probability(small)
    assert len(small.verdict_table) == 2 * 2 ** 4
    assert calls == [16] * 200 + [2] * (2 * 2 * 2 ** 4)


def test_rejected_rows_judges_a_strategy_that_is_not_columnar():
    # a tower beyond Q = 256, and strategies with no step plan: a lifted
    # tower, a copy of a tower (dataclasses.replace) and a copy whose
    # steps play other tables than its game_strategy.  rejected_rows
    # plays each row of a drawn batch through accepts.  Only a builder
    # hands a strategy its plan, so the copies take the chain of their
    # own rounds: the plain copy judges every input as the tower does.
    spec = FIELDS[3]
    rng = random.Random("not-columnar")
    game, other = DetStrategy.random(spec, rng), DetStrategy.random(spec, rng)
    tower = build_attack(spec, Variant.SYMMETRIZED, 6, CausalModel(), game)
    copied = dataclasses.replace(tower)
    off_game = dataclasses.replace(tower, rounds=tuple(
        _GameRound(spec, fn.prefix, other.s1 if fn.last is None
                   else other.s2, fn.window, fn.last)
        if isinstance(fn, _GameRound) else fn for fn in tower.rounds))
    big_spec = FieldSpec(2, 9)
    big = build_attack(big_spec, Variant.SYMMETRIZED, 3, CausalModel(),
                       DetStrategy.random(big_spec, rng))
    lifted = symmetrize_up(build_attack(spec, Variant.STANDARD, 6,
                                        CausalModel(), game))
    for i, s in enumerate((big, lifted, copied, off_game)):
        assert not s.columnar
        (d, xs), = _drawn_columns(random.Random(f"rows:{i}"), s.field.q,
                                  s.n_challenges, 300)
        want = bytes(not s.accepts(*row) for row in zip(d, zip(*xs)))
        assert 0 < want.count(1) < 300
        assert _rejected_bytes(s, d, xs) == want
    assert tower.columnar
    assert copied._step_plan is None and off_game._step_plan is None
    assert _verdicts(copied) == _verdicts(tower) == bytes(
        accepted_inputs(tower))
    inputs = list(itertools.product(range(spec.q), repeat=6))
    assert _verdicts(off_game) == bytes(
        off_game._chain(d, xs, 6)[-1] == 0 for d in (0, 1) for xs in inputs)


def test_enumeration_beyond_q256_plays_int_columns_through_accepts():
    # beyond Q = 256 _product_columns gives int arrays, whose rows the
    # batch verdict plays through accepts: the all-zeros strategy over
    # GF(512), symmetrized m = 2 (2*512^2 inputs), is exactly its closed
    # form, and the standard m = 2 one (n = 1) enumerates its 1024 inputs
    # through accepts
    spec, model = FieldSpec(2, 9), CausalModel()
    zeros = DetStrategy.zeros(spec)
    s = build_attack(spec, Variant.SYMMETRIZED, 2, model, zeros)
    assert not s.columnar
    assert exact_cheat_probability(s) == Fraction(263167, 524288) \
        == predicted_attack_probability(spec, Variant.SYMMETRIZED, 2, model,
                                        zeros)
    standard = build_attack(spec, Variant.STANDARD, 2, model, zeros)
    verdicts = _verdicts(standard)
    assert standard.n_challenges == 1 and len(verdicts) == 1024
    assert verdicts == bytes(accepted_inputs(standard))


def test_columnar_is_settled_once_per_strategy():
    spec = FieldSpec(3, 3)
    s = build_attack(spec, Variant.SYMMETRIZED, 6, CausalModel(),
                     DetStrategy.zeros(spec))
    assert "columnar" not in vars(s)
    assert s.columnar and vars(s)["columnar"] is True


def test_wide_estimate_keeps_no_square_table():
    # the GF(256), m = 31 estimate reads game_strategy.wins in place: with
    # the win matrix built beforehand, neither the attack nor the estimate
    # holds a Q^2 (65536-byte) table of its own
    spec = FieldSpec(2, 8)
    game = DetStrategy.random(spec, random.Random("square"))
    assert len(game.wins) == spec.q ** 2
    tracemalloc.start()
    try:
        attack = build_attack(spec, Variant.SYMMETRIZED, 31, CausalModel(),
                              game)
        est = mc_cheat_probability(attack, 1000, 1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert attack.columnar and est.wins == _reference_mc_wins(attack, 1000, 1)
    assert kept < spec.q ** 2 // 4


@pytest.mark.parametrize("m", [6, 9])
def test_tower_off_its_game_strategy_takes_accepts(m):
    # a tower whose later steps play other tables than its game_strategy,
    # as dataclasses.replace can make: one lost table, read off
    # game_strategy, would misjudge it, and the copy carries no plan, so
    # it is not columnar, and exact enumeration, the verdict table (m = 6)
    # and Monte Carlo on drawn transcripts (m = 9) follow the chain of its
    # own rounds
    spec, rng = FIELDS[3], random.Random(f"off-game:{m}")
    game, other = DetStrategy.random(spec, rng), DetStrategy.random(spec, rng)
    tower = build_attack(spec, Variant.SYMMETRIZED, m, CausalModel(), game)

    def replay(fn):
        if not isinstance(fn, _GameRound) or fn.prefix == 0:
            return fn
        table = other.s1 if fn.last is None else other.s2
        return _GameRound(spec, fn.prefix, table, fn.window, fn.last)

    altered = dataclasses.replace(tower, rounds=tuple(map(replay,
                                                          tower.rounds)))
    assert altered._step_plan is None
    assert tower.columnar and not altered.columnar

    def chain_accepts(d, xs):
        return altered._chain(d, xs, len(altered.rounds))[-1] == 0

    q, n = spec.q, altered.n_challenges
    inputs = [(d, xs) for d in (0, 1)
              for xs in itertools.product(range(q), repeat=n)]
    chain = bytes(chain_accepts(d, xs) for d, xs in inputs)
    assert chain != bytes(tower.accepts(d, xs) for d, xs in inputs)
    assert _verdicts(altered) == chain
    assert exact_cheat_probability(altered) == Fraction(chain.count(1),
                                                        len(chain))
    for seed in range(3):
        if len(chain) <= adversary.MC_TABLE_CAP:
            assert altered.verdict_table == chain
            want = reference_table_wins(chain, 500,
                                        random.Random(f"{seed}:mc:{m}"))
        else:
            assert altered.verdict_table is None
            want = sum(chain_accepts(d, xs) for d, xs in reference_transcripts(
                random.Random(f"{seed}:mc:{m}"), q, n, 500))
        assert mc_cheat_probability(altered, 500, seed).wins == want


def test_sweep_builds_the_plugged_win_matrix_once(monkeypatch):
    # the 28 towers of a GF(16) sweep over m = 4..31 read one lost table
    # off the plugged strategy's win matrix, which is built once
    built = []
    wins = DetStrategy.wins.func

    def counted(self):
        built.append(self)
        return wins(self)

    counted_wins = cached_property(counted)
    counted_wins.__set_name__(DetStrategy, "wins")
    monkeypatch.setattr(DetStrategy, "wins", counted_wins)
    spec = FieldSpec(2, 4)
    game = DetStrategy.random(spec, random.Random("sweep"))
    rows = trend_sweep(spec, range(4, 32), game, samples=200, seed=1)
    assert [row.m for row in rows] == list(range(4, 32))
    assert built == [game]
