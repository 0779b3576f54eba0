"""The fast paths against straightforward references.

The greedy best response must return the same table and score as the
original O(Q^3) pair of routines, kept verbatim below; the tower's carried
eta must give the same responses as recomputing compute_eta from scratch at
every tower round.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc import (
    CausalModel,
    DetStrategy,
    FieldSpec,
    GameDist,
    Variant,
    build_attack,
    compute_eta,
)
from relbc.games import _greedy_best

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
    rng = random.Random(f"greedy:{q}")
    for gamma in _gammas(q):
        w, _den = GameDist(spec, gamma).weights()
        for table in _tables(spec, rng):
            assert _greedy_best(spec, table, w) == _greedy_best_s2(spec, table, w)
            assert _greedy_best(spec, table, w) == _greedy_best_s1(spec, table, w)


def test_greedy_best_breaks_ties_to_smallest_index():
    spec = FIELDS[5]
    w, _den = GameDist.uniform(spec).weights()
    # against all zeros, every nonzero y sees each answer win exactly once
    table, _score = _greedy_best(spec, (0,) * 5, w)
    assert table == (0,) * 5


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
