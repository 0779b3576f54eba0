"""Nonlocal game machinery: distributions, strategies, values, shifts."""

import itertools
import random
from fractions import Fraction

import pytest

from relbc import (
    CapabilityError,
    CausalModel,
    DetStrategy,
    FieldMismatchError,
    FieldSpec,
    GameDist,
    best_response_search,
    best_shift,
    brute_force_value,
    shift_strategy,
    tower_gamma,
    win_probability,
)
from relbc import games

from oracles import confirm_both_search

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2)


def exhaustive_value(dist):
    """Independent oracle: score every (s1, s2) pair directly."""
    q = dist.field.q
    best = Fraction(0)
    for s1 in itertools.product(range(q), repeat=q):
        for s2 in itertools.product(range(q), repeat=q):
            v = win_probability(DetStrategy(dist.field, s1, s2), dist)
            if v > best:
                best = v
    return best


def test_uniform_dist_masses():
    dist = GameDist.uniform(GF3)
    assert dist.is_uniform
    assert dist.mass(0) == dist.mass(1) == dist.mass(2) == Fraction(1, 3)


def test_biased_dist_masses():
    dist = GameDist(GF3, Fraction(1, 2))
    assert dist.mass(0) == Fraction(1, 2)
    assert dist.mass(1) == dist.mass(2) == Fraction(1, 4)
    assert not dist.is_uniform
    assert sum(dist.mass(x) for x in range(3)) == 1


def test_dist_rejects_bad_gamma():
    with pytest.raises(ValueError):
        GameDist(GF2, Fraction(3, 2))
    with pytest.raises(ValueError):
        GameDist(GF2, Fraction(-1, 4))


def test_win_probability_zeros_strategy():
    # all-zeros wins exactly when x*y = 0: 1 - ((Q-1)/Q)^2
    assert win_probability(DetStrategy.zeros(GF2),
                           GameDist.uniform(GF2)) == Fraction(3, 4)
    assert win_probability(DetStrategy.zeros(GF3),
                           GameDist.uniform(GF3)) == Fraction(5, 9)
    assert win_probability(DetStrategy.zeros(GF4),
                           GameDist.uniform(GF4)) == Fraction(7, 16)


@pytest.mark.parametrize("strategy_field, dist_field", [(GF4, GF2), (GF3, GF4)],
                         ids=["GF4-vs-GF2", "GF3-vs-GF4"])
def test_strategy_and_dist_fields_must_match(strategy_field, dist_field):
    s = DetStrategy.zeros(strategy_field)
    dist = GameDist(dist_field, Fraction(3, 4))
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        win_probability(s, dist)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        best_shift(s, dist)


def test_win_probability_matches_direct_sum():
    rng = random.Random("direct")
    dist = GameDist(GF3, Fraction(1, 2))
    for _ in range(20):
        s = DetStrategy.random(GF3, rng)
        direct = sum(dist.mass(x) * dist.mass(y)
                     for x in range(3) for y in range(3)
                     if GF3.add(s.s1[x], s.s2[y]) == GF3.mul(x, y))
        assert win_probability(s, dist) == direct


def test_brute_force_uniform_q2():
    result = brute_force_value(GameDist.uniform(GF2))
    assert result.value == Fraction(3, 4)
    assert result.method == "brute_force"
    assert win_probability(result.strategy, GameDist.uniform(GF2)) == result.value


def test_brute_force_q3_matches_pair_enumeration():
    dist = GameDist.uniform(GF3)
    assert brute_force_value(dist).value == exhaustive_value(dist)


def test_brute_force_biased_q2_matches_pair_enumeration():
    dist = GameDist(GF2, Fraction(3, 4))
    result = brute_force_value(dist)
    assert result.value == exhaustive_value(dist) == Fraction(15, 16)


@pytest.mark.parametrize("gamma, value, s1, s2", [
    (Fraction(1, 7), Fraction(19, 49),
     (0, 0, 0, 0, 1, 2, 5), (0, 3, 0, 6, 1, 5, 0)),
    (Fraction(13, 49), Fraction(1152, 2401),  # the rho = 4 tower gamma
     (0, 1, 1, 1, 1, 1, 1), (6, 0, 0, 0, 0, 0, 0)),
], ids=["uniform", "tower-rho4"])
def test_brute_force_gf7_golden_results(gamma, value, s1, s2):
    # pinned from the per-table greedy loop the depth-first walk replaced
    gf7 = FieldSpec(7)
    result = brute_force_value(GameDist(gf7, gamma))
    assert result.value == value
    assert (result.strategy.s1, result.strategy.s2) == (s1, s2)
    # the uniform walk also fixes s1(1) = 0
    walked = 7 ** 5 if gamma == Fraction(1, 7) else 7 ** 6
    assert result.meta == {"q": 7, "tables_scored": 7 ** 6,
                           "tables_walked": walked}
    assert win_probability(result.strategy, GameDist(gf7, gamma)) == value


def test_brute_force_uniform_gf8_golden_result():
    # the same table as a run of the s1(0) = 0 walk with its cap lifted
    gf8 = FieldSpec(2, 3)
    result = brute_force_value(GameDist.uniform(gf8))
    assert result.value == Fraction(3, 8)
    assert result.strategy.s1 == (0, 0, 0, 0, 1, 2, 5, 3)
    assert result.meta == {"q": 8, "tables_scored": 8 ** 7,
                           "tables_walked": 8 ** 6}
    assert win_probability(result.strategy, GameDist.uniform(gf8)) == result.value


def test_brute_force_cap(monkeypatch):
    # uniform games are capped at 9, before any table is built
    def no_tables(spec):
        raise AssertionError("tables built past the cap")
    monkeypatch.setattr(games, "_game_tables", no_tables)
    with pytest.raises(CapabilityError, match="capped at Q <= 9"):
        brute_force_value(GameDist.uniform(FieldSpec(11)))


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (5, 2), (3, 3),
                                  (2, 5), (3, 5), (2, 8)])
def test_game_tables_match_field_calls(p, n):
    # the rows composed from powers of g and the successor row hold x*y and
    # c - o at every entry
    spec = FieldSpec(p, n)
    q = spec.q
    prod, minus = games._game_tables(spec)
    assert len(prod) == len(minus) == q
    for y, row in enumerate(prod):
        assert row == tuple(spec.mul(x, y) for x in range(q))
    for o, row in enumerate(minus):
        assert row == tuple(spec.sub(c, o) for c in range(q))


def test_best_response_search_finds_optimum_q2_q3():
    for spec in (GF2, GF3):
        dist = GameDist.uniform(spec)
        searched = best_response_search(dist, restarts=16, seed=3)
        assert searched.value == brute_force_value(dist).value
        assert searched.method == "best_response_search"
        assert searched.strategy.s2[0] == 0  # normalized


def test_best_response_search_deterministic():
    dist = GameDist.uniform(GF4)
    a = best_response_search(dist, restarts=8, seed=5)
    b = best_response_search(dist, restarts=8, seed=5)
    assert a.value == b.value and a.strategy == b.strategy


def test_best_response_search_rejects_bad_counts():
    dist = GameDist.uniform(GF2)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        best_response_search(dist, restarts=0)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        best_response_search(dist, max_iters=0)


def _stop_rule(path, max_iters):
    """(best responses, stopped) of a restart under the search's stop rule,
    read off its confirm-both path [s1 start, s2, s1, s2, ...]: the first
    response j >= 2 that equals path[j - 2] ends the restart."""
    for j in range(2, len(path)):
        if path[j] == path[j - 2]:
            return j, True
    return 2 * max_iters, False


@pytest.mark.parametrize("spec", [FieldSpec(p, n) for p, n in
                                  ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                   (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                   (2, 5), (2, 6))],
                         ids=lambda spec: f"q{spec.q}")
def test_search_stops_where_the_confirm_both_loop_would(spec):
    # the first repeated best response ends a restart at the pair, score and
    # value that confirming both players would give, with fewer responses
    for dist in (GameDist.uniform(spec),
                 GameDist(spec, tower_gamma(spec, CausalModel(rho=4))),
                 GameDist(spec, Fraction(1, 2))):
        for seed in range(4):
            for max_iters in (1, 2, 3, 200):
                r = best_response_search(dist, 4, max_iters, seed)
                value, s1, s2, paths = confirm_both_search(
                    dist, 4, max_iters, seed)
                assert (r.value, r.strategy.s1, r.strategy.s2) \
                    == (value, s1, s2)
                stops = [_stop_rule(path, max_iters) for path in paths]
                assert r.meta["best_responses"] == sum(n for n, _ in stops)
                assert r.meta["converged"] is all(ok for _, ok in stops)


def test_best_response_search_golden_results():
    # pinned from the search run on the per-word reference's starts
    # (oracles.WordStream tries below Q, one at a time); the response
    # counts are the stop rule's on oracles.confirm_both_search's paths
    gf16, gf27 = FieldSpec(2, 4), FieldSpec(3, 3)
    r = best_response_search(GameDist.uniform(gf16), seed=1)
    assert r.value == Fraction(59, 256)
    assert r.strategy.s1 == (2, 4, 3, 1, 0, 10, 6, 0, 6, 14, 0, 12, 0, 4, 0, 0)
    assert r.strategy.s2 == (0, 7, 7, 2, 13, 8, 2, 2, 10, 2, 14, 2, 8, 10, 4, 2)
    assert r.meta["converged"] is True
    assert r.meta["best_responses"] == 54
    dist = GameDist(gf27, tower_gamma(gf27, CausalModel(rho=4)))
    r = best_response_search(dist, seed=3)
    assert r.value == Fraction(29744, 177147)
    assert r.strategy.s1 == (17,) + (0,) * 26
    assert r.strategy.s2 == (0,) + (22,) * 26
    assert r.meta["converged"] is True
    assert r.meta["best_responses"] == 63


def test_best_response_search_cap_builds_no_tables(monkeypatch):
    def no_tables(spec):
        raise AssertionError("tables built past the cap")
    monkeypatch.setattr(games, "_game_tables", no_tables)
    assert FieldSpec(2, 13).q > games.SEARCH_MAX_Q
    with pytest.raises(CapabilityError, match="capped at Q <= 4096"):
        best_response_search(GameDist.uniform(FieldSpec(2, 13)))


@pytest.mark.parametrize("spec", [FieldSpec(2, 3), FieldSpec(3, 2)],
                         ids=["q8", "q9"])
def test_brute_force_refuses_q_above_7(spec, monkeypatch):
    # biased inputs see the shift behind s1(1) = 0, so their walk stays at
    # ~Q^Q steps and their cap at 7
    def no_tables(spec):
        raise AssertionError("tables built past the cap")
    monkeypatch.setattr(games, "_game_tables", no_tables)
    with pytest.raises(CapabilityError, match="capped at Q <= 7"):
        brute_force_value(GameDist(spec, Fraction(1, 2)))


def test_meta_counts_work():
    assert brute_force_value(GameDist.uniform(GF3)).meta == {
        "q": 3, "tables_scored": 9, "tables_walked": 3}
    assert brute_force_value(GameDist(GF3, Fraction(1, 2))).meta == {
        "q": 3, "tables_scored": 9, "tables_walked": 9}
    assert brute_force_value(GameDist.uniform(GF2)).meta == {
        "q": 2, "tables_scored": 2, "tables_walked": 2}
    # one iteration per restart: two best responses each
    r = best_response_search(GameDist.uniform(GF4), restarts=3, max_iters=1)
    assert r.meta["best_responses"] == 6


def test_search_value_is_feasible():
    dist = GameDist(GF4, Fraction(1, 2))
    r = best_response_search(dist, restarts=8, seed=1)
    assert win_probability(r.strategy, dist) == r.value


def test_game_value_result_to_dict():
    d = brute_force_value(GameDist.uniform(GF2)).to_dict()
    assert d["value"] == "3/4"
    assert d["value_float"] == 0.75
    assert d["method"] == "brute_force"


def test_strategy_round_trip():
    rng = random.Random(2)
    s = DetStrategy.random(GF3, rng)
    assert DetStrategy.from_dict(s.to_dict()) == s


@pytest.mark.parametrize("s1, error", [((0.5, 1), TypeError),
                                        (("a", 1), TypeError),
                                        ((0, 2), ValueError),
                                        ((0,), ValueError)])
def test_strategy_rejects_bad_table(s1, error):
    # a float entry used to pass the range check and fail later in ^
    with pytest.raises(error):
        DetStrategy(GF2, s1, (0, 0))


def test_strategy_keeps_a_tuple_of_ints():
    s1, s2 = (0, 1, 2), (2, 2, 0)
    strategy = DetStrategy(GF3, s1, s2)
    assert strategy.s1 is s1 and strategy.s2 is s2


def test_strategy_converts_any_other_table():
    # a list, bools and an int subclass go through operator.index
    class Index(int):
        pass

    strategy = DetStrategy(GF3, [0, 1, 2], (True, Index(2), 0))
    assert strategy.s1 == (0, 1, 2) and strategy.s2 == (1, 2, 0)
    assert {type(v) for v in strategy.s1 + strategy.s2} == {int}
    assert type(strategy.s1) is tuple
    assert strategy == DetStrategy(GF3, (0, 1, 2), (1, 2, 0))


@pytest.mark.parametrize("s1", [(0, 3, 1), [0, 3, 1], (0, -1, 1), [0, -1, 1],
                                (0, 1), [0, 1], (0, 1, 2, 0)])
def test_strategy_range_checks_kept_and_converted_tables(s1):
    with pytest.raises(ValueError, match="valid element indices"):
        DetStrategy(GF3, s1, (0, 0, 0))


def test_shift_identity():
    rng = random.Random(7)
    s = DetStrategy.random(GF3, rng)
    assert shift_strategy(s, 0, 0) == s


@pytest.mark.parametrize("spec, u, v", [(GF4, -1, 0), (GF4, 0, -1), (GF4, 4, 0),
                                         (FieldSpec(2, 5), 0, 40),
                                         (GF4, 2.7, 0), (GF4, 0, "1"),
                                         (GF4, 1.0, 0)])
def test_shift_rejects_out_of_range_index(spec, u, v):
    # negative indices used to read the field tables from the end, and a
    # float or string shift used to be truncated or parsed by int()
    if isinstance(u, int) and isinstance(v, int):
        expected = pytest.raises(ValueError, match="not an element index")
    else:
        expected = pytest.raises(TypeError)
    with expected:
        shift_strategy(DetStrategy.zeros(spec), u, v)


def test_shift_covariance():
    # shifted strategy wins on (x, y) iff the original wins on (x+u, y+v)
    rng = random.Random("cov")
    for spec in (GF3, GF4):
        q = spec.q
        for _ in range(10):
            s = DetStrategy.random(spec, rng)
            u, v = rng.randrange(q), rng.randrange(q)
            shifted = shift_strategy(s, u, v)
            for x in range(q):
                for y in range(q):
                    lhs = (spec.add(shifted.s1[x], shifted.s2[y])
                           == spec.mul(x, y))
                    xu, yv = spec.add(x, u), spec.add(y, v)
                    rhs = (spec.add(s.s1[xu], s.s2[yv]) == spec.mul(xu, yv))
                    assert lhs == rhs


def test_shift_preserves_uniform_value():
    rng = random.Random("uni")
    dist = GameDist.uniform(GF3)
    for _ in range(25):
        s = DetStrategy.random(GF3, rng)
        u, v = rng.randrange(3), rng.randrange(3)
        assert win_probability(shift_strategy(s, u, v), dist) \
            == win_probability(s, dist)


def test_shift_averaging_identity():
    # mean over all Q^2 shifts of the biased value equals the uniform value
    rng = random.Random("avg")
    for gamma in (Fraction(1, 2), Fraction(3, 4)):
        dist = GameDist(GF3, gamma)
        uniform = GameDist.uniform(GF3)
        for _ in range(10):
            s = DetStrategy.random(GF3, rng)
            total = sum(win_probability(shift_strategy(s, u, v), dist)
                        for u in range(3) for v in range(3))
            assert total / 9 == win_probability(s, uniform)


def test_best_shift_beats_uniform_value():
    rng = random.Random("bs")
    dist = GameDist(GF3, Fraction(1, 2))
    uniform = GameDist.uniform(GF3)
    for _ in range(10):
        s = DetStrategy.random(GF3, rng)
        got = best_shift(s, dist)
        assert got.value >= win_probability(s, uniform)
        assert win_probability(got.strategy, dist) == got.value
        assert got.strategy == shift_strategy(s, got.u, got.v)


def test_best_shift_uniform_target_ties():
    s = brute_force_value(GameDist.uniform(GF2)).strategy
    got = best_shift(s, GameDist.uniform(GF2))
    assert got.value == Fraction(3, 4)


def test_biased_optimum_dominates_uniform_optimum():
    for spec in (GF2, GF3):
        base = brute_force_value(GameDist.uniform(spec)).value
        for gamma in (Fraction(1, 2), Fraction(3, 4)):
            assert brute_force_value(GameDist(spec, gamma)).value >= base
