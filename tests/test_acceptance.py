"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with
`pytest -s`) and enforces its runtime budget.  All equalities are exact
rational comparisons unless a tolerance is stated inline.
"""

import itertools
import random
import time
from fractions import Fraction

from relbc import (
    CausalModel,
    CheatStrategy,
    DetStrategy,
    FieldSpec,
    GameDist,
    ProtocolParams,
    Variant,
    attack_base,
    attack_general,
    best_response_search,
    brute_force_value,
    desymmetrize,
    exact_cheat_probability,
    extend_symmetrized,
    hiding_distributions,
    mc_cheat_probability,
    shift_strategy,
    theory_lower_bound,
    tower_gamma,
    trend_sweep,
    verify_values,
    win_probability,
    zeros_strategy,
)

from oracles import causality_check, symmetrize_up

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


class budget:
    """Context manager asserting a wall-clock limit and printing the verdict."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number:2d} [{elapsed:6.2f}s]:"
              f" {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
                f" ({elapsed:.2f}s)")


def test_criterion_01_field_axioms():
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2)]
    with budget(1, "field axioms on GF(2..25), 10^4 triples each", 5):
        for p, n in fields:
            spec = FieldSpec(p, n)
            q = spec.q
            rng = random.Random(f"acceptance-axioms:{q}")
            for _ in range(10 ** 4):
                a, b, c = (rng.randrange(q) for _ in range(3))
                assert spec.add(a, b) == spec.add(b, a)
                assert spec.mul(a, b) == spec.mul(b, a)
                assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) \
                    == spec.add(spec.mul(a, b), spec.mul(a, c))
                assert spec.add(a, spec.neg(a)) == 0
                if a:
                    assert spec.mul(a, spec.inv(a)) == 1


def _pair_enumeration_value(dist):
    """Independent oracle: maximize over every (s1, s2) pair directly."""
    q = dist.field.q
    best = Fraction(0)
    for s1 in itertools.product(range(q), repeat=q):
        for s2 in itertools.product(range(q), repeat=q):
            v = win_probability(DetStrategy(dist.field, s1, s2), dist)
            if v > best:
                best = v
    return best


def test_criterion_02_game_value_ground_truth():
    with budget(2, "game values: Q=2 exact, Q=3 oracle, Q=4 search", 32):
        t0 = time.time()
        assert brute_force_value(GameDist.uniform(GF2)).value == Fraction(3, 4)
        assert time.time() - t0 < 1

        t0 = time.time()
        dist3 = GameDist.uniform(GF3)
        assert brute_force_value(dist3).value == _pair_enumeration_value(dist3)
        assert time.time() - t0 < 1

        t0 = time.time()
        gf4 = FieldSpec(2, 2)
        dist4 = GameDist.uniform(gf4)
        brute = brute_force_value(dist4).value
        searched = best_response_search(dist4, restarts=64, seed=0).value
        assert searched == brute
        assert time.time() - t0 < 30


def test_criterion_03_biased_game_and_shift_average():
    with budget(3, "zero-biased value dominance and shift averaging", 10):
        for spec in (GF2, GF3):
            uniform_value = brute_force_value(GameDist.uniform(spec)).value
            for gamma in (Fraction(1, 2), Fraction(3, 4)):
                biased = brute_force_value(GameDist(spec, gamma)).value
                assert biased >= uniform_value
        rng = random.Random("acceptance-shift-average")
        for _ in range(20):
            spec = GF3
            s = DetStrategy.random(spec, rng)
            gamma = rng.choice((Fraction(1, 2), Fraction(3, 4)))
            dist = GameDist(spec, gamma)
            q = spec.q
            total = sum(win_probability(shift_strategy(s, u, v), dist)
                        for u in range(q) for v in range(q))
            assert total / q ** 2 \
                == win_probability(s, GameDist.uniform(spec))


def test_criterion_04_attack_tower_exactness():
    with budget(4, "tower attack values 15/16, 127/128, 1023/1024", 1):
        opt = brute_force_value(GameDist.uniform(GF2)).strategy
        w = win_probability(opt, GameDist.uniform(GF2))
        expected = {3: Fraction(15, 16)}
        # step recurrence: 1 - g_{k+3} = (1 - 1/Q)(1 - w)(1 - g_k)
        factor = (1 - Fraction(1, 2)) * (1 - w)
        expected[6] = 1 - factor * (1 - expected[3])
        expected[9] = 1 - factor * (1 - expected[6])
        assert expected == {3: Fraction(15, 16), 6: Fraction(127, 128),
                            9: Fraction(1023, 1024)}
        for m, want in expected.items():
            got = exact_cheat_probability(attack_base(GF2, m, opt))
            assert got == want, (m, got, want)


def _random_full_information_strategy(spec, m, seed):
    """Standard-variant strategy whose rounds are arbitrary deterministic
    functions of the committed bit and the challenges received so far."""

    def make(k):
        def fn(d, xs, etas):
            key = f"{seed}:{k}:{d}:{xs[:min(k, len(xs))]}"
            return random.Random(key).randrange(spec.q)
        return fn

    return CheatStrategy(spec, Variant.STANDARD, m, CausalModel(),
                         tuple(make(k) for k in range(1, m + 1)))


def test_criterion_05_symmetrization_chain():
    with budget(5, "symmetrization sandwich g_m <= g'_m <= g_{m+1}", 30):
        for spec, m in ((GF2, 4), (GF3, 3)):
            q = spec.q
            for trial in range(20):
                std = _random_full_information_strategy(spec, m, trial)
                sym = symmetrize_up(std)
                longer = desymmetrize(sym)
                p_std = std.params
                p_sym = sym.params
                p_long = longer.params
                for d in (0, 1):
                    for xs in itertools.product(range(q), repeat=m - 1):
                        std_wins = verify_values(p_std, d, xs,
                                                 std.responses(d, xs))
                        for x_last in range(q):
                            ext = xs + (x_last,)
                            sym_wins = verify_values(p_sym, d, ext,
                                                     sym.responses(d, ext))
                            long_wins = verify_values(p_long, d, ext,
                                                      longer.responses(d, ext))
                            # winning-set inclusion and pointwise equality
                            assert not std_wins or sym_wins
                            assert sym_wins == long_wins
                g_m = exact_cheat_probability(std)
                g_sym = exact_cheat_probability(sym)
                g_next = exact_cheat_probability(longer)
                assert g_m <= g_sym == g_next


def test_accepts_matches_verify_values_on_full_information_strategies():
    # the one-pass verdict against the verifier on the lifted, extended and
    # desymmetrized forms of arbitrary (non-causal) strategies
    for spec, m in ((GF2, 4), (GF3, 3)):
        for trial in range(5):
            std = _random_full_information_strategy(spec, m, trial)
            sym = symmetrize_up(std)
            for s in (std, sym, desymmetrize(sym), extend_symmetrized(sym, 2)):
                params = s.params
                for d in (0, 1):
                    for xs in itertools.product(range(spec.q),
                                                repeat=params.n_challenges):
                        assert s.accepts(d, xs) == verify_values(
                            params, d, xs, s.responses(d, xs)), (s.lineage, xs)


def test_criterion_06_generalized_attack():
    with budget(6, "slow-propagation attack value and base specialization", 5):
        model = CausalModel(rho=4, k0=0)
        gamma = tower_gamma(GF2, model)
        assert gamma == Fraction(3, 4)
        plugged = brute_force_value(GameDist(GF2, gamma)).strategy
        w_gamma = win_probability(plugged, GameDist(GF2, gamma))
        got = exact_cheat_probability(attack_general(GF2, 5, model, plugged))
        assert got == 1 - Fraction(1, 2) * Fraction(1, 2) * (1 - w_gamma)

        opt = brute_force_value(GameDist.uniform(GF2)).strategy
        for m in (3, 6):
            a = attack_base(GF2, m, opt)
            b = attack_general(GF2, m, CausalModel(rho=2, k0=0), opt)
            for d in (0, 1):
                for xs in itertools.product(range(2), repeat=m):
                    assert a.responses(d, xs) == b.responses(d, xs)


def test_criterion_07_perfect_hiding():
    with budget(7, "exact hiding on all pre-reveal prefixes", 30):
        for spec, max_m in ((GF2, 4), (GF3, 3)):
            for m in range(1, max_m + 1):
                for variant in (Variant.STANDARD, Variant.SYMMETRIZED):
                    if variant is Variant.SYMMETRIZED and m < 2:
                        continue
                    params = ProtocolParams(spec, m, variant)
                    *views, full = hiding_distributions(
                        params, range(1, params.n_rounds + 1))
                    for dist in views:
                        assert dist[0] == dist[1]
                    assert full[0] != full[1]


def test_criterion_08_causality_compliance():
    with budget(8, "constructed attacks causal; mutant detected", 10):
        opt2 = brute_force_value(GameDist.uniform(GF2)).strategy
        opt3 = brute_force_value(GameDist.uniform(GF3)).strategy
        slow = CausalModel(rho=4, k0=0)
        plugged = brute_force_value(GameDist(GF2, tower_gamma(GF2, slow))).strategy
        attacks = [
            attack_base(GF2, 6, opt2),
            attack_base(GF3, 3, opt3),
            attack_general(GF2, 5, slow, plugged),
            attack_general(GF2, 8, CausalModel(rho=2, k0=2), opt2),
            zeros_strategy(GF2, Variant.SYMMETRIZED, 5),
        ]
        for s in attacks:
            report = causality_check(s, trials=1000, seed=0)
            assert report.ok, report.violations[:3]

        def peek(d, xs, etas):
            return xs[2]  # future challenge, invisible at round 1

        mutant = CheatStrategy(GF2, Variant.SYMMETRIZED, 3, CausalModel(),
                               (peek, lambda d, xs, c: 0,
                                lambda d, xs, c: 0))
        assert not causality_check(mutant, trials=1000, seed=0).ok


def test_criterion_09_monte_carlo_soundness():
    with budget(9, "127/128 inside the 99% CI in >= 195 of 200 runs", 60):
        opt = brute_force_value(GameDist.uniform(GF2)).strategy
        s = attack_base(GF2, 6, opt)
        exact = exact_cheat_probability(s)
        assert exact == Fraction(127, 128)
        hits = sum(
            mc_cheat_probability(s, samples=10 ** 4, seed=seed).covers(exact)
            for seed in range(200))
        assert hits >= 195, f"coverage {hits}/200"


def test_criterion_10_attack_trend():
    with budget(10, "Q=16 sweep m=4..31 monotone and above lower bound", 600):
        gf16 = FieldSpec(2, 4)
        searched = best_response_search(GameDist.uniform(gf16),
                                        restarts=64, seed=0)
        w = searched.value
        # the all-zeros strategy already wins 1-(15/16)^2 = 31/256
        assert w >= Fraction(31, 256)
        rows = trend_sweep(gf16, range(4, 32), searched.strategy,
                               seed=0, samples=4000)
        values = [row.closed_form for row in rows]
        assert values == sorted(values)  # non-decreasing
        for row in rows:
            assert row.closed_form >= theory_lower_bound(row.m, 16, w)
            if row.exact is not None:
                assert row.exact == row.closed_form
            else:
                assert row.mc.covers(row.closed_form)
