"""Probability measurement, bound formulas, reports and sweeps."""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from click.testing import CliRunner

import relbc
from relbc import (
    CausalModel,
    CheatStrategy,
    DetStrategy,
    FieldSpec,
    GameDist,
    ProtocolParams,
    Variant,
    attack_base,
    best_response_search,
    brute_force_value,
    build_attack,
    clopper_pearson,
    empirical_upper_constant,
    evaluate,
    exact_cheat_probability,
    mc_cheat_probability,
    predicted_attack_probability,
    run_honest,
    theory_lower_bound,
    theory_upper_bound,
    tower_gamma,
    trend_sweep,
    win_probability,
    write_sweep_csv,
    zeros_strategy,
)
from relbc import adversary, protocol
from relbc.adversary import _GameRound
from relbc.analysis import _closed_form, _column_rejections
from relbc.cli import main
from relbc.errors import CapabilityError

from oracles import (build_attack_alone, closed_form_fractions,
                     lower_bound_fractions)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2)
GF16 = FieldSpec(2, 4)
GF256 = FieldSpec(2, 8)
OPT2 = brute_force_value(GameDist.uniform(GF2)).strategy
OPT3 = brute_force_value(GameDist.uniform(GF3)).strategy
BASE = CausalModel()


def test_exact_probability_is_rational():
    g = exact_cheat_probability(attack_base(GF2, 3, OPT2))
    assert isinstance(g, Fraction) and g == Fraction(15, 16)


def test_exact_probability_cap():
    # 2^28 transcripts, past EXACT_ENUM_CAP = 10^8: refused before any
    # enumeration
    s = zeros_strategy(GF2, Variant.SYMMETRIZED, 27)
    with pytest.raises(CapabilityError, match="268435456 transcripts"):
        exact_cheat_probability(s)


def test_clopper_pearson_known_values():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0.05 < hi < 0.06
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and 0.94 < lo < 0.95
    lo, hi = clopper_pearson(50, 100)
    assert lo < 0.5 < hi
    # wider confidence -> wider interval
    lo99, hi99 = clopper_pearson(50, 100, confidence=0.99)
    lo90, hi90 = clopper_pearson(50, 100, confidence=0.90)
    assert lo99 < lo90 and hi90 < hi99


@pytest.mark.parametrize("args", [(5, 3), (-1, 10), (11, 10), (0, 0),
                                  (3, 10, 1.5), (3, 10, 0.0), (3, 10, 1.0),
                                  (3, 10, -0.5), (3, 10, float("nan"))])
def test_clopper_pearson_rejects_bad_input(args):
    with pytest.raises(ValueError):
        clopper_pearson(*args)


@pytest.mark.parametrize("args", [(5.5, 10), ("3", 10), (3, 10.0)])
def test_clopper_pearson_rejects_non_integral_counts(args):
    with pytest.raises(TypeError):
        clopper_pearson(*args)


def _binomial_cdf(n, k, x: Fraction) -> Fraction:
    """P(Bin(n, x) <= k), exactly."""
    num, den = x.numerator, x.denominator
    return Fraction(sum(math.comb(n, j) * num ** j * (den - num) ** (n - j)
                        for j in range(k + 1)), den ** n)


def _crosses(f, x: float, level: Fraction) -> bool:
    """f (monotone) passes level between x (1 - 1e-9) and x (1 + 1e-9)."""
    nudge = Fraction(1, 10 ** 9)
    below, above = f(Fraction(x) * (1 - nudge)), f(Fraction(x) * (1 + nudge))
    return min(below, above) < level < max(below, above)


@pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
def test_clopper_pearson_against_exact_binomial_tail(n):
    """Each endpoint solves its binomial tail equation to 1e-9 relative:
    P(X >= wins | lo) = alpha/2 and P(X <= wins | hi) = alpha/2."""
    grid = {0, 1, 2, n // 3, n // 2, n - 2, n - 1, n}
    for confidence in (0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-10):
        half = (1 - Fraction(confidence)) / 2
        for wins in sorted(w for w in grid if 0 <= w <= n):
            case = (wins, n, confidence)
            lo, hi = clopper_pearson(wins, n, confidence)
            if wins == 0:
                assert lo == 0.0
            else:
                assert _crosses(lambda x: 1 - _binomial_cdf(n, wins - 1, x),
                                lo, half), case
            if wins == n:
                assert hi == 1.0
            else:
                assert _crosses(lambda x: _binomial_cdf(n, wins, x),
                                hi, half), case


def _upper_tail_sign(n, k, x: Fraction, level: Fraction) -> int:
    """The sign of P(Bin(n, x) >= k) - level, exactly, from the n - k + 1
    terms j >= k.  It compares integers: reducing a Fraction over
    denominator**n would spend seconds in its gcd at n = 10**4."""
    num, den = x.numerator, x.denominator
    # acc = sum over j >= k of C(n, j) num^(j-k) rest^(n-j), by Horner in num
    rest, power, acc = den - num, 1, 0
    for j in range(n, k - 1, -1):
        acc = acc * num + math.comb(n, j) * power
        power *= rest
    diff = num ** k * acc * level.denominator - level.numerator * den ** n
    return (diff > 0) - (diff < 0)


@pytest.mark.parametrize("wins", [9900, 9922, 9950, 9990])
def test_clopper_pearson_against_exact_binomial_tail_at_10_4(wins):
    """The Monte Carlo operating point: each endpoint solves its binomial
    tail equation to 1e-9 relative, P(X >= wins | lo) = alpha/2 and
    P(X >= wins + 1 | hi) = 1 - alpha/2, summed over the upper tail only."""
    n = 10 ** 4
    for confidence in (0.99, 1 - 1e-6):
        half = (1 - Fraction(confidence)) / 2
        lo, hi = clopper_pearson(wins, n, confidence)
        assert _crosses(lambda x: _upper_tail_sign(n, wins, x, half),
                        lo, 0), (wins, confidence)
        assert _crosses(lambda x: _upper_tail_sign(n, wins + 1, x, 1 - half),
                        hi, 0), (wins, confidence)


@pytest.mark.parametrize("n", [200] + [10 ** k for k in range(2, 10)])
def test_clopper_pearson_matches_scipy(n):
    """Every endpoint lies within 1e-12 relative of scipy's beta.ppf (lower)
    and beta.isf (upper; ppf of 1 - alpha/2 can round the tail to a
    multiple of 2**-53 before inverting it), at five confidences from 0.9
    to 1 - 1e-10.  Where scipy 1.17.1 is itself the less exact side the
    bound is wider: mid-range endpoints at n >= 10^8 within 5e-12, and at
    confidence 1 - 1e-6 and 1 - 1e-10 for n >= 10^6 within 1e-10 (scipy is
    up to 6.6e-11 off the exact root there).  The upper endpoints at wins
    1-3 for n >= 10^6 are left to the exact tails of the next test: there
    scipy's isf is up to 9e-9 off the exact binomial root."""
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(n)
    drawn = [rng.randrange(n + 1) for _ in range(20)]
    edges = {0, 1, 2, 3, n - 1, n}
    for confidence in (0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-10):
        alpha = 1 - confidence
        for wins in sorted({*edges, n // 2, n - 78, *drawn}):
            lo = 0.0 if wins == 0 else stats.beta.ppf(alpha / 2, wins,
                                                      n - wins + 1)
            hi = 1.0 if wins == n else stats.beta.isf(alpha / 2, wins + 1,
                                                      n - wins)
            rel = 1e-12
            if wins not in edges and n >= 10 ** 6 and confidence > 0.99:
                rel = 1e-10
            elif wins not in edges and n >= 10 ** 8:
                rel = 5e-12
            got = clopper_pearson(wins, n, confidence)
            case = (wins, n, confidence)
            assert got[0] == pytest.approx(lo, rel=rel, abs=0), case
            if not (n >= 10 ** 6 and wins in (1, 2, 3)):
                assert got[1] == pytest.approx(hi, rel=rel, abs=0), case


def _decimal_binomial_cdf(n, k, x: Decimal) -> Decimal:
    """P(Bin(n, x) <= k) to 40 digits, from its k + 1 terms."""
    with localcontext() as ctx:
        ctx.prec = 40
        log_rest = (1 - x).ln()
        return sum(math.comb(n, j) * x ** j * ((n - j) * log_rest).exp()
                   for j in range(k + 1))


@pytest.mark.parametrize("n", [10 ** k for k in range(6, 10)])
def test_clopper_pearson_solves_the_exact_tail_at_huge_n(n):
    """Without scipy: at wins 1-3 each endpoint solves its binomial tail
    equation to 1e-12 relative, P(X >= wins | lo) = alpha/2 and
    P(X <= wins | hi) = alpha/2, each tail summed to 40 digits.  Endpoints
    near 0 above the continued fraction's split once lost ~n * 1e-16 here."""
    for confidence in (0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-10):
        half = Decimal((1 - confidence) / 2)
        for wins in (1, 2, 3):
            lo, hi = clopper_pearson(wins, n, confidence)
            for x, tail in ((lo, lambda x: 1 - _decimal_binomial_cdf(
                                n, wins - 1, x)),
                            (hi, lambda x: _decimal_binomial_cdf(n, wins, x))):
                x = Decimal(x)
                below, above = (tail(x * (1 - Decimal("1e-12"))),
                                tail(x * (1 + Decimal("1e-12"))))
                assert min(below, above) < half < max(below, above), (
                    wins, n, confidence, x)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 10 ** 4, 10 ** 6, 10 ** 9])
def test_clopper_pearson_edge_endpoints_are_closed_forms(n):
    """Beta(1, n) and Beta(n, 1) have closed-form quantiles, which the
    edge endpoints return to within 4 ulp: hi(0, n) = 1 - (alpha/2)^(1/n)
    and lo(n, n) = (alpha/2)^(1/n), and their mirrors lo(1, n) and
    hi(n - 1, n) with 1 - alpha/2 in place of alpha/2."""
    for confidence in (0.5, 0.95, 0.99, 1 - 1e-10):
        half = (1 - confidence) / 2
        pairs = [(clopper_pearson(0, n, confidence)[1],
                  -math.expm1(math.log(half) / n)),
                 (clopper_pearson(n, n, confidence)[0],
                  math.exp(math.log(half) / n))]
        if n >= 2:
            pairs += [(clopper_pearson(1, n, confidence)[0],
                       -math.expm1(math.log1p(-half) / n)),
                      (clopper_pearson(n - 1, n, confidence)[1],
                       math.exp(math.log1p(-half) / n))]
        for got, want in pairs:
            assert abs(got - want) <= 4 * math.ulp(want), (n, confidence)


def test_clopper_pearson_costs_one_continued_fraction_an_endpoint(monkeypatch):
    """Each endpoint takes at most one continued fraction where the start's
    Newton step is below the stopping size, so one quartic step from it
    lands the endpoint: none where its beta has a = 1 or b = 1 (a closed
    form), and one for every 20 <= wins <= n - 20 at n = 2000 and 10^4.
    Below that the normal start misses by one step at one endpoint."""
    calls = []
    beta_cf = relbc.analysis._beta_cf

    def counted(*args):
        calls.append(args)
        return beta_cf(*args)

    monkeypatch.setattr(relbc.analysis, "_beta_cf", counted)

    def count(wins, n):
        calls.clear()
        clopper_pearson(wins, n, 0.99)
        return len(calls)

    for n in (2, 3, 200, 2000, 10 ** 4):
        assert [count(wins, n) for wins in (0, n)] == [0, 0], n
    for n in (2000, 10 ** 4):
        for wins in range(1, n):
            ends = (wins != 1) + (wins != n - 1)
            misses = 0 if 20 <= wins <= n - 20 else 1
            assert ends <= count(wins, n) <= ends + misses, (wins, n)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(relbc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, relbc, relbc.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_mc_estimate_deterministic_per_seed():
    s = attack_base(GF2, 3, OPT2)
    a = mc_cheat_probability(s, samples=1000, seed=5)
    b = mc_cheat_probability(s, samples=1000, seed=5)
    assert a == b
    c = mc_cheat_probability(s, samples=1000, seed=6)
    assert a.mean != c.mean or a.wins != c.wins or a.seed != c.seed


def _echo_strategy(spec, m):
    """Round k answers d + x_k: acceptance near 1/3 at GF(2), so the wins
    move with any change of the drawn stream."""
    return CheatStrategy(spec, Variant.SYMMETRIZED, m, BASE, tuple(
        (lambda d, xs, etas, k=k: spec.add(d, xs[k - 1]))
        for k in range(1, m + 1)))


@pytest.mark.parametrize("strategy, wins", [
    # space 128: one byte try a draw, every try kept
    (attack_base(GF2, 6, OPT2), (9923, 9919, 9918)),
    # spaces 1458 and 4374: beyond the table cap, transcripts whose byte
    # tries at Q = 3 reject a quarter of the bytes
    (build_attack(GF3, Variant.SYMMETRIZED, 6, BASE, OPT3), (9773, 9789, 9761)),
    (build_attack(GF3, Variant.SYMMETRIZED, 7, BASE, OPT3), (9842, 9824, 9845)),
    # beyond the table cap at Q = 16 and Q = 2: transcripts in bulk
    (build_attack(GF16, Variant.STANDARD, 9, BASE,
                  DetStrategy.random(GF16, random.Random(16))),
     (6646, 6729, 6776)),
    (_echo_strategy(GF2, 12), (3367, 3432, 3275)),
    # Q = 256: one byte a challenge, judged in 16-bit lanes
    (build_attack(GF256, Variant.SYMMETRIZED, 31, BASE,
                  DetStrategy.random(GF256, random.Random(256))),
     (5406, 5437, 5403)),
    # rho = 4 with a quiet prefix, in bulk
    (build_attack(GF4, Variant.STANDARD, 13, CausalModel(rho=4, k0=1),
                  DetStrategy.random(GF4, random.Random(4))),
     (9519, 9546, 9492)),
], ids=["q2-m6-table", "q3-m6-columns", "q3-m7-direct", "q16-m9-bulk",
        "q2-m12-bulk", "q256-m31-direct", "q4-m13-rho4"])
def test_mc_seeded_wins_are_pinned(strategy, wins):
    # the seeded streams are part of the output: a changed draw shows here.
    # The pins are the per-word reference's (oracles.reference_table_wins
    # and reference_transcripts on the "{seed}:mc:{m}" rng), computed one
    # draw at a time and judged by verify_values on each row's responses;
    # a DetStrategy.random game's tables are its rng's first 2Q
    # WordStream.below(Q) tries
    assert tuple(mc_cheat_probability(strategy, samples=10 ** 4, seed=seed).wins
                 for seed in (0, 1, 2)) == wins


def test_mc_draws_never_call_randrange(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("relbc called randrange")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    strategies = [
        build_attack(GF3, Variant.SYMMETRIZED, 7, BASE, OPT3),   # transcripts
        build_attack(GF3, Variant.SYMMETRIZED, 6, BASE, OPT3),   # 1458 inputs
        build_attack(GF2, Variant.SYMMETRIZED, 7, BASE, OPT2),   # 256 entries
        build_attack(GF256, Variant.SYMMETRIZED, 31, BASE,
                     DetStrategy.random(GF256, random.Random(256))),
    ]
    assert [s.verdict_table and len(s.verdict_table) for s in strategies] \
        == [None, None, 256, None]
    for s in strategies:
        assert mc_cheat_probability(s, samples=1000, seed=0).samples == 1000
    # honest runs, search starts and field-check's triples draw the same way
    for spec in (GF2, GF3, GF256):
        for variant in Variant:
            assert run_honest(ProtocolParams(spec, 7, variant), 1).accepted
    assert best_response_search(GameDist.uniform(GF16), 4, 3, seed=1).value
    result = CliRunner().invoke(main, ["field-check", "--p", "3", "--n", "2",
                                       "--triples", "100"])
    assert result.exit_code == 0 and json.loads(result.output)["ok"] is True


def _miss_bound(trials: int, rate: float) -> int:
    """The smallest k with P[Binomial(trials, rate) > k] <= 1e-6."""
    k, at_most_k = 0, 0.0
    while True:
        at_most_k += math.comb(trials, k) * rate ** k * (1 - rate) ** (
            trials - k)
        if 1 - at_most_k <= 1e-6:
            return k
        k += 1


GF65536 = FieldSpec(2, 16)


@pytest.mark.parametrize("strategy, value", [
    # a 162-entry verdict table: byte tries that reject 94 of 256 bytes
    (build_attack(GF3, Variant.SYMMETRIZED, 4, BASE, OPT3), None),
    # columns at Q = 5: byte tries that reject 3 of 8 top-bit patterns
    (build_attack(FieldSpec(5), Variant.SYMMETRIZED, 6, BASE,
                  DetStrategy.random(FieldSpec(5), random.Random(5))),
     "closed"),
    # Q = 512 plays each transcript through accepts, on 2-byte lanes that
    # keep their top 9 bits
    (build_attack(FieldSpec(2, 9), Variant.SYMMETRIZED, 3, BASE,
                  DetStrategy.random(FieldSpec(2, 9), random.Random(9))),
     "closed"),
    # Q = 2^16: every 2-byte lane is a challenge, with no try rejected
    (build_attack(GF65536, Variant.SYMMETRIZED, 3, BASE,
                  DetStrategy.zeros(GF65536)), "zeros"),
], ids=["table-q3", "columns-q5", "accepts-q512", "accepts-q65536"])
def test_mc_intervals_cover_at_their_rate_over_300_seeds(strategy, value):
    # each 99% interval misses the exact value with probability at most
    # 1%, so over seeds 0..299 the misses stay within the binomial bound
    params = strategy.params
    if value is None:
        assert len(strategy.verdict_table) == 162
        exact = exact_cheat_probability(strategy)
    elif value == "zeros":
        # the all-zeros pair wins exactly when x*y = 0, w = (2Q - 1)/Q^2,
        # and m = 3 is one tower step: 1 - (1/2)(1 - 1/Q)(1 - w)
        q = params.field.q
        w = Fraction(2 * q - 1, q * q)
        exact = 1 - (1 - Fraction(1, q)) * (1 - w) / 2
    else:
        assert strategy.verdict_table is None
        exact = predicted_attack_probability(
            params.field, params.variant, params.m, strategy.model,
            strategy.game_strategy)
    assert strategy.columnar == (params.field.q == 5 or value is None)
    misses = sum(not mc_cheat_probability(strategy, 200, seed).covers(exact)
                 for seed in range(300))
    assert misses <= _miss_bound(300, 0.01)


def test_verdict_table_built_once_per_strategy():
    calls = [0, 0, 0]

    def counting(k):
        def fn(d, xs, etas):
            calls[k] += 1
            return 0
        return fn

    s = CheatStrategy(GF2, Variant.SYMMETRIZED, 3, BASE,
                      tuple(counting(k) for k in range(3)))
    mc_cheat_probability(s, samples=1000, seed=0)
    mc_cheat_probability(s, samples=1000, seed=1)
    # one call per round per input of the 2 * 2^3 input space
    assert calls == [16, 16, 16]


def test_no_verdict_table_beyond_the_cap():
    # a table only where one byte try indexes it: 256 inputs, not 486
    within = build_attack(GF2, Variant.SYMMETRIZED, 7, BASE, OPT2)
    beyond = build_attack(GF3, Variant.SYMMETRIZED, 5, BASE, OPT3)
    assert len(within.verdict_table) == 2 * 2 ** 7 == adversary.MC_TABLE_CAP
    assert beyond.verdict_table is None


@pytest.mark.parametrize("strategy", [
    build_attack(GF3, Variant.SYMMETRIZED, 5, BASE, OPT3),
    build_attack(GF3, Variant.SYMMETRIZED, 6, BASE, OPT3),
    build_attack(GF4, Variant.SYMMETRIZED, 5, BASE,
                 DetStrategy.random(GF4, random.Random(4))),
    build_attack(GF2, Variant.SYMMETRIZED, 11, BASE, OPT2),
    build_attack(GF2, Variant.SYMMETRIZED, 10, CausalModel(rho=4, k0=1),
                 OPT2),
    # not columnar: one challenge over GF(2^9), judged by accepts
    build_attack(FieldSpec(2, 9), Variant.STANDARD, 2, BASE,
                 DetStrategy.zeros(FieldSpec(2, 9))),
], ids=["q3-m5", "q3-m6", "q4-m5", "q2-m11", "q2-rho4", "q512-zeros"])
def test_mc_between_the_cap_and_4096_inputs_draws_columns(strategy):
    # 257 to 4096 inputs: no verdict table, the estimate is the column
    # route's on the same "{seed}:mc:{m}" rng
    assert 256 < 2 * strategy.field.q ** strategy.n_challenges <= 4096
    assert strategy.verdict_table is None
    m = strategy.m
    for seed in (0, 1):
        assert mc_cheat_probability(strategy, 2000, seed).wins == 2000 - \
            _column_rejections(strategy, random.Random(f"{seed}:mc:{m}"), 2000)


def test_mc_estimate_covers_exact_value():
    s = attack_base(GF2, 6, OPT2)
    exact = exact_cheat_probability(s)
    est = mc_cheat_probability(s, samples=20000, seed=0)
    assert est.covers(exact)
    assert est.ci_low <= est.mean <= est.ci_high
    assert est.wins == round(est.mean * est.samples)


def test_mc_table_and_direct_paths_agree_statistically():
    # large strategy forces the direct path; both are unbiased
    small = attack_base(GF2, 3, OPT2)           # table path (space 16)
    big = build_attack(GF2, Variant.SYMMETRIZED, 12, BASE, OPT2)  # direct
    exact_small = exact_cheat_probability(small)
    exact_big = predicted_attack_probability(GF2, Variant.SYMMETRIZED, 12,
                                             BASE, OPT2)
    assert mc_cheat_probability(small, samples=20000, seed=1).covers(exact_small)
    assert mc_cheat_probability(big, samples=5000, seed=1).covers(exact_big)


def test_mc_sample_floor():
    with pytest.raises(ValueError):
        mc_cheat_probability(attack_base(GF2, 3, OPT2), samples=50)


def test_theory_lower_bound_base():
    # m counts standard-protocol rounds: exponent floor((m-1)/3)
    w = Fraction(3, 4)
    assert theory_lower_bound(3, 2, w) == Fraction(1, 2)
    assert theory_lower_bound(4, 2, w) == Fraction(15, 16)
    assert theory_lower_bound(6, 2, w) == Fraction(15, 16)
    assert theory_lower_bound(7, 2, w) == 1 - Fraction(1, 2) * Fraction(1, 8) ** 2
    assert theory_lower_bound(2, 2, w) == Fraction(1, 2)
    with pytest.raises(ValueError):
        theory_lower_bound(3, 2, Fraction(3, 2))


def test_theory_lower_bound_general():
    w = Fraction(1, 2)
    # exponent floor((m - k0 - 1)/(rho + 1))
    assert theory_lower_bound(10, 2, w, rho=4, k0=0) \
        == 1 - Fraction(1, 2) * (Fraction(1, 2) * Fraction(1, 2)) ** 1
    assert theory_lower_bound(3, 2, w, rho=2, k0=2) == Fraction(1, 2)


def test_constructed_attack_meets_lower_bound():
    for m in (3, 6, 9):
        g = exact_cheat_probability(attack_base(GF2, m, OPT2))
        assert g >= theory_lower_bound(m, 2, Fraction(3, 4))


def test_theory_upper_bound():
    assert theory_upper_bound(2, 16) == 0.5 + 2 / 4
    assert theory_upper_bound(100, 4) == 1.0
    for c in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            theory_upper_bound(3, 2, c=c)


def test_bad_upper_c_is_rejected_before_any_row(monkeypatch):
    # evaluate and trend_sweep check upper_c before they build or count
    # anything, so a sweep with no row rejects it too
    def no_work(*args, **kwargs):
        raise AssertionError("evaluated despite a bad upper_c")

    monkeypatch.setattr(relbc.analysis, "exact_cheat_probability", no_work)
    monkeypatch.setattr(relbc.analysis, "_build_attacks", no_work)
    strategy = attack_base(GF2, 3, OPT2)
    for c in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate(strategy, upper_c=c)
        for ms in ([], [4, 5]):
            with pytest.raises(ValueError, match="positive and finite"):
                trend_sweep(GF2, ms, OPT2, upper_c=c)


@pytest.mark.parametrize("variant,m", [
    (Variant.SYMMETRIZED, 3), (Variant.SYMMETRIZED, 5),
    (Variant.SYMMETRIZED, 7), (Variant.STANDARD, 4),
    (Variant.STANDARD, 6), (Variant.STANDARD, 2),
])
def test_closed_form_matches_enumeration(variant, m):
    s = build_attack(GF2, variant, m, BASE, OPT2)
    assert exact_cheat_probability(s) \
        == predicted_attack_probability(GF2, variant, m, BASE, OPT2)


@pytest.mark.parametrize("q", [2, 3, 16, 1 << 16])
def test_integer_closed_forms_match_fraction_chains(q):
    ms = [*range(1, 41), 133, 134, 135, 530, 531, 532]
    for rho, k0 in itertools.product((2, 4), (0, 1, 2)):
        model = CausalModel(rho=rho, k0=k0)
        for w in (None, Fraction(0), Fraction(1), Fraction(59, 256)):
            for variant, m in itertools.product(Variant, ms):
                assert _closed_form(q, variant, m, model, w) \
                    == closed_form_fractions(q, variant, m, model, w)
            if w is None:
                continue
            for m in ms:
                assert theory_lower_bound(m, q, w, rho, k0) \
                    == lower_bound_fractions(m, q, w, rho, k0)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("rho,k0", itertools.product((2, 4), (0, 1, 2)))
@pytest.mark.parametrize("spec,opt", [(GF2, OPT2), (GF3, OPT3)],
                         ids=["gf2", "gf3"])
def test_rows_use_the_one_bound_formula_at_every_length(spec, opt, rho, k0,
                                                        variant):
    # from the shortest legal length through the first tower step, every
    # row's bound is theory_lower_bound's, 1/2 with no full step, and its
    # enumerated value is the closed form's
    model = CausalModel(rho=rho, k0=k0)
    w_gamma = win_probability(opt, GameDist(spec, tower_gamma(spec, model)))
    first = 2 if variant is Variant.SYMMETRIZED else 1
    ms = range(first, k0 + rho + 3)
    rows = trend_sweep(spec, ms, opt, model, variant)
    assert [row.m for row in rows] == list(ms)
    for row in rows:
        m, q = row.m, spec.q
        assert row.lower_bound == theory_lower_bound(m, q, row.w, rho, k0) \
            == lower_bound_fractions(m, q, row.w, rho, k0)
        assert row.exact == row.closed_form \
            == closed_form_fractions(q, variant, m, model, w_gamma)


def test_closed_form_matches_enumeration_q3():
    opt3 = brute_force_value(GameDist.uniform(GF3)).strategy
    for m in (3, 4):
        s = build_attack(GF3, Variant.SYMMETRIZED, m, BASE, opt3)
        assert exact_cheat_probability(s) \
            == predicted_attack_probability(GF3, Variant.SYMMETRIZED, m,
                                            BASE, opt3)


def test_evaluate_exact():
    rep = evaluate(attack_base(GF2, 6, OPT2), method="exact")
    assert rep.exact == Fraction(127, 128)
    assert rep.mc is None
    assert rep.w == Fraction(3, 4)
    assert rep.lower_bound == theory_lower_bound(6, 2, Fraction(3, 4))
    assert rep.value == float(Fraction(127, 128))
    assert rep.epsilon == rep.value - 0.5
    d = rep.report_dict()
    assert d["exact"] == "127/128" and d["variant"] == "symmetrized"


def test_evaluate_mc():
    rep = evaluate(attack_base(GF2, 6, OPT2), method="mc",
                   samples=5000, seed=9)
    assert rep.exact is None and rep.mc is not None
    assert rep.mc.samples == 5000
    with pytest.raises(ValueError):
        evaluate(attack_base(GF2, 3, OPT2), method="nope")


def test_evaluate_without_plugged_strategy_reports_w_zero():
    # no tower step fits in a standard m = 3 attack: nothing is plugged
    rep = evaluate(build_attack(GF2, Variant.STANDARD, 3, BASE, OPT2))
    assert rep.w == 0
    assert rep.exact == rep.closed_form == Fraction(7, 8)
    rows = trend_sweep(GF2, [3, 4], OPT2)
    assert [r.w for r in rows] == [0, Fraction(3, 4)]
    assert rows[0] == rep


def test_trend_sweep_rows():
    rows = trend_sweep(GF2, [4, 5, 6, 7], OPT2, seed=3)
    assert [r.m for r in rows] == [4, 5, 6, 7]
    values = [r.value for r in rows]
    assert values == sorted(values)
    for r in rows:
        assert r.exact == r.closed_form       # small spaces enumerate
        assert r.exact >= r.lower_bound
        assert r.to_dict()["q"] == 2


def test_trend_sweep_mc_fallback():
    rows = trend_sweep(GF2, [4, 20], OPT2, exact_cap=10,
                       samples=2000, seed=1)
    assert all(r.exact is None and r.mc is not None for r in rows)
    for r in rows:
        assert r.mc.covers(r.closed_form)


def test_sweep_rows_of_other_seeds_and_lengths_draw_other_streams(
        monkeypatch):
    # row m of a sweep at seed s once drew the stream of seed s + m, so
    # rows (seed 0, m = 5) and (seed 1, m = 4) read the same bytes
    first = []
    take = protocol._ByteStream.take

    def spy(self, count):
        data = take(self, count)
        first.append(data)
        return data

    monkeypatch.setattr(protocol._ByteStream, "take", spy)
    drawn = []
    for seed, m in [(0, 5), (1, 4)]:
        first.clear()
        [row] = trend_sweep(GF2, [m], OPT2, exact_cap=0, samples=1000,
                            seed=seed)
        assert row.mc is not None and first
        drawn.append(first[0])
    size = min(map(len, drawn))
    assert size >= 100 and drawn[0][:size] != drawn[1][:size]


@pytest.mark.parametrize("seed", [0, 1, 9])
def test_sweep_monte_carlo_rows_are_evaluate_at_the_sweep_seed(seed):
    # every estimated row is the estimate of its own length's attack at the
    # sweep's seed, so `attack --m m --seed s` replays row m of a sweep
    model = CausalModel(rho=4, k0=1)
    game = DetStrategy.random(GF4, random.Random(seed))
    # m = 4 is enumerated, m = 5 draws from its 2048-entry verdict table
    # and the longer rows draw transcripts
    ms = [4, 5, 6, 9, 12, 13]
    rows = trend_sweep(GF4, ms, game, model, Variant.SYMMETRIZED,
                       exact_cap=1000, samples=500, seed=seed)
    assert [row.mc is not None for row in rows] == [False] + [True] * 5
    for m, row in zip(ms, rows):
        if row.mc is not None:
            attack = build_attack(GF4, Variant.SYMMETRIZED, m, model, game)
            assert row == evaluate(attack, "mc", 500, seed)


# m lists a sweep may get: out of order, repeated, with gaps, below one
# tower step (zeros strategies at every rho and k0 here), and a range
SWEEP_LENGTHS = {"unsorted": [9, 4, 13, 6], "repeated": [7, 5, 7, 7],
                 "gapped": [5, 11, 20], "below-a-step": [3, 2, 4, 3],
                 "range": range(2, 12)}


def _laid_out(strategy):
    """A strategy's length, variant, lineage, step plan and rounds, each
    game round by its prefix, window, last challenge and table."""
    return (strategy.m, strategy.variant, strategy.lineage,
            strategy._step_plan,
            [(fn.prefix, fn.window, fn.last, fn.table)
             if isinstance(fn, _GameRound) else fn for fn in strategy.rounds])


@pytest.mark.parametrize("lengths", SWEEP_LENGTHS.values(),
                         ids=SWEEP_LENGTHS)
@pytest.mark.parametrize("k0", [0, 1, 2])
@pytest.mark.parametrize("rho", [2, 4])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_sweep_rows_are_their_lengths_built_one_by_one(variant, rho, k0,
                                                       lengths, monkeypatch):
    # every row's strategy, cut from the sweep's longest tower, is
    # build_attack's at its length and the one a tower laid out for that
    # length alone gives, and every row, exact (n <= 4 challenges) or
    # Monte Carlo, is evaluate's on that strategy
    model = CausalModel(rho=rho, k0=k0)
    game = DetStrategy.random(GF4, random.Random(f"sweep:{rho}:{k0}"))
    built = []
    cut = relbc.analysis._build_attacks

    def spy(*args):
        for strategy in cut(*args):
            built.append(strategy)
            yield strategy

    monkeypatch.setattr(relbc.analysis, "_build_attacks", spy)
    rows = trend_sweep(GF4, lengths, game, model, variant, exact_cap=2000,
                       samples=300, seed=5)
    assert [row.m for row in rows] == [s.m for s in built] == list(lengths)
    for m, row, strategy in zip(lengths, rows, built):
        alone = build_attack(GF4, variant, m, model, game)
        assert (_laid_out(strategy) == _laid_out(alone) == _laid_out(
            build_attack_alone(GF4, variant, m, model, game)))
        method = "exact" if row.mc is None else "mc"
        assert row == evaluate(alone, method, 300, 5)


def test_a_sweep_lays_its_longest_tower_out_once(monkeypatch):
    # one layout per sweep, of the longest tower any row needs (standard
    # m = 30 holds nine three-round steps), and one per build_attack
    lay_out, layouts = adversary._tower_rounds, []

    def counted(spec, steps, model, game_strategy):
        layouts.append(steps)
        return lay_out(spec, steps, model, game_strategy)

    monkeypatch.setattr(adversary, "_tower_rounds", counted)
    rows = trend_sweep(GF2, [9, 4, 30, 7, 30, 2], OPT2, exact_cap=100,
                       samples=100)
    assert len(rows) == 6 and layouts == [9]
    layouts.clear()
    build_attack(GF2, Variant.SYMMETRIZED, 30, BASE, OPT2)
    assert layouts == [10]


def test_every_attack_is_one_strategy_object(monkeypatch):
    # a sweep row, build_attack and attack_base each make
    # one CheatStrategy, a padded standard row too (standard m = 8 holds
    # two steps, one padding round and the silent final round)
    init, built = CheatStrategy.__post_init__, []

    def counted(self):
        built.append(self.m)
        init(self)

    monkeypatch.setattr(CheatStrategy, "__post_init__", counted)
    lengths = [2, 3, 5, 8, 9, 30, 8]
    rows = trend_sweep(GF2, lengths, OPT2, exact_cap=100, samples=100)
    assert [row.m for row in rows] == built == lengths
    built.clear()
    build_attack(GF2, Variant.STANDARD, 30, BASE, OPT2)
    build_attack(GF2, Variant.SYMMETRIZED, 10, BASE, OPT2)
    build_attack(GF2, Variant.SYMMETRIZED, 8, CausalModel(rho=2, k0=2), OPT2)
    attack_base(GF2, 9, OPT2)
    assert built == [30, 10, 8, 9]


def test_empirical_upper_constant():
    rows = trend_sweep(GF2, [4, 5, 6], OPT2, seed=0)
    c = empirical_upper_constant(rows)
    assert c > 0
    for r in rows:
        assert r.value <= 0.5 + c * r.m / math.sqrt(r.q) + 1e-12


def test_write_sweep_csv(tmp_path):
    rows = trend_sweep(GF2, [4, 5], OPT2, seed=0)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0][:4] == ["q", "m", "rho", "k0"]
    assert len(parsed) == 3
    assert parsed[1][0] == "2" and parsed[1][1] == "4"

