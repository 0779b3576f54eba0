"""Cheating strategies, the recursive attack tower, and causality auditing."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from relbc import (
    CausalModel,
    CheatStrategy,
    DetStrategy,
    FieldMismatchError,
    FieldSpec,
    GameDist,
    ProtocolParams,
    Variant,
    attack_base,
    brute_force_value,
    build_attack,
    exact_cheat_probability,
    tower_gamma,
    trend_sweep,
    verify_values,
    win_probability,
    zeros_strategy,
)
from relbc.adversary import _check_reads, _GameRound, _planned

from oracles import (accepted_inputs, causality_check, compute_eta,
                     derive_step_plan, desymmetrize, extend_symmetrized,
                     symmetrize_up)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
OPT2 = brute_force_value(GameDist.uniform(GF2)).strategy
OPT3 = brute_force_value(GameDist.uniform(GF3)).strategy
BASE = CausalModel()


def brute_force_cheat_probability(strategy):
    """Independent oracle: count accepting transcripts directly."""
    params = strategy.params
    q = params.field.q
    wins = total = 0
    for d in (0, 1):
        for xs in itertools.product(range(q), repeat=params.n_challenges):
            total += 1
            if verify_values(params, d, xs, strategy.responses(d, xs)):
                wins += 1
    return Fraction(wins, total)


def test_causal_model_validation():
    with pytest.raises(ValueError):
        CausalModel(rho=1)
    with pytest.raises(ValueError):
        CausalModel(rho=3)
    with pytest.raises(ValueError):
        CausalModel(k0=-1)


def test_challenge_visibility_base_model():
    m = CausalModel(rho=2, k0=0)
    # current round and same-parity past rounds are visible immediately;
    # opposite parity becomes visible after rho rounds
    assert m.challenge_visible(3, 3)
    assert m.challenge_visible(3, 1)
    assert m.challenge_visible(3, 2) is False
    assert m.challenge_visible(4, 2)
    assert m.challenge_visible(5, 3)
    assert not m.challenge_visible(3, 4)


def test_challenge_visibility_slow_propagation():
    m = CausalModel(rho=4, k0=0)
    assert not m.challenge_visible(5, 4)   # opposite parity, too recent
    assert m.challenge_visible(6, 2)       # propagated (6-2 >= rho)
    assert m.challenge_visible(5, 3)       # same parity
    assert m.challenge_visible(5, 1)


def test_bit_visibility():
    m = CausalModel(rho=2, k0=0)
    assert m.d_visible(0) and m.d_visible(2)
    assert not m.d_visible(1)
    assert m.d_visible(3)  # propagated: 3 >= 0 + rho
    late = CausalModel(rho=2, k0=3)
    assert not late.d_visible(2)
    assert late.d_visible(3)
    assert not late.d_visible(4)
    assert late.d_visible(5)


def test_read_check_rejects_what_the_model_hides():
    m = CausalModel(rho=2, k0=0)
    _check_reads(m, 3, 4, (1, 3))
    for j in (0, -1, 2, 4, 5):  # out of range, hidden, future, past the end
        with pytest.raises(LookupError,
                           match=f"challenge x_{j} is not visible at round 3"):
            _check_reads(m, 3, 4, (j,))
    # the bit is hidden at round 1
    with pytest.raises(LookupError, match="bit not yet known at round 1"):
        _check_reads(m, 1, 2, ())


@pytest.mark.parametrize("rho", [2, 4, 6])
def test_prefix_check_agrees_with_challenge_visible(rho):
    # one comparison stands for the p challenge_visible calls of a prefix
    for k0 in (0, 1, 3):
        model = CausalModel(rho=rho, k0=k0)
        for k in range(41):
            for p in range(41):
                visible = all(model.challenge_visible(k, j)
                              for j in range(1, p + 1))
                assert model.prefix_visible(k, p) is visible
                if model.d_visible(k) and visible:
                    _check_reads(model, k, 40, (), prefix=p)
                else:
                    with pytest.raises(LookupError):
                        _check_reads(model, k, 40, (), prefix=p)
    with pytest.raises(LookupError, match="x_1..x_3 are not visible"):
        _check_reads(CausalModel(rho=rho), rho + 3, 2, (), prefix=3)


@pytest.mark.parametrize("m", [31, 532])
def test_tower_build_checks_reads_in_linear_calls(m, monkeypatch):
    calls = 0
    visible = CausalModel.challenge_visible

    def counted(self, k, j):
        nonlocal calls
        calls += 1
        return visible(self, k, j)

    monkeypatch.setattr(CausalModel, "challenge_visible", counted)
    build_attack(GF3, Variant.STANDARD, m, BASE, OPT3)
    assert 0 < calls <= 2 * m


@pytest.mark.parametrize("rho", [2, 4])
def test_read_check_agrees_with_challenge_visible(rho):
    for k0 in (0, 1, 3):
        model = CausalModel(rho=rho, k0=k0)
        for n in range(1, 9):
            for k in range(1, n + 2):
                if not model.d_visible(k):
                    with pytest.raises(LookupError):
                        _check_reads(model, k, n, ())
                    continue
                for j in range(-1, n + 3):
                    if 1 <= j <= n and model.challenge_visible(k, j):
                        _check_reads(model, k, n, (j,))
                    else:
                        with pytest.raises(LookupError):
                            _check_reads(model, k, n, (j,))


@pytest.mark.parametrize("rho", [2, 4, 6])
def test_towers_pass_their_read_check(rho):
    for k0 in (0, 1, 3):
        model = CausalModel(rho=rho, k0=k0)
        for steps in (1, 2, 3):
            m = k0 + steps * (rho + 1)
            tower = build_attack(GF2, Variant.SYMMETRIZED, m, model, OPT2)
            assert len(tower.rounds) == m


def test_tower_rejects_a_model_that_hides_its_reads():
    class Blind(CausalModel):
        def challenge_visible(self, k, j):
            return j == k

    # the second round of the step reads x_1 alongside its own x_3
    with pytest.raises(LookupError,
                       match="challenge x_1 is not visible at round 3"):
        build_attack(GF2, Variant.SYMMETRIZED, 3, Blind(), OPT2)


def test_compute_eta_zero_iff_condition_holds():
    rng = random.Random("eta")
    for _ in range(100):
        d = rng.randrange(2)
        xs = tuple(rng.randrange(3) for _ in range(4))
        yt = tuple(rng.randrange(3) for _ in range(4))
        eta = compute_eta(GF3, d, xs, yt)
        total = 0
        suffix = 1
        for x, y in zip(reversed(xs), reversed(yt)):
            total = GF3.add(total, GF3.mul(y, suffix))
            suffix = GF3.mul(suffix, x)
        assert (eta == 0) == (total == GF3.mul(d, suffix))


def test_compute_eta_length_mismatch():
    with pytest.raises(ValueError):
        compute_eta(GF2, 0, (1,), (0, 1))


def test_cheat_strategy_round_count_checked():
    with pytest.raises(ValueError):
        CheatStrategy(GF2, Variant.SYMMETRIZED, 3, BASE,
                      (lambda d, xs, c: 0,) * 2)


def test_cheat_strategy_is_frozen():
    s = zeros_strategy(GF2, Variant.SYMMETRIZED, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.m = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.rounds = s.rounds[:1]
    hash(s)
    hash(attack_base(GF2, 6, OPT2))


def test_cheat_strategy_builds_its_params_once():
    s = attack_base(GF3, 6, OPT3)
    assert s.params is s.params
    assert s.params == ProtocolParams(GF3, 6, s.variant)


def test_zeros_strategy_value():
    # all-zero responses: accepted iff d * prod(challenges) = 0
    s = zeros_strategy(GF3, Variant.SYMMETRIZED, 3)
    expect = 1 - Fraction(1, 2) * (1 - Fraction(1, 3)) ** 3
    assert exact_cheat_probability(s) == expect
    s2 = zeros_strategy(GF2, Variant.STANDARD, 3)
    assert exact_cheat_probability(s2) == 1 - Fraction(1, 2) * Fraction(1, 4)


def test_attack_base_requires_multiple_of_three():
    for m in (1, 2, 4, 5, 7):
        with pytest.raises(ValueError):
            attack_base(GF2, m, OPT2)


@pytest.mark.parametrize("m,expect", [(3, Fraction(15, 16)),
                                      (6, Fraction(127, 128))])
def test_attack_base_exact_values(m, expect):
    s = attack_base(GF2, m, OPT2)
    assert exact_cheat_probability(s) == expect
    assert brute_force_cheat_probability(s) == expect


def test_attack_base_q3():
    # one step: 1 - (1/2)(1 - 1/3)(1 - w), w = 2/3
    s = attack_base(GF3, 3, OPT3)
    w = win_probability(OPT3, GameDist.uniform(GF3))
    assert exact_cheat_probability(s) \
        == 1 - Fraction(1, 2) * (1 - Fraction(1, 3)) * (1 - w)


def test_step_recurrence():
    # 1 - g'_{k+3} = (1 - 1/Q)(1 - w)(1 - g'_k)
    w = win_probability(OPT2, GameDist.uniform(GF2))
    factor = (1 - Fraction(1, 2)) * (1 - w)
    g3 = exact_cheat_probability(attack_base(GF2, 3, OPT2))
    g6 = exact_cheat_probability(attack_base(GF2, 6, OPT2))
    assert 1 - g6 == factor * (1 - g3)


def test_attack_general_base_specialization():
    # the general tower at rho=2, k0=0 reproduces attack_base round for
    # round, and attack_base carries its lineage
    for m in (3, 6):
        a = attack_base(GF2, m, OPT2)
        b = build_attack(GF2, Variant.SYMMETRIZED, m,
                         CausalModel(rho=2, k0=0), OPT2)
        assert a.lineage == b.lineage == "general"
        for d in (0, 1):
            for xs in itertools.product(range(2), repeat=m):
                assert a.responses(d, xs) == b.responses(d, xs)


def test_tower_gamma():
    assert tower_gamma(GF2, CausalModel(rho=2)) == Fraction(1, 2)
    assert tower_gamma(GF2, CausalModel(rho=4)) == Fraction(3, 4)
    assert tower_gamma(GF3, CausalModel(rho=2)) == Fraction(1, 3)


def test_attack_general_slow_propagation_value():
    model = CausalModel(rho=4, k0=0)
    gamma = tower_gamma(GF2, model)
    plugged = brute_force_value(GameDist(GF2, gamma)).strategy
    s = build_attack(GF2, Variant.SYMMETRIZED, 5, model, plugged)
    w_gamma = win_probability(plugged, GameDist(GF2, gamma))
    expect = 1 - Fraction(1, 2) * Fraction(1, 2) * (1 - w_gamma)
    assert exact_cheat_probability(s) == expect


def test_attack_general_delayed_decision():
    # k0 = 3 quiet rounds shrink the d=1 branch by (1-1/Q)^k0
    model = CausalModel(rho=2, k0=3)
    s = build_attack(GF2, Variant.SYMMETRIZED, 6, model, OPT2)
    w = win_probability(OPT2, GameDist.uniform(GF2))
    expect = 1 - (Fraction(1, 2) * (1 - Fraction(1, 2)) ** 3
                  * (1 - Fraction(1, 2)) * (1 - w))
    assert exact_cheat_probability(s) == expect


def test_desymmetrize_preserves_value():
    s = attack_base(GF2, 3, OPT2)
    ds = desymmetrize(s)
    assert ds.variant is Variant.STANDARD and ds.m == 4
    assert exact_cheat_probability(ds) == exact_cheat_probability(s)
    with pytest.raises(ValueError):
        desymmetrize(ds)


def test_extend_symmetrized_pads_deficit():
    s = attack_base(GF2, 3, OPT2)
    padded = extend_symmetrized(s, 2)
    assert padded.m == 5
    deficit = 1 - exact_cheat_probability(s)
    assert 1 - exact_cheat_probability(padded) \
        == deficit * (1 - Fraction(1, 2)) ** 2
    assert extend_symmetrized(s, 0) is s
    with pytest.raises(ValueError):
        extend_symmetrized(s, -1)
    with pytest.raises(ValueError,
                       match="extend_symmetrized expects a symmetrized"):
        extend_symmetrized(desymmetrize(s), 1)


def test_symmetrize_up_dominates():
    # lifting a standard strategy never loses acceptance probability
    rng = random.Random("lift")
    for _ in range(20):
        tables = tuple(rng.randrange(3) for _ in range(9))

        def make(i):
            return lambda d, xs, etas: tables[(i * 3 + d) % 9]

        std = CheatStrategy(GF3, Variant.STANDARD, 3,
                            CausalModel(rho=2, k0=0),
                            tuple(make(i) for i in range(3)))
        lifted = symmetrize_up(std)
        assert lifted.variant is Variant.SYMMETRIZED and lifted.m == 3
        assert exact_cheat_probability(lifted) >= exact_cheat_probability(std)
    with pytest.raises(ValueError):
        symmetrize_up(lifted)


def test_symmetrization_sandwich():
    # g_m <= g'_m <= g_{m+1} for per-round constant strategies
    rng = random.Random("sandwich")
    for spec, m in ((GF2, 4), (GF3, 3)):
        q = spec.q
        for _ in range(20):
            consts = tuple(rng.randrange(q) for _ in range(m + 1))

            def const(i):
                return lambda d, xs, etas: consts[i]

            model = CausalModel(rho=2, k0=0)
            std = CheatStrategy(spec, Variant.STANDARD, m, model,
                                tuple(const(i) for i in range(m)))
            sym = symmetrize_up(std)
            longer = desymmetrize(sym)
            g_m = exact_cheat_probability(std)
            g_sym = exact_cheat_probability(sym)
            g_next = exact_cheat_probability(longer)
            assert g_m <= g_sym == g_next


def test_build_attack_standard_lengths():
    for m in (4, 5, 6, 7):
        s = build_attack(GF2, Variant.STANDARD, m, BASE, OPT2)
        assert s.variant is Variant.STANDARD and s.m == m
        inner = attack_base(GF2, 3 * ((m - 1) // 3), OPT2)
        padded_deficit = ((1 - exact_cheat_probability(inner))
                          * Fraction(1, 2) ** ((m - 1) % 3))
        assert exact_cheat_probability(s) == 1 - padded_deficit


def test_build_attack_short_falls_back_to_zeros():
    s = build_attack(GF2, Variant.STANDARD, 2, BASE, OPT2)
    assert s.lineage == "zeros"
    s2 = build_attack(GF2, Variant.SYMMETRIZED, 2, BASE, OPT2)
    assert s2.lineage == "zeros"


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_build_attack_rejects_strategy_over_another_field(m, variant):
    # also at lengths where no tower step fits and no strategy is plugged
    with pytest.raises(ValueError, match="different field"):
        build_attack(GF2, variant, m, BASE, OPT3)


def test_strategy_over_another_field_raises_field_mismatch():
    # the error type games._check_same_field raises, whichever entry
    # point reaches the strategy first
    with pytest.raises(FieldMismatchError, match="different field"):
        build_attack(GF2, Variant.STANDARD, 4, BASE, OPT3)
    with pytest.raises(FieldMismatchError, match="different field"):
        attack_base(GF2, 3, OPT3)
    with pytest.raises(FieldMismatchError):
        trend_sweep(GF2, [2, 5], OPT3)


def test_d_zero_always_accepted():
    # eta stays zero when d = 0, so every challenge vector is accepted
    for s in (attack_base(GF2, 6, OPT2), attack_base(GF3, 3, OPT3)):
        q = s.field.q
        params = s.params
        for xs in itertools.product(range(q), repeat=params.n_challenges):
            assert verify_values(params, 0, xs, s.responses(0, xs))


def test_causality_check_passes_constructed_attacks():
    strategies = [
        attack_base(GF2, 6, OPT2),
        attack_base(GF3, 3, OPT3),
        build_attack(GF2, Variant.SYMMETRIZED, 5, CausalModel(rho=4, k0=0),
                     brute_force_value(GameDist(GF2, Fraction(3, 4))).strategy),
        build_attack(GF2, Variant.STANDARD, 5, BASE, OPT2),
        zeros_strategy(GF2, Variant.SYMMETRIZED, 4),
    ]
    for s in strategies:
        report = causality_check(s, trials=50, seed=1)
        assert report.ok, report.violations[:3]


def test_causality_check_detects_noncausal_mutant():
    # round 1 peeks at the future challenge x_2
    def peek(d, xs, etas):
        return xs[1]

    mutant = CheatStrategy(GF2, Variant.SYMMETRIZED, 3, BASE,
                           (peek, lambda d, xs, c: 0,
                            lambda d, xs, c: 0))
    report = causality_check(mutant, trials=50, seed=2)
    assert not report.ok
    assert any(v["round"] == 1 and v["input"] == "x2"
               for v in report.violations)


def test_causality_check_detects_early_bit_use():
    # round 1 depends on d, which is not visible there
    def use_d(d, xs, etas):
        return d

    mutant = CheatStrategy(GF2, Variant.SYMMETRIZED, 3, BASE,
                           (use_d, lambda d, xs, c: 0,
                            lambda d, xs, c: 0))
    report = causality_check(mutant, trials=50, seed=3)
    assert any(v["input"] == "d" for v in report.violations)


def test_respond_matches_responses():
    s = attack_base(GF3, 3, OPT3)
    rng = random.Random("resp")
    for _ in range(50):
        d = rng.randrange(2)
        xs = tuple(rng.randrange(3) for _ in range(3))
        ys = s.responses(d, xs)
        for k in range(1, 4):
            assert s.respond(k, d, xs) == ys[k - 1]


def assert_accepts_matches_chain(strategy):
    """accepts against verify_values on the responses and against the end
    of the chain, on every input."""
    params = strategy.params
    n = len(strategy.rounds)
    for d in (0, 1):
        for xs in itertools.product(range(params.field.q),
                                    repeat=params.n_challenges):
            verdict = strategy.accepts(d, xs)
            assert verdict == (strategy._chain(d, xs, n)[-1] == 0), (d, xs)
            assert verdict == verify_values(
                params, d, xs, strategy.responses(d, xs)), (d, xs)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("k0", [0, 1, 2])
@pytest.mark.parametrize("rho", [2, 4])
@pytest.mark.parametrize("spec", [GF2, GF3, FieldSpec(2, 2)],
                         ids=lambda s: f"q{s.q}")
def test_accepts_matches_verify_values_on_every_input(spec, rho, k0, variant):
    model = CausalModel(rho=rho, k0=k0)
    game = DetStrategy.random(spec, random.Random(f"{spec.q}:{rho}:{k0}"))
    # one tower step (the standard variant adds its silent final round),
    # plus one padding round below Q = 4
    m = k0 + rho + 1 + (variant is Variant.STANDARD)
    for extra in (0, 1) if spec.q < 4 else (0,):
        strategy = build_attack(spec, variant, m + extra, model, game)
        assert strategy.lineage != "zeros"
        assert_accepts_matches_chain(strategy)


def test_accepts_matches_verify_values_for_zeros_and_single_round():
    for spec, opt in ((GF2, OPT2), (GF3, OPT3)):
        assert_accepts_matches_chain(
            zeros_strategy(spec, Variant.STANDARD, 1))
        assert_accepts_matches_chain(
            zeros_strategy(spec, Variant.SYMMETRIZED, 4))
        assert_accepts_matches_chain(
            build_attack(spec, Variant.STANDARD, 1, BASE, opt))
        rng = random.Random(f"single:{spec.q}")
        tables = [[rng.randrange(spec.q) for _ in range(2 * spec.q)]
                  for _ in range(2)]
        single = CheatStrategy(spec, Variant.STANDARD, 1, BASE, tuple(
            (lambda d, xs, etas, t=t: t[d * spec.q + xs[0]]) for t in tables))
        assert_accepts_matches_chain(single)


TOWER_CASES = ([(GF2, rho, k0) for rho in (2, 4) for k0 in (0, 1, 2)]
               + [(GF3, 2, k0) for k0 in (0, 1, 2)]
               + [(FieldSpec(2, 2), 2, k0) for k0 in (0, 1)])


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("spec, rho, k0", TOWER_CASES,
                         ids=lambda c: f"q{c.q}" if isinstance(c, FieldSpec)
                         else str(c))
def test_step_verdict_matches_chain_across_steps(spec, rho, k0, variant):
    # two tower steps, then a padding round while the input space stays
    # small, so the verdict crosses step boundaries and silent challenges
    model = CausalModel(rho=rho, k0=k0)
    game = DetStrategy.random(spec, random.Random(f"steps:{spec.q}:{rho}:{k0}"))
    m = k0 + 2 * (rho + 1) + (variant is Variant.STANDARD)
    for extra in (0, 1):
        strategy = build_attack(spec, variant, m + extra, model, game)
        if extra and 2 * spec.q ** strategy.n_challenges > 2 ** 14:
            break
        silent, steps = strategy._step_plan
        assert len(steps) == 2
        assert silent == tuple(range(k0)) + tuple(
            range(k0 + 2 * (rho + 1), strategy.n_challenges))
        assert_accepts_matches_chain(strategy)


@pytest.mark.parametrize("spec, rho, k0",
                         [(GF3, 4, 0), (GF3, 4, 1), (GF2, 6, 0), (GF2, 6, 1)],
                         ids=lambda c: f"q{c.q}" if isinstance(c, FieldSpec)
                         else str(c))
def test_step_verdict_matches_chain_on_longer_windows(spec, rho, k0):
    # two tower steps whose game windows hold two challenges each in odd
    # characteristic (rho = 4) or three each (rho = 6); the symmetrized
    # variant only: the standard one adds its silent final round, which the
    # cases above cover, to an input space of the same size
    model = CausalModel(rho=rho, k0=k0)
    game = DetStrategy.random(spec, random.Random(f"wide:{spec.q}:{rho}:{k0}"))
    strategy = build_attack(spec, Variant.SYMMETRIZED, k0 + 2 * (rho + 1),
                            model, game)
    silent, steps = strategy._step_plan
    assert silent == tuple(range(k0))
    assert [len(step[2]) + 1 for step in steps] == [rho // 2] * 2
    assert_accepts_matches_chain(strategy)


@pytest.mark.parametrize("spec", [GF2, GF3, FieldSpec(2, 2), FieldSpec(2, 4),
                                  FieldSpec(2, 8)], ids=lambda s: f"q{s.q}")
def test_builders_lay_out_the_plan_a_walk_over_their_rounds_finds(spec):
    # each builder's own step plan against derive_step_plan's walk over
    # the rounds it built: build_attack at every length up to two steps
    # and two padding rounds (the shortest fit no step and give
    # zeros_strategy) for rho in {2, 4, 6} and k0 in {0, 1, 2};
    # the reference composition (desymmetrize and extend_symmetrized) of
    # a one-step tower and of the all-zeros strategy; zeros_strategy at
    # m = 1..4
    game = DetStrategy.random(spec, random.Random(f"plan:{spec.q}"))
    built = []
    for rho in (2, 4, 6):
        for k0 in (0, 1, 2):
            model = CausalModel(rho=rho, k0=k0)
            for variant in Variant:
                built += [build_attack(spec, variant, m, model, game)
                          for m in range(2, k0 + 2 * (rho + 1) + 3)]
            tower = build_attack(spec, Variant.SYMMETRIZED, k0 + rho + 1,
                                 model, game)
            zeros = zeros_strategy(spec, Variant.SYMMETRIZED, 3, model)
            for base in (tower, zeros):
                for extra in (0, 1, 3):
                    padded = extend_symmetrized(base, extra)
                    built += [padded, desymmetrize(padded)]
    built += [zeros_strategy(spec, variant, m) for m in range(1, 5)
              for variant in Variant
              if (m, variant) != (1, Variant.SYMMETRIZED)]
    for s in built:
        assert s._step_plan is not None, s.lineage
        assert s._step_plan == derive_step_plan(s), s.lineage
    # the plan is handed over, not found: a strategy the builders did not
    # lay out has none, and neither do the padded or longer ones made
    # from it
    lifted = symmetrize_up(build_attack(spec, Variant.STANDARD, 4, BASE, game))
    for s in (lifted, extend_symmetrized(lifted, 2), desymmetrize(lifted)):
        assert s._step_plan is None and derive_step_plan(s) is None


def test_towers_off_the_step_plan_take_the_chain():
    # rounds Z F0 S0 Z F3 S3 Z: zero rounds, and the first and second game
    # rounds of prefixes 0 and 3.  Each variant below breaks the tower's
    # form: a plain function for a game round, a step's rounds swapped, a
    # step one round late, a second round of another prefix, a quiet
    # round that answers.  Only a builder hands a strategy its plan, and
    # no walk over these rounds finds one either.
    tower = build_attack(GF2, Variant.STANDARD, 7, BASE, OPT2)
    first, second = tower.rounds[1], tower.rounds[2]
    assert (first.prefix, first.last) == (0, None)
    assert (second.prefix, second.last) == (0, 2)
    plain = dataclasses.replace(tower, rounds=(
        tower.rounds[:2] + (lambda d, xs, etas: second(d, xs, etas),)
        + tower.rounds[3:]))
    swapped = dataclasses.replace(tower, rounds=(
        tower.rounds[:1] + (second, first) + tower.rounds[3:]))
    late = dataclasses.replace(tower, rounds=(
        (tower.rounds[0],) + tower.rounds[:3] + tower.rounds[4:]))
    mixed = dataclasses.replace(tower, rounds=(
        tower.rounds[:5] + (second,) + tower.rounds[6:]))
    loud = dataclasses.replace(tower, rounds=(
        (lambda d, xs, etas: xs[0],) + tower.rounds[1:]))
    for strategy in (symmetrize_up(tower), plain, swapped, late, mixed, loud):
        assert strategy._step_plan is None
        assert derive_step_plan(strategy) is None
        assert_accepts_matches_chain(strategy)
    assert exact_cheat_probability(plain) == exact_cheat_probability(tower)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("rho", [2, 4])
@pytest.mark.parametrize("spec", [FieldSpec(2, 2), GF3, FieldSpec(5)],
                         ids=lambda s: f"q{s.q}")
def test_game_rounds_are_prefix_eta_times_their_coefficient(spec, rho,
                                                           variant):
    # every non-zero tower round is a _GameRound whose output is
    # eta_p * coef for any chain, with coef = s1[window product] for the
    # first game round and s2[window product] * x_kb for the second; the
    # round holds that table, its 0-based window and x_kb's position
    model = CausalModel(rho=rho, k0=1)
    rng = random.Random(f"coef:{spec.q}:{rho}:{variant.value}")
    game = DetStrategy.random(spec, rng)
    m = 1 + 2 * (rho + 1) + (variant is Variant.STANDARD)
    tower = build_attack(spec, variant, m, model, game)
    games = [(k, fn) for k, fn in enumerate(tower.rounds, 1)
             if fn is not tower.rounds[0]]
    assert [k for k, _ in games] == [rho + 1, rho + 2, 2 * rho + 2, 2 * rho + 3]
    for i, (k, fn) in enumerate(games):
        assert isinstance(fn, _GameRound)
        prefix, which = fn.prefix, 1 + i % 2
        assert k == prefix + rho + which - 1
        if which == 1:
            assert (fn.table, fn.window, fn.last) == (
                game.s1, tuple(range(prefix + 1, prefix + rho, 2)), None)
        else:
            assert (fn.table, fn.window, fn.last) == (
                game.s2, tuple(range(prefix, prefix + rho - 1, 2)), k - 1)
    n = tower.n_challenges
    for _ in range(50):
        d = rng.randrange(2)
        xs = tuple(rng.randrange(spec.q) for _ in range(n))
        etas = [rng.randrange(spec.q) for _ in range(n + 1)]
        for i, (k, fn) in enumerate(games):
            prefix, which = fn.prefix, 1 + i % 2
            xin, yin = _windows(xs[prefix:], rho, spec)
            coef = (game.s1[xin] if which == 1
                    else spec.mul(game.s2[yin], xs[k - 1]))
            assert fn(d, xs, etas[:k]) == spec.mul(etas[prefix], coef)


def test_wrapped_game_round_takes_the_chain():
    # only a _GameRound is linear in eta_p by construction, so a plain
    # function in its place leaves the strategy to the chain, even when it
    # wraps the round and carries its prefix, table, window and last
    tower = build_attack(GF3, Variant.SYMMETRIZED, 7, CausalModel(k0=1), OPT3)
    second = tower.rounds[3]
    assert isinstance(second, _GameRound) and second.prefix == 1

    @functools.wraps(second)
    def wrapped(d, xs, etas):
        return second(d, xs, etas)

    def squared(d, xs, etas):  # eta_p^2 * coef: not linear in eta_p
        return GF3.mul(etas[1], second(d, xs, etas))

    for fn in (wrapped, squared):
        fn.prefix, fn.table = second.prefix, second.table
        fn.window, fn.last = second.window, second.last
        strategy = dataclasses.replace(
            tower, rounds=tower.rounds[:3] + (fn,) + tower.rounds[4:])
        assert tower._step_plan is not None and strategy._step_plan is None
        assert derive_step_plan(strategy) is None
        assert_accepts_matches_chain(strategy)
        if fn is wrapped:
            assert accepted_inputs(strategy) == accepted_inputs(tower)


def test_game_rounds_off_their_step_take_the_chain():
    # a step is judged by the win test only when its second round's last
    # challenge is the step's last and the two windows partition the
    # step's other challenges; rounds of the right type and prefix that
    # break either carry no plan, no walk over them finds one, and they
    # take the chain.  The tower's step of prefix 1 spans positions 1..3:
    # windows (2,) and (1,), last 3.
    tower = build_attack(GF3, Variant.SYMMETRIZED, 7, CausalModel(k0=1), OPT3)
    first, second = tower.rounds[2:4]
    assert (first.window, first.last) == ((2,), None)
    assert (second.window, second.last) == ((1,), 3)

    def game_round(fn, window, last):
        return _GameRound(GF3, fn.prefix, fn.table, window, last)

    broken = {
        "overlap": (game_round(first, (1,), None), second),
        "gap": (first, game_round(second, (0,), 3)),
        "outside": (first, game_round(second, (4,), 3)),
        "repeat": (game_round(first, (2, 2), None), second),
        "merged": (game_round(first, (1, 2), None), second),
        "last_early": (first, game_round(second, (1,), 2)),
        "last_late": (first, game_round(second, (1,), 4)),
        "no_last": (first, game_round(second, (1,), None)),
        "first_last": (game_round(first, (2,), 3), second),
    }
    for name, pair in broken.items():
        strategy = dataclasses.replace(
            tower, rounds=tower.rounds[:2] + pair + tower.rounds[4:])
        assert strategy._step_plan is None, name
        assert derive_step_plan(strategy) is None, name
        assert_accepts_matches_chain(strategy)
    with pytest.raises(ValueError, match="window"):
        game_round(first, (), None)


class _SpyTable:
    """A game table that records, under its name, every lookup."""

    def __init__(self, name, table, called):
        self.name, self.table, self.called = name, table, called

    def __getitem__(self, i):
        self.called.append(self.name)
        return self.table[i]


def test_step_verdict_stops_at_the_first_zero_factor():
    model = CausalModel(rho=2, k0=1)
    tower = build_attack(GF3, Variant.SYMMETRIZED, 7, model, OPT3)
    silent, steps = tower._step_plan
    assert silent == (0,)
    assert steps == ((3, 2, (), 1, ()), (6, 5, (), 4, ()))
    # the tower's plan, with a game strategy whose tables record each
    # lookup: s1 in a step's first game round, s2 in its second
    called = []
    spy_game = SimpleNamespace(s1=_SpyTable("s1", OPT3.s1, called),
                               s2=_SpyTable("s2", OPT3.s2, called))
    spied = _planned(dataclasses.replace(tower, game_strategy=spy_game),
                     silent, steps)
    # step 1's game inputs are A = x_3 and B = x_2 (1-based)
    win, loss = ([(a, b) for a in range(3) for b in range(3)
                  if (GF3.add(OPT3.s1[a], OPT3.s2[b]) == GF3.mul(a, b))
                  is wins][0] for wins in (True, False))
    xs = (1, loss[1], loss[0], 1, 1, 2, 1)
    assert spied.accepts(0, xs) and called == []
    # x_4 = 0 zeroes the first step's factor before any lookup; the second
    # step is skipped
    assert spied.accepts(1, xs[:3] + (0,) + xs[4:]) and called == []
    # a win collapses the first step after its two lookups
    assert spied.accepts(1, (1, win[1], win[0]) + xs[3:])
    assert called == ["s1", "s2"]
    called.clear()
    # the first step survives: the second step's lookups follow
    assert spied.accepts(1, xs) == tower.accepts(1, xs)
    assert called == ["s1", "s2"] * 2
    assert accepted_inputs(spied) == accepted_inputs(tower)


def _windows(xs, rho, spec):
    """The first and second game inputs of a step whose challenges are xs:
    the products of its first rho challenges at odd and even offsets."""
    xin = yin = 1
    for j in range(1, rho, 2):
        xin = spec.mul(xin, xs[j])
    for j in range(0, rho, 2):
        yin = spec.mul(yin, xs[j])
    return xin, yin


@pytest.mark.parametrize("rho", [2, 4])
@pytest.mark.parametrize("spec", [GF2, GF3, FieldSpec(2, 2), FieldSpec(5)],
                         ids=lambda s: f"q{s.q}")
def test_step_factor_is_zero_exactly_when_the_step_collapses(spec, rho):
    # the paper's reduction: a step's factor vanishes exactly when its last
    # challenge is 0 or the plugged strategy wins CHSH_Q on the windowed
    # challenge products; two steps where the input space is small
    model = CausalModel(rho=rho, k0=0)
    span = rho + 1
    steps = 2 if spec.q ** (2 * span) <= 5 ** 6 else 1
    for seed in range(3):
        game = DetStrategy.random(spec, random.Random(f"win:{spec.q}:{rho}:{seed}"))
        tower = build_attack(spec, Variant.SYMMETRIZED, steps * span,
                             model, game)
        silent, plan_steps = tower._step_plan
        assert silent == () and [step[0] for step in plan_steps] \
            == [(s + 1) * span - 1 for s in range(steps)]

        def collapses(xs):
            xin, yin = _windows(xs, rho, spec)
            return xs[rho] == 0 or spec.add(
                game.s1[xin], game.s2[yin]) == spec.mul(xin, yin)

        survivors = 0
        for xs in itertools.product(range(spec.q), repeat=steps * span):
            expect = any(collapses(xs[s * span:(s + 1) * span])
                         for s in range(steps))
            assert tower.accepts(1, xs) == expect, xs
            survivors += not expect
        w = win_probability(game, GameDist(spec, tower_gamma(spec, model)))
        assert Fraction(survivors, spec.q ** (steps * span)) \
            == ((1 - Fraction(1, spec.q)) * (1 - w)) ** steps
