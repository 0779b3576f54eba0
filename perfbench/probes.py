"""Per-layer unit costs, timed on fixed seeded inputs.

The same probes run in every traced run, whatever the workload, so each
unit cost is measured everywhere and compares across workloads and commits.
Each figure is the median over repeated batches or calls.
"""

from __future__ import annotations

import random
import statistics
import time

from relbc import (
    CausalModel,
    DetStrategy,
    FieldSpec,
    GameDist,
    ProtocolParams,
    Variant,
    attack_base,
    best_response_search,
    best_shift,
    brute_force_value,
    build_attack,
    clopper_pearson,
    exact_cheat_probability,
    mc_cheat_probability,
    predicted_attack_probability,
    run_honest,
    verify_values,
    win_probability,
)

# Q -> (p, n) of the fields whose op costs are probed.
PROBE_FIELDS = {16: (2, 4), 27: (3, 3), 32: (2, 5), 256: (2, 8), 65536: (2, 16)}


def _median_time(fn, repeats: int) -> float:
    """Median wall time of fn() over repeats calls, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def field_probes(seed: int, scale: float) -> dict[str, float]:
    out = {}
    for q, (p, n) in PROBE_FIELDS.items():
        t0 = time.perf_counter()
        spec = FieldSpec(p, n)
        spec.mul(1, 1)
        out[f"field.build_s.q{q}"] = time.perf_counter() - t0
        rng = random.Random(f"{seed}:perfbench:field:{q}")
        # Digit arithmetic beyond the table cap costs ~100x a table lookup.
        count = max(20, int(scale * (20000 if q <= 256 else 400)))
        a = [rng.randrange(q) for _ in range(count)]
        b = [rng.randrange(1, q) for _ in range(count)]
        inv_b = b[:max(5, count // 40)] if q > 256 else b
        add, mul, inv = spec.add, spec.mul, spec.inv

        def run_add():
            for x, y in zip(a, b):
                add(x, y)

        def run_mul():
            for x, y in zip(a, b):
                mul(x, y)

        def run_inv():
            for y in inv_b:
                inv(y)

        out[f"field.add_ns.q{q}"] = _median_time(run_add, 5) / count * 1e9
        out[f"field.mul_ns.q{q}"] = _median_time(run_mul, 5) / count * 1e9
        out[f"field.inv_ns.q{q}"] = _median_time(run_inv, 5) / len(inv_b) * 1e9
    return out


def game_probes(seed: int, scale: float) -> dict[str, float]:
    gf16 = FieldSpec(2, 4)
    uniform = GameDist.uniform(gf16)
    rng = random.Random(f"{seed}:perfbench:games")
    strategy = DetStrategy.random(gf16, rng)
    restarts = max(2, int(8 * scale))
    restart_times = [
        _median_time(lambda i=i: best_response_search(
            uniform, restarts=1, seed=1000 * seed + i), 1)
        for i in range(restarts)]
    return {
        "games.win_probability_us":
            _median_time(lambda: win_probability(strategy, uniform), 50) * 1e6,
        "games.restart_ms": statistics.median(restart_times) * 1e3,
        "games.best_shift_s": _median_time(lambda: best_shift(strategy, uniform), 1),
        "games.brute_force_s":
            _median_time(lambda: brute_force_value(GameDist.uniform(FieldSpec(5))), 1),
    }


def transcript_probes(seed: int, scale: float) -> dict[str, float]:
    """Strategy evaluation, verification and evaluation at Q = 16."""
    gf16 = FieldSpec(2, 4)
    model = CausalModel(rho=2, k0=0)
    rng = random.Random(f"{seed}:perfbench:transcripts")
    plugged = DetStrategy.random(gf16, rng)
    calls = max(20, int(200 * scale))
    out = {"adversary.build_attack_ms": _median_time(
        lambda: build_attack(gf16, Variant.STANDARD, 31, model, plugged), 20) * 1e3}
    for m in (6, 31):
        attack = build_attack(gf16, Variant.STANDARD, m, model, plugged)
        params = attack.params
        inputs = [(rng.randrange(2),
                   tuple(rng.randrange(16) for _ in range(params.n_challenges)))
                  for _ in range(calls)]
        times, transcripts = [], []
        for d, xs in inputs:
            t0 = time.perf_counter()
            ys = attack.responses(d, xs)
            times.append(time.perf_counter() - t0)
            transcripts.append((d, xs, ys))
        out[f"adversary.responses_us.m{m}"] = statistics.median(times) * 1e6
        if m == 31:
            verify_times = []
            for d, xs, ys in transcripts:
                t0 = time.perf_counter()
                verify_values(params, d, xs, ys)
                verify_times.append(time.perf_counter() - t0)
            out["protocol.verify_us.m31"] = statistics.median(verify_times) * 1e6
            out["analysis.closed_form_ms"] = _median_time(
                lambda: predicted_attack_probability(
                    gf16, Variant.STANDARD, 31, model, plugged), 20) * 1e3
            samples = max(100, int(200 * scale))
            out["analysis.mc_us_per_sample"] = _median_time(
                lambda: mc_cheat_probability(attack, samples=samples, seed=seed),
                3) / samples * 1e6
    honest = ProtocolParams(gf16, 31, Variant.SYMMETRIZED)
    out["protocol.run_honest_us"] = statistics.median(
        _median_time(lambda i=i: run_honest(honest, i % 2, seed=1000 * seed + i), 1)
        for i in range(calls)) * 1e6
    exact_attack = build_attack(gf16, Variant.STANDARD, 4, model, plugged)
    n_transcripts = 2 * 16 ** exact_attack.params.n_challenges
    out["analysis.exact_us_per_transcript"] = _median_time(
        lambda: exact_cheat_probability(exact_attack), 1) / n_transcripts * 1e6
    return out


def mc_table_probes(seed: int, scale: float) -> dict[str, float]:
    """The verdict-table Monte Carlo path and the interval, as in criterion 9."""
    gf2 = FieldSpec(2)
    attack = attack_base(gf2, 6, brute_force_value(GameDist.uniform(gf2)).strategy)
    draws = max(1000, int(10 ** 4 * scale))
    rng = random.Random(f"{seed}:perfbench:intervals")
    wins = [rng.randrange(9800, 10 ** 4) for _ in range(max(20, int(100 * scale)))]
    cp_times = []
    for w in wins:
        t0 = time.perf_counter()
        clopper_pearson(w, 10 ** 4)
        cp_times.append(time.perf_counter() - t0)
    return {
        "analysis.mc_table_us_per_draw": _median_time(
            lambda: mc_cheat_probability(attack, samples=draws, seed=seed), 5)
        / draws * 1e6,
        "analysis.clopper_pearson_us": statistics.median(cp_times) * 1e6,
    }


def layer_probes(seed: int, scale: float) -> dict[str, float]:
    out = {}
    for probe in (field_probes, game_probes, transcript_probes, mc_table_probes):
        out.update(probe(seed, scale))
    return out
