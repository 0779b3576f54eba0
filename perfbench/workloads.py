"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs one solve
(the timed unit, repeated identically within a run), checks the result
against exact references, and lists the exact values and Monte Carlo win
counts that make up its results digest.

Sizes are chosen so that one solve takes a few seconds on a 2-CPU box and a
run can repeat it at least three times; the `tiny` sizes exist only for the
harness self-check.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
    shift_strategy,
    theory_lower_bound,
    tower_gamma,
    trend_sweep,
    win_probability,
)

# Monte Carlo gates use this two-sided level, so a correct program fails a
# gate with probability about 1e-6 per estimate even over the thousands of
# estimates that repeated benchmark runs make.  The 99% intervals the
# library reports are still counted (analysis.coverage).
GATE_CONFIDENCE = 1 - 1e-6


class Gate:
    """Counts checked operations; a false result or an exception fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.coverage = 0
        self.mc_samples = 0

    def op(self, label: str, check) -> None:
        self.attempted += 1
        try:
            ok = bool(check())
        except Exception as exc:  # a crashing check is a failed operation
            ok = False
            label = f"{label}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def estimate(self, est, reference: Fraction) -> bool:
        """Record a Monte Carlo estimate; True when the gate interval covers."""
        self.mc_samples += est.samples
        self.coverage += est.covers(reference)
        lo, hi = clopper_pearson(est.wins, est.samples, GATE_CONFIDENCE)
        return lo <= float(reference) <= hi


def _field(p: int, n: int) -> FieldSpec:
    """Build a field and force its lazy operation tables."""
    spec = FieldSpec(p, n)
    spec.mul(1, 1)
    return spec


class Workload:
    name = ""
    fields: tuple[tuple[int, int], ...] = ()
    sizes: dict[str, dict] = {}

    def build_fields(self) -> dict[int, FieldSpec]:
        return {p ** n: _field(p, n) for p, n in self.fields}

    def inputs(self, seed: int, size: str, fields: dict[int, FieldSpec]) -> dict:
        return {"seed": seed, "fields": fields, **self.sizes[size]}

    def solve(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, result, gate: Gate) -> None:
        raise NotImplementedError

    def record(self, result) -> list:
        """Exact values and win counts that the results digest hashes."""
        raise NotImplementedError


class SweepQ16(Workload):
    """Best-response search on uniform GF(16), then the attack sweep over
    m = 4..31 (standard variant, rho = 2, k0 = 0): the paper's headline
    experiment, dominated by strategy evaluation and verification."""

    name = "sweep_q16"
    fields = ((2, 4),)
    sizes = {
        "full": {"restarts": 16, "m_values": range(4, 32), "samples": 200,
                 "exact_cap": 10 ** 4},
        "tiny": {"restarts": 2, "m_values": range(4, 8), "samples": 100,
                 "exact_cap": 10 ** 4},
    }

    def solve(self, inp):
        spec = inp["fields"][16]
        searched = best_response_search(GameDist.uniform(spec),
                                        restarts=inp["restarts"],
                                        seed=inp["seed"])
        rows = trend_sweep(spec, inp["m_values"], searched.strategy,
                           model=CausalModel(rho=2, k0=0),
                           variant=Variant.STANDARD,
                           exact_cap=inp["exact_cap"],
                           samples=inp["samples"], seed=1000 * inp["seed"])
        return searched, rows

    def check(self, inp, result, gate):
        spec = inp["fields"][16]
        searched, rows = result
        uniform = GameDist.uniform(spec)
        gate.op("search value recomputes and beats all-zeros",
                lambda: searched.value == win_probability(searched.strategy, uniform)
                and searched.value >= win_probability(DetStrategy.zeros(spec), uniform))
        previous = Fraction(0)
        for row in rows:
            def row_ok():
                ok = (row.closed_form >= previous
                      and row.closed_form >= theory_lower_bound(
                          row.m, spec.q, searched.value, row.rho, row.k0))
                if row.exact is not None:
                    return ok and row.exact == row.closed_form
                return gate.estimate(row.mc, row.closed_form) and ok
            gate.op(f"sweep row m={row.m}", row_ok)
            previous = row.closed_form

    def record(self, result):
        searched, rows = result
        out = [searched.value, searched.strategy.s1, searched.strategy.s2]
        for row in rows:
            out.append([row.m, row.w, row.closed_form, row.lower_bound, row.exact,
                        None if row.mc is None else [row.mc.wins, row.mc.samples]])
        return out


class GameSearch(Workload):
    """Searches at GF(27) and GF(32) on the tower-biased input distribution,
    a uniform GF(32) search, the best shift of each result, and the exact
    brute-force optimum at GF(5): the game layer alone, with odd
    characteristic exercising sub/neg."""

    name = "game_search"
    fields = ((3, 3), (2, 5), (5, 1))
    # rho = 4: for rho = 2 the windowed input is a single uniform challenge,
    # so the "biased" distribution would equal the uniform one.
    rho = 4
    # Restarts converge after 3 to 9 best-response rounds depending on the
    # seed; capping them at 3 fixes the work per restart, so the workload
    # seed changes the tables searched but not how much searching is done.
    max_iters = 3
    sizes = {
        "full": {"restarts": (4, 3, 2)},
        "tiny": {"restarts": (1, 1, 1)},
    }

    def _plan(self, inp):
        gf27, gf32 = inp["fields"][27], inp["fields"][32]
        model = CausalModel(rho=self.rho, k0=0)
        biased27 = GameDist(gf27, tower_gamma(gf27, model))
        biased32 = GameDist(gf32, tower_gamma(gf32, model))
        # (search distribution, shift distribution, restarts, search seed)
        r = inp["restarts"]
        s = 3 * inp["seed"]
        return [(biased27, biased27, r[0], s),
                (biased32, biased32, r[1], s + 1),
                (GameDist.uniform(gf32), biased32, r[2], s + 2)]

    def solve(self, inp):
        found = []
        for search_dist, shift_dist, restarts, seed in self._plan(inp):
            searched = best_response_search(search_dist, restarts=restarts,
                                            max_iters=self.max_iters, seed=seed)
            found.append((searched, best_shift(searched.strategy, shift_dist)))
        brute = brute_force_value(GameDist.uniform(inp["fields"][5]))
        return found, brute

    def check(self, inp, result, gate):
        found, brute = result
        for (search_dist, shift_dist, _, _), (searched, shifted) in zip(
                self._plan(inp), found):
            spec = search_dist.field
            label = f"GF({spec.q}) gamma={search_dist.gamma}"
            gate.op(f"search {label}",
                    lambda: searched.value == win_probability(searched.strategy,
                                                              search_dist)
                    and searched.value >= win_probability(DetStrategy.zeros(spec),
                                                          search_dist))
            gate.op(f"best shift {label}",
                    lambda: shifted.value == win_probability(shifted.strategy,
                                                             shift_dist)
                    and shifted.value >= win_probability(searched.strategy,
                                                         GameDist.uniform(spec)))
        gf5 = inp["fields"][5]
        gate.op("brute force GF(5) == 12/25",
                lambda: brute.value == Fraction(12, 25)
                == win_probability(brute.strategy, GameDist.uniform(gf5)))

    def record(self, result):
        found, brute = result
        out = [[s.value, s.strategy.s1, s.strategy.s2, b.u, b.v, b.value]
               for s, b in found]
        return out + [brute.value, brute.strategy.s1, brute.strategy.s2]


def shifted_zeros_char2(spec: FieldSpec, u: int, v: int) -> DetStrategy:
    """shift_strategy(DetStrategy.zeros(spec), u, v) for characteristic 2.

    The shifted tables are s1(x) = x*v and s2(y) = y*u + u*v (signs vanish
    in characteristic 2).  Multiplication by a constant is GF(2)-linear in
    the bit vector of the index, so each table is the XOR of the products
    of the basis elements t^i that x has set; this needs n field
    multiplications instead of Q, which keeps GF(2^16) input generation
    well under a second.  Checked against shift_strategy at GF(256).
    """
    if spec.p != 2:
        raise ValueError("linear table construction assumes characteristic 2")

    def times(c):
        basis = [spec.mul(1 << i, c) for i in range(spec.n)]
        table = [0] * spec.q
        for x in range(1, spec.q):
            low = x & -x
            table[x] = table[x ^ low] ^ basis[low.bit_length() - 1]
        return table

    uv = spec.mul(u, v)
    return DetStrategy(spec, tuple(times(v)), tuple(t ^ uv for t in times(u)))


def clmul_mod(a: int, b: int, modulus: int) -> int:
    """a*b in GF(2)[t] reduced by the modulus, all three as bit vectors
    (bit k is the coefficient of t^k, as in FieldSpec's indices)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    degree = modulus.bit_length() - 1
    while product.bit_length() > degree:
        product ^= modulus << (product.bit_length() - 1 - degree)
    return product


class TowerMcLargeQ(Workload):
    """An m = 31 symmetrized tower with a shifted all-zeros game strategy,
    evaluated by Monte Carlo, plus seeded honest transcripts, at GF(2^8)
    (table arithmetic) and GF(2^16) (digit arithmetic beyond the table cap):
    the only workload on the field's non-table path."""

    name = "tower_mc_largeq"
    fields = ((2, 8), (2, 16))
    m = 31
    model = CausalModel(rho=2, k0=0)
    sizes = {
        "full": {"samples": {256: 1000, 65536: 100}, "honest": 16},
        "tiny": {"samples": {256: 100, 65536: 100}, "honest": 2},
    }
    # Seeded operand pairs whose products, sums and inverses are checked
    # against carry-less multiplication: at GF(2^16) the attack's acceptance
    # is within 2e-4 of 1/2, so the Monte Carlo gate alone cannot tell
    # wrong arithmetic from right.
    arithmetic_checks = 100

    def inputs(self, seed, size, fields):
        inp = super().inputs(seed, size, fields)
        rng = random.Random(f"{seed}:perfbench:tower")
        inp["plugged"] = {}
        for q, spec in fields.items():
            u, v = rng.randrange(1, q), rng.randrange(1, q)
            inp["plugged"][q] = (u, v, shifted_zeros_char2(spec, u, v))
        return inp

    def solve(self, inp):
        out = {}
        for q, (_, _, strategy) in inp["plugged"].items():
            spec = inp["fields"][q]
            attack = build_attack(spec, Variant.SYMMETRIZED, self.m, self.model,
                                  strategy)
            est = mc_cheat_probability(attack, samples=inp["samples"][q],
                                       seed=1000 * inp["seed"] + q)
            params = ProtocolParams(spec, self.m, Variant.SYMMETRIZED)
            honest = [run_honest(params, i % 2, seed=1000 * inp["seed"] + i)
                      for i in range(inp["honest"])]
            out[q] = (est, honest)
        return out

    def reference(self, spec: FieldSpec, u: int, v: int) -> Fraction:
        """Exact acceptance of the tower plugged with the shifted zeros.

        The strategy wins exactly when x = -u or y = -v, so its value on
        the windowed distribution is w = 1 - (1 - P[x=-u])(1 - P[y=-v]).
        """
        model = self.model
        dist = GameDist(spec, tower_gamma(spec, model))
        w = 1 - (1 - dist.mass(spec.neg(u))) * (1 - dist.mass(spec.neg(v)))
        miss = 1 - Fraction(1, spec.q)
        steps = (self.m - model.k0) // (model.rho + 1)
        pad = self.m - model.k0 - steps * (model.rho + 1)
        return 1 - Fraction(1, 2) * miss ** model.k0 * (miss * (1 - w)) ** steps \
            * miss ** pad

    def check(self, inp, result, gate):
        for q, (est, honest) in result.items():
            spec = inp["fields"][q]
            u, v, strategy = inp["plugged"][q]

            def arithmetic_ok():
                modulus = sum(c << k for k, c in enumerate(spec.modulus))
                rng = random.Random(f"{inp['seed']}:perfbench:arithmetic:{q}")
                for _ in range(self.arithmetic_checks):
                    a, b = rng.randrange(1, q), rng.randrange(1, q)
                    if (spec.mul(a, b) != clmul_mod(a, b, modulus)
                            or spec.add(a, b) != a ^ b or spec.neg(a) != a
                            or spec.mul(a, spec.inv(a)) != 1):
                        return False
                return True
            gate.op(f"field arithmetic GF({q})", arithmetic_ok)

            def mc_ok():
                ref = self.reference(spec, u, v)
                ok = gate.estimate(est, ref)
                if spec.q <= 256:
                    ok = (ok and strategy == shift_strategy(DetStrategy.zeros(spec), u, v)
                          and ref == predicted_attack_probability(
                              spec, Variant.SYMMETRIZED, self.m, self.model,
                              strategy))
                return ok
            gate.op(f"tower MC GF({q})", mc_ok)
            for t in honest:
                gate.op(f"honest transcript GF({q})", lambda: t.accepted)

    def record(self, result):
        return [[q, est.wins, est.samples, [t.responses for t in honest]]
                for q, (est, honest) in sorted(result.items())]


class McCoverageQ2(Workload):
    """200 seeded Monte Carlo estimates of the m = 6 base attack at GF(2),
    exact value 127/128, each with a Clopper-Pearson interval: the
    verdict-table draw loop and the per-estimate interval dominate."""

    name = "mc_coverage_q2"
    fields = ((2, 1),)
    sizes = {
        # max_misses = 10 of 200: with the intervals' exact miss rate at
        # 127/128 (0.75%), a correct program fails with probability 4.5e-7.
        "full": {"estimates": 200, "samples": 10 ** 4, "max_misses": 10},
        "tiny": {"estimates": 10, "samples": 1000, "max_misses": 5},
    }

    def solve(self, inp):
        spec = inp["fields"][2]
        optimum = brute_force_value(GameDist.uniform(spec)).strategy
        attack = attack_base(spec, 6, optimum)
        base = inp["estimates"] * inp["seed"]
        return attack, [mc_cheat_probability(attack, samples=inp["samples"],
                                             seed=base + i)
                        for i in range(inp["estimates"])]

    def check(self, inp, result, gate):
        attack, estimates = result

        def batch_ok():
            exact = exact_cheat_probability(attack)
            for est in estimates:
                gate.estimate(est, exact)
            misses = sum(not est.covers(exact) for est in estimates)
            return exact == Fraction(127, 128) and misses <= inp["max_misses"]
        gate.op("coverage batch", batch_ok)

    def record(self, result):
        _, estimates = result
        return [[est.seed, est.wins, est.samples] for est in estimates]


WORKLOADS = {w.name: w for w in (SweepQ16(), GameSearch(), TowerMcLargeQ(),
                                 McCoverageQ2())}
