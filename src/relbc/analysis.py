"""Exact and estimated cheating probabilities, bound formulas, sweeps.

Exact probabilities are uniform averages over the committed bit and all
challenge vectors, computed as rationals.  Monte Carlo estimates come with
exact binomial (Clopper-Pearson) confidence intervals, whose endpoints are
beta quantiles: closed forms where the beta has a = 1 or b = 1, elsewhere
found by inverting the regularized incomplete beta function I_x(a, b): a
Lentz continued fraction, contracted to one step a pair of terms, evaluates
the tail, and safeguarded quartic (third-order Householder) steps solve for
x.  The bound formulas are the tower lower bound
1 - (1/2)*((1-1/Q)(1-w))^floor((m-k0-1)/(rho+1)) and the heuristic upper
comparison 1/2 + c*m/sqrt(Q).
"""

from __future__ import annotations

import csv
import math
import operator
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .adversary import (_CHUNK_ROWS, CausalModel, CheatStrategy,
                        _build_attacks, _drawn_columns, tower_gamma)
from .errors import CapabilityError
from .field import FieldSpec
from .games import DetStrategy, GameDist, win_probability
from .protocol import Variant, _ByteStream

EXACT_ENUM_CAP = 10 ** 8


def exact_cheat_probability(strategy: CheatStrategy) -> Fraction:
    """Exact acceptance probability by full enumeration of (d, challenges):
    the rows that rejected_rows rejects, counted a chunk of product-order
    columns at a time, so memory stays bounded.  The verdict table is the
    same enumeration.
    """
    total = 2 * strategy.field.q ** strategy.n_challenges
    if total > EXACT_ENUM_CAP:
        raise CapabilityError(
            f"exact enumeration needs {total} transcripts (cap {EXACT_ENUM_CAP});"
            " use mc_cheat_probability")
    rejected = sum(chunk.count(1) for chunk in strategy._rejections())
    return Fraction(total - rejected, total)


_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_CF_EPS = 1e-15
_CF_MAX_TERMS = 100000
# After a quartic step of relative size s the error is O(s^4): stop there
_STEP_RTOL = 1e-3
_QUANTILE_MAX_STEPS = 200


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), which is below
    1/(12 z); from Stirling's series (truncation error < 1e-18) for z >= 50."""
    if z < 50.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    r = 1.0 / (z * z)
    return (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / z


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """h with I_x(a, b) = x^a y^b / (a B(a, b)) * h, where y = 1 - x and
    lam = a - (a + b) x are each formed from whichever of x and y is exact.

    h = 1 / (1 + d1 / (1 + d2 / ...)) is Numerical Recipes' betacf fraction,
    which converges quickly for x < (a+1)/(a+b+2).  Modified Lentz runs on
    its even contraction h = 1 - d1 / (B1 + A2 / (B2 + ...)), one step a
    pair of terms, with B_k = 1 + d_{2k-1} + d_{2k} = (u_k (1 + y) + a lam)
    / ((a + 2k - 2)(a + 2k)), u_k = 2k (a + k - 1) - a, and A_k = -d_{2k-2}
    d_{2k-1}, scaled to polynomials in k.  Built on lam (TOMS 708's lambda),
    no coefficient is a difference of rounded numbers near 1; where the
    fraction is used every B_k is positive, and so is every A_k up to the
    integral b that ends it.
    """
    apb, lam_a, y1, xx = a + b, a * lam, 1.0 + y, x * x
    f = c = a * (a + 1.0) * (y1 + lam)  # B_1 scaled by a (a + 1) (a + 2)
    d = k = 0.0
    for _ in range(_CF_MAX_TERMS):
        k += 1.0
        a2k = a + k + k
        num = k * (b - k) * (a + k) * (apb + k) * (a2k - 2.0) * (a2k + 2.0) * xx
        den = (((k + k + 2.0) * (a + k) - a) * y1 + lam_a) * (a2k + 1.0)
        d = 1.0 / (den + num * d)
        c = den + num / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return 1.0 + apb * x * a * (a + 2.0) / f
    raise ArithmeticError(f"incomplete beta continued fraction did not converge"
                          f" for a={a}, b={b}, x={x}")


def _beta_quantile(p: float, a: float, b: float, upper: bool) -> float:
    """x with I_x(a, b) = p, or with 1 - I_x(a, b) = p when upper, for
    integral a, b >= 1: closed forms at a = 1 or b = 1.

    The requested tail T is evaluated on the side of the continued
    fraction's split, so a small T is never the difference of two numbers
    near 1, and lam = a - (a + b) x comes from whichever of x and 1 - x is
    exact; log(x^a (1-x)^b / B(a, b)) comes from lam and Stirling's formula,
    so no lgamma(a + b) cancels.  Householder steps of the third order on
    log T - log p (log T is concave: the beta density is log-concave for
    a, b >= 1) start from the Numerical Recipes invbetai guess, or deep in a
    tail from the tail's leading term (where that guess can be off by orders
    of magnitude), and stay inside a bracket updated from the sign of the
    residual; a step that leaves the bracket is replaced by bisection.  The
    second and third derivatives of log T follow from its first and the
    log-density, so a step costs one continued fraction; the steps converge
    quartically, so from a start whose Newton step is below _STEP_RTOL one
    step is taken and not checked by a second evaluation.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    if b == 1.0:  # I_x(a, 1) = x^a
        return math.exp((log_q if upper else log_p) / a)
    if a == 1.0:  # 1 - I_x(1, b) = (1 - x)^b
        return -math.expm1((log_p if upper else log_q) / b)
    apb, rest = a + b, _stirling_rest
    # log of x0^a y0^b / B(a, b) at the mean x0 = a / (a + b), y0 = 1 - x0
    log_peak = (0.5 * math.log(a * b / apb) - _HALF_LOG_2PI - rest(a) - rest(b)
                + rest(apb))
    log_beta = a * math.log(a / apb) + b * math.log(b / apb) - log_peak
    # Deep in a tail, T ~ x^a / (a B(a, b)) (lower) or (1-x)^b / (b B(a, b))
    # (upper); trust that form while the first neglected term is small.
    if upper:
        edge = math.exp((math.log(p * b) + log_beta) / b)
        x = 1.0 - edge
        far = (a - 1.0) * edge < 0.1
    else:
        x = edge = math.exp((math.log(p * a) + log_beta) / a)
        far = (b - 1.0) * edge < 0.1
    if not far:
        # z: the normal deviate of the upper tail at x (NR's sign convention)
        t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if (p < 0.5) != upper:
            z = -z
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (z * math.sqrt(al + h) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
             * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
    x = min(max(x, _TINY), _BELOW_ONE)

    split = (a + 1.0) / (a + b + 2.0)
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_MAX_STEPS):
        # front = x^a y^b / B(a, b); the density is front / (x y)
        y = 1.0 - x  # exact for x >= 1/2, where x is not
        lam = a - apb * x if x < 0.5 else apb * y - b
        t, s = -lam / a, lam / b  # x / x0 - 1 and y / y0 - 1
        log_front = (log_peak
                     + a * (math.log1p(t) if t > -0.5 else math.log(x * apb / a))
                     + b * (math.log1p(s) if s > -0.5 else math.log(y * apb / b)))
        if x < split:
            near, cf = not upper, _beta_cf(a, b, x, y, lam) / a
        else:
            near, cf = upper, _beta_cf(b, a, y, x, -lam) / b
        if near:  # T = front * cf
            log_tail = log_front + math.log(cf)
            slope = 1.0 / (x * y * cf)
        else:  # T = 1 - front * cf
            front = math.exp(log_front)
            tail = 1.0 - front * cf
            log_tail = math.log(tail)
            slope = front / (x * y * tail)
        if upper:
            slope = -slope  # d log T / dx
        residual = log_tail - log_p
        if residual == 0.0:
            return x
        if (residual > 0.0) != upper:
            hi = x
        else:
            lo = x
        if slope != 0.0:
            step = residual / slope  # Newton's step
            # L'' / L' and L''' / L' for L = log T and the log-density l:
            # L'' = L' (l' - L') and L''' = L'' (l' - L') + L' (l'' - L'')
            bend = (a - 1.0) / x - (b - 1.0) / y - slope
            twist = (bend * (bend - slope) - (a - 1.0) / (x * x)
                     - (b - 1.0) / (y * y))
            lean = step * bend
            quartic = x - step * (1.0 - 0.5 * lean) / (
                1.0 - lean + step * step * twist / 6.0)  # Householder's step
            if abs(step) <= max(_STEP_RTOL * min(x, y), math.ulp(x)):
                return min(max(quartic, lo), hi)
            if lo < quartic < hi:
                x = quartic
                continue
        x = 0.5 * (lo + hi)
        if not lo < x < hi:  # no float left inside the bracket
            return x
    raise ArithmeticError(f"beta quantile did not converge for p={p}, a={a},"
                          f" b={b}")


def clopper_pearson(wins: int, samples: int, confidence: float = 0.99
                    ) -> tuple[float, float]:
    """Exact binomial two-sided confidence interval (Clopper & Pearson 1934).

    The endpoints are the alpha/2 lower quantile of Beta(wins, samples-wins+1)
    and the alpha/2 upper quantile of Beta(wins+1, samples-wins), with
    alpha = 1 - confidence; they are 0 and 1 at wins = 0 and wins = samples.
    wins and samples must be integers (TypeError otherwise).
    """
    wins, samples = operator.index(wins), operator.index(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 <= wins <= samples:
        raise ValueError(f"wins must lie in [0, {samples}], got {wins}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    tail = (1.0 - confidence) / 2
    lo = 0.0 if wins == 0 else _beta_quantile(
        tail, float(wins), float(samples - wins + 1), upper=False)
    hi = 1.0 if wins == samples else _beta_quantile(
        tail, float(wins + 1), float(samples - wins), upper=True)
    return lo, hi


@dataclass(frozen=True)
class McEstimate:
    mean: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    wins: int
    confidence: float = 0.99

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2

    def covers(self, value) -> bool:
        return self.ci_low <= float(value) <= self.ci_high

    def to_dict(self) -> dict:
        return {"mean": self.mean, "ci_low": self.ci_low, "ci_high": self.ci_high,
                "samples": self.samples, "seed": self.seed, "wins": self.wins,
                "confidence": self.confidence}


def _table_wins(table: bytes, samples: int, rng: random.Random) -> int:
    """Wins among `samples` uniform draws of an entry of a table of at
    most 256 0/1 bytes: the table indexed by the first `samples` kept byte
    tries of rng's _ByteStream, read at most _CHUNK_ROWS at a time.  The
    stream looks each try up in the table as it reads it (tries' code), so
    a block is one translate and one count.  The table must fit
    MC_TABLE_CAP: beyond 256 entries tries ignores code, and the count
    would count draws of index 1."""
    wins, stream, code = 0, _ByteStream(rng), table.ljust(256, b"\0")
    while samples:
        block = min(samples, _CHUNK_ROWS)
        wins += stream.tries(len(table), block, code).count(1)
        samples -= block
    return wins


def _column_rejections(strategy: CheatStrategy, rng: random.Random,
                       samples: int) -> int:
    """Rejections among `samples` drawn transcripts: each chunk of
    _drawn_columns judged at once by rejected_rows."""
    return sum(strategy.rejected_rows(d, xs).bit_count()
               for d, xs in _drawn_columns(rng, strategy.field.q,
                                           strategy.n_challenges, samples))


def mc_cheat_probability(strategy: CheatStrategy,
                         samples: int = 10000, seed: int = 0) -> McEstimate:
    """Monte Carlo acceptance estimate over i.i.d. uniform (d, challenges).

    For input spaces of at most MC_TABLE_CAP (256) the trials are index
    draws from the strategy's verdict table, which is built once per
    strategy; larger spaces draw transcripts, judged a chunk at a time by
    rejected_rows.  The draws read relbc's own byte stream (_ByteStream):
    the little-endian bytes of the successive 32-bit outputs of an rng keyed
    by the seed and the protocol length, f"{seed}:mc:{m}", so that two
    estimates share a stream only when they share both.  Every draw below
    a space is _ByteStream.tries' one rule: the top bits of a lane of 1, 2
    or 4 bytes, kept when below the space.  A bit d, an index below a
    verdict table and a challenge over Q <= 256 take one byte a try; a
    challenge over 256 < Q <= 2^16 takes a 2-byte lane, and a challenge
    over a larger Q a 4-byte one.  Transcripts come in chunks of
    _CHUNK_ROWS rows, every bit of a chunk before its challenges
    (_drawn_columns).
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    rng = random.Random(f"{seed}:mc:{strategy.m}")
    table = strategy.verdict_table
    if table is not None:
        wins = _table_wins(table, samples, rng)
    else:
        wins = samples - _column_rejections(strategy, rng, samples)
    lo, hi = clopper_pearson(wins, samples)
    return McEstimate(wins / samples, lo, hi, samples, seed, wins)


def _survival(q: int, misses: int, w: Fraction, steps: int) -> Fraction:
    """1 - (1/2)(1 - 1/q)^misses (1 - w)^steps, the acceptance probability
    left by a deficit of 1/2 that shrinks by 1 - 1/q `misses` times and by
    1 - w `steps` times, as one integer numerator over one integer
    denominator, reduced once."""
    wd = w.denominator
    den = 2 * q ** misses * wd ** steps
    return Fraction(den - (q - 1) ** misses * (wd - w.numerator) ** steps, den)


def theory_lower_bound(m: int, q: int, w, rho: int = 2, k0: int = 0) -> Fraction:
    """Tower lower bound on the cheating probability.

    Valid for any feasible game-strategy value w substituted for the game
    optimum; (rho=2, k0=0) gives the base three-round form with exponent
    floor((m-1)/3).
    """
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise ValueError(f"w must lie in [0, 1], got {w}")
    if rho == 2 and k0 == 0:
        if m < 3:
            raise ValueError(f"the base bound needs m >= 3, got {m}")
    elif m < k0 + 2:
        raise ValueError(f"the general bound needs m >= k0 + 2, got m={m}, k0={k0}")
    exponent = (m - k0 - 1) // (rho + 1)
    return _survival(q, exponent, w, exponent)


def check_upper_c(c: float) -> None:
    """Raise ValueError unless the upper constant c is positive and finite."""
    if not 0 < c < math.inf:
        raise ValueError(f"upper constant c must be positive and finite, got {c}")


def theory_upper_bound(m: int, q: int, c: float = 1.0) -> float:
    """Heuristic binding comparison 1/2 + c*m/sqrt(Q), clamped to 1.

    The constant is not pinned by theory; c is caller-supplied and must be
    positive and finite.
    """
    check_upper_c(c)
    return min(1.0, 0.5 + c * m / math.sqrt(q))


def _closed_form(q: int, variant: Variant, m: int, model: CausalModel,
                 w_gamma: Optional[Fraction]) -> Fraction:
    """predicted_attack_probability from the plugged strategy's w_gamma
    (None when no strategy is plugged): the deficit shrinks by 1 - 1/Q in
    every round outside the tower steps and once per step, and by
    1 - w_gamma per step."""
    if Variant(variant) is Variant.STANDARD:
        # the symmetrized attack on m - 1 rounds, desymmetrized; below
        # m - 1 = 2 no step fits and the deficit is (1/2)(1 - 1/Q)
        m = max(m - 1, 1)
    steps = (m - model.k0) // (model.rho + 1)
    if steps < 1 or w_gamma is None:
        return _survival(q, m, Fraction(0), 0)
    return _survival(q, m - steps * model.rho, w_gamma, steps)


def predicted_attack_probability(spec: FieldSpec, variant: Variant, m: int,
                                 model: CausalModel,
                                 game_strategy: Optional[DetStrategy]
                                 ) -> Fraction:
    """Closed-form exact acceptance probability of build_attack's strategy.

    The acceptance deficit starts at (1/2)(1-1/Q)^k0 after the silent
    prefix, shrinks by (1-1/Q)(1-w_gamma) per tower step (w_gamma the
    plugged strategy's exact value on the windowed input distribution), and
    by (1-1/Q) per padding round.  Matches enumeration wherever the latter
    is feasible.
    """
    _, w_gamma = _plugged_values(spec, model, game_strategy)
    return _closed_form(spec.q, variant, m, model, w_gamma)


_UNPLUGGED = (Fraction(0), None)


def _plugged_values(spec: FieldSpec, model: CausalModel,
                    game_strategy: Optional[DetStrategy]
                    ) -> tuple[Fraction, Optional[Fraction]]:
    """(w, w_gamma): the plugged strategy's exact value on the uniform game
    and on the tower's windowed inputs, both read off its _win_counts;
    (0, None) when none is plugged."""
    if game_strategy is None:
        return _UNPLUGGED
    return (win_probability(game_strategy, GameDist.uniform(spec)),
            win_probability(game_strategy,
                            GameDist(spec, tower_gamma(spec, model))))


def _ratio(x: Optional[Fraction]) -> Optional[str]:
    """x as "n/d" in full: Decimal writes ints past str()'s 4300 digits."""
    return None if x is None else f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class AttackRow:
    """A measured cheating probability next to w, the closed form and the
    bound values; one `attack` report or one `sweep` row."""

    q: int
    m: int
    variant: Variant
    rho: int
    k0: int
    w: Fraction
    exact: Optional[Fraction]
    mc: Optional[McEstimate]
    closed_form: Fraction
    lower_bound: Fraction
    upper_bound: float
    upper_c: float

    @property
    def value(self) -> float:
        return float(self.exact) if self.exact is not None else self.mc.mean

    @property
    def epsilon(self) -> float:
        """Binding gap: measured probability minus one half."""
        return self.value - 0.5

    @property
    def t(self) -> float:
        """m / sqrt(Q)."""
        return self.m / math.sqrt(self.q)

    def to_dict(self) -> dict:
        """The `sweep` JSON row."""
        return {
            "q": self.q, "m": self.m, "rho": self.rho, "k0": self.k0,
            "w": _ratio(self.w), "exact": _ratio(self.exact),
            "mc": None if self.mc is None else self.mc.to_dict(),
            "closed_form": _ratio(self.closed_form),
            "closed_form_float": float(self.closed_form),
            "lower_bound": _ratio(self.lower_bound),
            "lower_bound_float": float(self.lower_bound),
            "upper_bound": self.upper_bound, "t": self.t,
        }

    def report_dict(self) -> dict:
        """The `attack` JSON report block."""
        return {
            "q": self.q, "m": self.m, "variant": self.variant.value,
            "rho": self.rho, "k0": self.k0, "w": _ratio(self.w),
            "exact": _ratio(self.exact),
            "exact_float": None if self.exact is None else float(self.exact),
            "estimate": None if self.mc is None else self.mc.to_dict(),
            "theory_lower": _ratio(self.lower_bound),
            "theory_lower_float": float(self.lower_bound),
            "theory_upper": self.upper_bound, "upper_c": self.upper_c,
            "epsilon": self.epsilon,
        }


def _evaluate(strategy: CheatStrategy, method: str, samples: int, seed: int,
              upper_c: float, w: Fraction, w_gamma: Optional[Fraction]
              ) -> AttackRow:
    params, model = strategy.params, strategy.model
    q, m = params.field.q, params.m
    if method == "exact":
        exact, mc = exact_cheat_probability(strategy), None
    elif method == "mc":
        exact, mc = None, mc_cheat_probability(strategy, samples, seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    # Below one tower step the bound's exponent is 0 and its value 1/2;
    # theory_lower_bound rejects the shortest of those lengths.
    lower = (theory_lower_bound(m, q, w, model.rho, model.k0)
             if m - model.k0 - 1 >= model.rho + 1 else Fraction(1, 2))
    return AttackRow(q, m, params.variant, model.rho, model.k0, w, exact, mc,
                     _closed_form(q, params.variant, m, model, w_gamma),
                     lower, theory_upper_bound(m, q, upper_c), upper_c)


def evaluate(strategy: CheatStrategy, method: str = "exact",
             samples: int = 10000, seed: int = 0,
             upper_c: float = 1.0) -> AttackRow:
    """The strategy's acceptance probability, enumerated (method "exact")
    or estimated from `samples` draws seeded by `seed` (method "mc").

    w, which the lower bound uses, is the uniform game value of the
    strategy's plugged game strategy, or 0 when none is plugged (no tower
    step fits).  closed_form is build_attack's value at the strategy's
    parameters.  A bad upper_c is rejected before any work.
    """
    check_upper_c(upper_c)
    values = _plugged_values(strategy.params.field, strategy.model,
                             strategy.game_strategy)
    return _evaluate(strategy, method, samples, seed, upper_c, *values)


def trend_sweep(spec: FieldSpec, m_values: Sequence[int],
                    game_strategy: DetStrategy,
                    model: Optional[CausalModel] = None,
                    variant: Variant = Variant.STANDARD,
                    exact_cap: int = 2 * 10 ** 5,
                    samples: int = 20000, seed: int = 0,
                    upper_c: float = 1.0) -> list[AttackRow]:
    """One evaluated attack per protocol length, in m_values' order.

    Row m's strategy is build_attack's at m, cut from the sweep's longest
    tower, which is laid out once (adversary._build_attacks).  Row m is
    enumerated when its 2*Q^n transcripts fit in exact_cap, and is
    otherwise evaluate's Monte Carlo estimate with the sweep's own seed,
    whose stream mc_cheat_probability keys by m; so every row equals
    evaluate(build_attack(...)) at its m.  The plugged strategy's game
    values are computed once per sweep.  A bad upper_c is rejected before
    any row, even when there is none.
    """
    check_upper_c(upper_c)
    model = model or CausalModel()
    plugged = _plugged_values(spec, model, game_strategy)
    rows = []
    for strategy in _build_attacks(spec, variant, m_values, model,
                                   game_strategy):
        method = ("exact" if 2 * spec.q ** strategy.params.n_challenges
                  <= exact_cap else "mc")
        values = _UNPLUGGED if strategy.game_strategy is None else plugged
        rows.append(_evaluate(strategy, method, samples, seed, upper_c,
                              *values))
    return rows


def empirical_upper_constant(rows: Sequence[AttackRow]) -> float:
    """Smallest c for which every measured row satisfies the upper formula."""
    return max((row.value - 0.5) * math.sqrt(row.q) / row.m for row in rows)


SWEEP_COLUMNS = ["q", "m", "rho", "k0", "w_num", "w_den", "g_num", "g_den",
                 "mc_mean", "mc_ci", "lower_bound", "upper_bound_c"]


def write_sweep_csv(rows: Sequence[AttackRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row.q, row.m, row.rho, row.k0,
                row.w.numerator, row.w.denominator,
                "" if row.exact is None else row.exact.numerator,
                "" if row.exact is None else row.exact.denominator,
                "" if row.mc is None else row.mc.mean,
                "" if row.mc is None else row.mc.half_width,
                float(row.lower_bound), row.upper_bound,
            ])
