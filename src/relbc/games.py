"""The CHSH game over GF(Q) and its zero-biased input variant.

Two non-communicating players receive inputs x and y, answer a and b, and
win when a + b = x * y.  Inputs are uniform in the plain game; in the biased
variant each player independently receives 0 with probability gamma and a
uniform nonzero element otherwise.  All probabilities are exact rationals.
"""

from __future__ import annotations

import io
import operator
import random
from dataclasses import dataclass, field as _field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import CapabilityError, FieldMismatchError
from .field import FieldSpec
from .protocol import _ByteStream

# The walk costs ~Q^(Q-1) steps for a uniform game (s1(0) = s1(1) = 0) and
# ~Q^Q for a biased one (s1(0) = 0).  Uniform: GF(5) ~0.3 ms, GF(7)
# ~0.04 s, GF(8) ~0.6 s, GF(9) ~13 s; biased: GF(7) ~0.2 s, GF(8) would
# take ~4 s (2-CPU Xeon VM, Python 3.11).  Larger fields are refused.
BRUTE_FORCE_MAX_Q = 9
BRUTE_FORCE_MAX_Q_BIASED = 7
# Best responses read the _game_tables, two Q x Q tables of rows (2 x 134
# MB at Q = 4096, 2 x 34 GB at Q = 2^16), Q x _GATHER_COLUMNS at a time.
# At GF(4096) the tables take ~1.1 s, one response ~3 s, and the two peak
# at ~280 MB (GF(1024): 0.09 s, 0.15 s, 34 MB).  Larger Q is refused.
SEARCH_MAX_Q = 4096
# Most columns of gathered bucket rows _greedy_best holds at once: up to
# this many, a response gathers its rows whole in one pass, and beyond, a
# block of this many columns at a time (_bucket_columns).
_GATHER_COLUMNS = 256


@dataclass(frozen=True)
class GameDist:
    """Per-player input distribution: mass gamma on 0, uniform elsewhere."""

    field: FieldSpec
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    @classmethod
    def uniform(cls, field: FieldSpec) -> "GameDist":
        return cls(field, Fraction(1, field.q))

    @property
    def is_uniform(self) -> bool:
        return self.gamma == Fraction(1, self.field.q)

    def mass(self, index: int) -> Fraction:
        if index == 0:
            return self.gamma
        return (1 - self.gamma) / (self.field.q - 1)

    def weights(self) -> tuple[list[int], int]:
        """Integer masses over a common denominator, for fast exact scoring."""
        q = self.field.q
        num, den = self.gamma.numerator, self.gamma.denominator
        w = [den - num] * q
        w[0] = num * (q - 1)
        return w, den * (q - 1)


@dataclass(frozen=True)
class DetStrategy:
    """Deterministic pair of response tables, indexed in canonical order."""

    field: FieldSpec
    s1: tuple[int, ...]
    s2: tuple[int, ...]

    def __post_init__(self):
        q = self.field.q
        for name in ("s1", "s2"):
            table = getattr(self, name)
            if type(table) is not tuple or set(map(type, table)) != {int}:
                table = tuple(map(operator.index, table))
            if len(table) != q or min(table) < 0 or max(table) >= q:
                raise ValueError(f"{name} must be {q} valid element indices")
            object.__setattr__(self, name, table)

    @cached_property
    def wins(self) -> bytes:
        """The win matrix, row-major: wins[a*Q + b] is 1 when the pair wins
        on (a, b), s1[a] + s2[b] = a*b, and 0 otherwise: the _win_rows in
        order, kept with the strategy (16 MB at Q = 4096).  Each row is
        written as it comes over Q^2 zero bytes, which the result keeps
        without a copy, so the build peaks at ~1.2x the matrix; b"".join
        would hold every row and the joined copy at once (~2.1x)."""
        buffer = io.BytesIO(bytes(self.field.q ** 2))
        buffer.writelines(_win_rows(self))
        return buffer.getvalue()

    @cached_property
    def _win_counts(self) -> tuple[int, int, int, int]:
        """(|W|, r_0, c_0, W_00): the win set's size, the counts of its row
        and column 0, and its corner bit.  Column 0 wins at s1[x] = -s2[0]."""
        rows = map(bytes.count, _win_rows(self), repeat(1))
        r0 = next(rows)
        z = self.field.neg(self.s2[0])
        return r0 + sum(rows), r0, self.s1.count(z), int(self.s1[0] == z)

    @classmethod
    def zeros(cls, field: FieldSpec) -> "DetStrategy":
        return cls(field, (0,) * field.q, (0,) * field.q)

    @classmethod
    def random(cls, field: FieldSpec, rng: random.Random) -> "DetStrategy":
        """s1, then s2: the first 2Q tries below Q of rng's _ByteStream."""
        q = field.q
        tries = _ByteStream(rng).tries(q, 2 * q)
        return cls(field, tuple(tries[:q]), tuple(tries[q:]))

    def to_dict(self) -> dict:
        return {"field": self.field.describe(), "s1": list(self.s1), "s2": list(self.s2)}

    @classmethod
    def from_dict(cls, data: dict) -> "DetStrategy":
        return cls(FieldSpec.from_description(data["field"]),
                   tuple(data["s1"]), tuple(data["s2"]))


@dataclass
class GameValueResult:
    """A game value together with the strategy that attains it."""

    value: Fraction
    strategy: DetStrategy
    method: str
    meta: dict = _field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "value_float": float(self.value),
            "strategy": self.strategy.to_dict(),
            "method": self.method,
            "meta": dict(self.meta),
        }


def _check_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")


def _win_rows(strategy: DetStrategy) -> Iterator[bytes]:
    """Row x of the win set, x in index order: the bytes over y of
    [s1(x) + s2(y) = x*y], the field's product row x compared with its sum
    row of s1(x) over s2, with no Q^2 table."""
    spec = strategy.field
    return map(bytes, map(map, repeat(operator.eq), spec.product_rows(),
                          spec.sum_rows(strategy.s1, strategy.s2)))


def win_probability(strategy: DetStrategy, dist: GameDist) -> Fraction:
    """Exact winning probability of a deterministic strategy: with weights
    A on input 0 and B elsewhere (GameDist.weights), A^2*W_00 + A*B*(r_0 +
    c_0 - 2*W_00) + B^2*(|W| - r_0 - c_0 + W_00) from its _win_counts."""
    _check_same_field(strategy.field, dist.field)
    (a, b, *_), den = dist.weights()
    size, r0, c0, corner = strategy._win_counts
    return Fraction(a * a * corner + a * b * (r0 + c0 - 2 * corner)
                    + b * b * (size - r0 - c0 + corner), den * den)


def _game_tables(spec: FieldSpec) -> tuple[list[tuple[int, ...]],
                                           list[tuple[int, ...]]]:
    """Product and difference tables, prod[y][x] = x*y and minus[o][c] =
    c - o, built once per solve so the solvers below read rows instead of
    calling field methods: prod is the field's product_rows, and for o != 0
    the row of c - o is k*(1 + c*k^-1), k = -o, the row of k composed with
    the successor row c -> 1 + c and the row of k^-1 (two C-level gathers:
    0.54 s at Q = 4096, against 0.70 s for sum_rows).  The rows are tuples
    over one shared set of int objects: 2 x 134 MB at Q = 4096."""
    prod = list(spec.product_rows())
    succ, = spec.sum_rows((1,), range(spec.q))
    return prod, [prod[1]] + [itemgetter(*itemgetter(*prod[spec.inv(k)])(succ))(prod[k])
                              for k in map(spec.neg, range(1, spec.q))]


def _greedy_best(tables, other, w) -> tuple[tuple[int, ...], int]:
    """Optimal table for one player against the other's fixed table.

    Serves both players: the game is symmetric, as a + b = x*y with a
    commutative product, so player 1 against s2 is player 2 against s1.  For
    each own input y, the other player's input x makes b = x*y - other[x]
    win, so w[x] goes into a Q-bucket score at that b; the answer is the
    first maximum, i.e. ties go to the smallest index.

    The weights are A = w[0] on input 0 and B = w[x] on every other input
    (GameDist.weights), and input 0 puts A at bucket z = -other[0] for
    every y.  So y's bucket b scores exactly A*[b = z] + B*count_y(b), where
    count_y(b) counts the inputs x != 0 with x*y - other[x] = b.  The
    bucket row y -> x*y - other[x] of each x != 0 is gathered from the
    _game_tables of the field, the rows are transposed by zip, a block of
    columns at a time (_bucket_columns), and each column is counted in one
    loop.  Of the first most counted bucket and z, the higher score wins,
    and on a tie the smaller index.

    Returns the table and the total integer score (weights squared scale).
    """
    prod, minus = tables
    q = len(prod)
    z = minus[other[0]][0]
    a_weight, b_weight = w[0], w[1]
    table = []
    total = 0
    for wy, col in zip(w, _bucket_columns(tables, other)):
        counts = [0] * q
        for b in col:
            counts[b] += 1
        top = max(counts)
        first = counts.index(top)
        score_z, score_top = a_weight + b_weight * counts[z], b_weight * top
        if score_z > score_top or (score_z == score_top and z < first):
            table.append(z)
            total += wy * score_z
        else:
            table.append(first)
            total += wy * score_top
    return tuple(table), total


def _bucket_columns(tables, other) -> Iterator[tuple[int, ...]]:
    """Column y of _greedy_best's bucket rows x -> x*y - other[x] over the
    inputs x != 0, for y in index order.

    At Q <= _GATHER_COLUMNS every row is gathered from the _game_tables
    whole and the rows are transposed by one zip.  Beyond, the rows are
    gathered a block of at most _GATHER_COLUMNS columns at a time and
    transposed by zip, and chain drops each block's zip before it gathers
    the next, so one block of Q - 1 rows is held at once (16 at
    Q = 4096).  The blocks split the columns evenly, so none is a single
    column (for which itemgetter would give a scalar) while
    _GATHER_COLUMNS >= 3.
    """
    prod, minus = tables
    q = len(prod)
    if q <= _GATHER_COLUMNS:
        return zip(*[itemgetter(*row)(minus[o])
                     for row, o in zip(prod[1:], other[1:])])
    blocks = -(-q // _GATHER_COLUMNS)
    edges = [q * i // blocks for i in range(blocks + 1)]
    return chain.from_iterable(
        zip(*[itemgetter(*row[lo:hi])(minus[o])
              for row, o in zip(prod[1:], other[1:])])
        for lo, hi in zip(edges, edges[1:]))


def brute_force_value(dist: GameDist) -> GameValueResult:
    """Exact optimum over deterministic strategy pairs.

    Every s1 table with s1(0) = 0 is scored against its greedy best-response
    s2, which attains the per-s1 optimum, so the overall maximum is exact.
    Deterministic strategies suffice: randomized ones are convex mixtures.

    Fixing s1(0) = 0 loses nothing and returns the same pair as scoring all
    Q^Q tables in product order.  Subtracting a constant c from s1 moves
    each of y's score buckets from b to b + c, a permutation, so the
    greedy score is unchanged for any weights, biased ones included.  Every
    maximiser with s1(0) = c thus has an equal-scoring twin s1 - c with
    s1(0) = 0.  In product order the whole s1(0) = 0 block comes first, so
    the first maximum, and its greedy s2, lie in it.  Q^(Q-1) tables are
    scored (meta tables_scored).

    A uniform game with Q > 2 also fixes s1(1) = 0, one level down:
    (s1 - t*x, s2(y + t)) wins on (x, y) exactly when (s1, s2) wins on
    (x, y + t), and a uniform y does not see the shift, so the maximiser
    with s1(1) = t has a twin with s1(1) = 0 and s1(0) still 0, and that
    block comes first.  A biased y does see it, and at Q = 2 input 1 is the
    last input, so both keep the walk over s1(1).  The walk then visits
    Q^(Q-2) tables (meta tables_walked) instead of Q^(Q-1).

    The tables are walked depth-first over the free inputs, in product
    order, keeping the greedy buckets of every own input y as running
    scores: hist[y][b] sums w[x] over the inputs x assigned so far with
    x*y - s1(x) = b.  Setting s1(x) = a adds w[x] at bucket x*y - a for each
    y, and the walk takes it off again on the way back.  At the last input
    each y's top bucket t_y is read once, and answer a scores
    sum_y w[y] * max(t_y, hist[y][(Q-1)*y - a] + w[Q-1]), the integer
    _greedy_best returns for that table, so all Q answers take Q^2 steps
    and the whole walk ~Q^(Q-1) or ~Q^Q.  The first strict maximum is kept,
    and one _greedy_best call on it gives s2, so ties still go to the
    smallest index.
    """
    spec = dist.field
    q = spec.q
    if dist.is_uniform:
        cap, inputs = BRUTE_FORCE_MAX_Q, "uniform"
    else:
        cap, inputs = BRUTE_FORCE_MAX_Q_BIASED, "biased"
    if q > cap:
        raise CapabilityError(
            f"brute force is capped at Q <= {cap} for {inputs} inputs"
            f" (got Q={q}); use best_response_search")
    first_free = 2 if dist.is_uniform and q > 2 else 1
    w, den = dist.weights()
    tables = _game_tables(spec)
    prod, minus = tables
    # cells[x][a][y] = x*y - a: y's bucket that w[x] joins when s1(x) = a
    cells = [[itemgetter(*prod[x])(row) for row in minus] for x in range(q)]
    last, w_last = cells[q - 1], w[q - 1]
    # s1(0) = 0 puts w[0] at bucket 0*y - 0 = 0 for every y
    hist = [[w[0]] + [0] * (q - 1) for _ in range(q)]
    s1 = [0] * q
    if first_free == 2:
        # s1(1) = 0 puts w[1] at bucket 1*y - 0 = y
        for y, h in enumerate(hist):
            h[y] += w[1]
    best_score = -1
    best_s1 = None

    def score_last() -> None:
        nonlocal best_score, best_s1
        tops = [max(h) for h in hist]
        for a, col in enumerate(last):
            score = 0
            for h, top, b, wy in zip(hist, tops, col, w):
                v = h[b] + w_last
                score += wy * (v if v > top else top)
            if score > best_score:
                best_score = score
                best_s1 = (*s1[:-1], a)

    def walk(x: int) -> None:
        if x == q - 1:
            score_last()
            return
        wx = w[x]
        for a, col in enumerate(cells[x]):
            s1[x] = a
            for h, b in zip(hist, col):
                h[b] += wx
            walk(x + 1)
            for h, b in zip(hist, col):
                h[b] -= wx

    walk(first_free)
    s2, _ = _greedy_best(tables, best_s1, w)
    strategy = DetStrategy(spec, best_s1, s2)
    return GameValueResult(Fraction(best_score, den * den), strategy,
                           "brute_force",
                           {"q": q, "tables_scored": q ** (q - 1),
                            "tables_walked": q ** (q - first_free)})


def best_response_search(dist: GameDist, restarts: int = 8,
                         max_iters: int = 200, seed: int = 0) -> GameValueResult:
    """Local search by alternating exact best responses from random starts.

    The returned value is an exactly evaluated feasible strategy, hence a
    certified lower bound on the game value.  The constant-shift degeneracy
    (adding c to s1, subtracting it from s2) is removed by renormalizing
    s2(0) = 0 after every update.  Capped at Q <= SEARCH_MAX_Q, the largest
    field whose _game_tables are built.

    A restart stops at its first best response that equals the same
    player's two responses earlier (the start s1 counts, the start s2 does
    not): a repeated s2 means s1 is already its best response, and a
    repeated s1 means the next iteration would give the same (s1, s2).
    meta counts the best responses computed, and converged is false when
    some restart ran max_iters iterations without stopping.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    spec = dist.field
    q = spec.q
    if q > SEARCH_MAX_Q:
        raise CapabilityError(
            f"best-response search is capped at Q <= {SEARCH_MAX_Q}"
            f" (got Q={q})")
    w, den = dist.weights()
    tables = _game_tables(spec)
    minus = tables[1]
    # every restart's (s1, s2): tries below Q of one stream, cut into tables
    starts = zip(*[iter(_ByteStream(random.Random(
        f"{seed}:best-response-search")).tries(q, 2 * q * restarts))] * q)
    best_score = -1
    best_pair = None
    all_converged = True
    responses = 0
    for s1, s2 in zip(starts, starts):
        for i in range(max_iters):
            new_s2, _sc = _greedy_best(tables, s1, w)
            # s2 - s2[0] pairs with s1 + s2[0], but s1 is recomputed from s2
            new_s2 = itemgetter(*new_s2)(minus[new_s2[0]])
            responses += 1
            if i and new_s2 == s2:
                break  # s1 = BR(s2) already, and score is its score
            s2 = new_s2
            new_s1, score = _greedy_best(tables, s2, w)
            responses += 1
            if new_s1 == s1:
                break  # the next iteration would give (s1, s2) again
            s1 = new_s1
        else:
            all_converged = False
        if score > best_score:
            best_score = score
            best_pair = (s1, s2)
    strategy = DetStrategy(spec, *best_pair)
    return GameValueResult(Fraction(best_score, den * den), strategy,
                           "best_response_search",
                           {"restarts": restarts, "max_iters": max_iters,
                            "seed": seed, "converged": all_converged,
                            "best_responses": responses})


def _idx(spec: FieldSpec, v) -> int:
    """v as an element index of spec: an integer in [0, Q)."""
    i = operator.index(v)
    if not 0 <= i < spec.q:
        raise ValueError(f"shift {v!r} is not an element index of {spec}")
    return i


def shift_strategy(strategy: DetStrategy, u, v) -> DetStrategy:
    """Translate a strategy's winning set by (-u, -v).

    The new tables are s1'(x) = s1(x+u) - x*v and
    s2'(y) = s2(y+v) - y*u - u*v; the shifted pair wins on (x, y) exactly
    when the original wins on (x+u, y+v).  u and v are element indices in
    [0, Q); anything else raises TypeError or ValueError.
    """
    spec = strategy.field
    u, v = _idx(spec, u), _idx(spec, v)
    add, sub, mul = spec.add, spec.sub, spec.mul
    uv = mul(u, v)
    s1 = tuple(sub(strategy.s1[add(x, u)], mul(x, v)) for x in range(spec.q))
    s2 = tuple(sub(sub(strategy.s2[add(y, v)], mul(y, u)), uv)
               for y in range(spec.q))
    return DetStrategy(spec, s1, s2)


class BestShift(NamedTuple):
    u: int
    v: int
    strategy: DetStrategy
    value: Fraction


def best_shift(strategy: DetStrategy, dist: GameDist) -> BestShift:
    """Best translate of a strategy under a (typically biased) distribution.

    The (u, v) translate wins on (x, y) exactly when the input wins on
    (x+u, y+v) (see shift_strategy), so it is scored from the input's win
    set W = {(a, b) : s1[a] + s2[b] = a*b} alone.  With integer weights
    w[0] = A and w[x] = B for x != 0, its score is
    B^2*|W| + B*(A-B)*(r_u + c_v) + (A-B)^2*[(u, v) in W], where r_u and c_v
    count W's elements in row u and column v of DetStrategy.wins.  Column
    v's key is B*(A-B)*c_v*Q + Q - 1 - v, and row u's best v has the max key
    or, with the corner term added, the max key among its wins, picked out
    by compress: ties go to the first maximum in row-major (u, v) order.
    Only the winner is shifted.  The average of the shifted values over
    (u, v) is the uniform value of the input, so the maximum is at least it.
    """
    _check_same_field(strategy.field, dist.field)
    q = strategy.field.q
    wins = strategy.wins
    w, den = dist.weights()
    zero, other = w[0], w[1]
    base = other * other * wins.count(1)
    cross, lift = other * (zero - other), (zero - other) ** 2 * q
    keys = [cross * wins[v::q].count(1) * q + q - 1 - v for v in range(q)]
    top = max(keys)
    best_score, best_u, best_v = -1, 0, 0
    for u in range(q):
        row_u = wins[u * q:u * q + q]
        key = max(top, max(compress(keys, row_u), default=top - lift) + lift)
        score = base + cross * row_u.count(1) + key // q
        if score > best_score:
            best_score, best_u, best_v = score, u, q - 1 - key % q
    return BestShift(best_u, best_v, shift_strategy(strategy, best_u, best_v),
                     Fraction(best_score, den * den))
