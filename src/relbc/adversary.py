"""Cheating strategies under explicit signaling constraints.

A cheating committer is split across two locations that alternate rounds.
What each round's function may read is fixed by a causal model: the current
challenge, every challenge old enough to have propagated across (rho rounds),
and every challenge received at the same location (same round parity).  The
committed bit is modeled as an extra challenge delivered at the decision
round k0 and propagating the same way.  Round functions get the bit and the
whole challenge tuple; the tower checks its rounds' fixed reads against the
model once, when it builds them (_check_reads).

A transcript is evaluated along one chain, eta_0 = d and
eta_k = x_k*eta_{k-1} - ytilde_k (x = 1 for the standard variant's final
round): it is accepted exactly when eta_n = 0, and each round also gets the
chain so far.  eta_j depends only on the bit and x_1..x_j, so a compliant
round reads eta_j only for prefixes whose challenges it may see.

The recursive attack spends rho+1 rounds per step: it stays silent, reads
the corrective factor eta of the prefix off the chain, then plays a
two-player game on the windowed challenge products; a win, a zero final
challenge, or eta = 0 each make the step's condition collapse, which drives
the acceptance probability towards 1 exponentially in the number of steps.
Each game round is a _GameRound of the step's prefix p: it answers
eta_p * s1[A] (the first) or eta_p * s2[B] * x_kb (the second), where A
and B are the products of the step's two windows of challenges and kb is
the step's last round.  So the step takes eta_p to eta_p*f with
f = x_kb * (prod(step's first rho challenges) - s1[A] - s2[B]), and as the
two windows partition those challenges, their product is A*B: the step
collapses (f = 0) exactly when x_kb = 0 or s1[A] + s2[B] = A*B, the
plugged strategy's CHSH_Q win on (A, B).  A tower transcript therefore
ends at eta_n = d * prod(silent challenges) * prod(step factors), the
silent challenges being those of the k0 quiet prefix and of the padding
rounds, and its verdict is the game's own win test, step by step, up to
the first collapsing step.  The tower builders (build_attack, which
cuts every tower with _attack, and zeros_strategy) hand their strategy
that step plan; no other strategy carries one.

Strategies are built in sign-flipped response space (see
protocol.tilde_transform) and converted back at the boundary.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import FieldMismatchError
from .field import FieldSpec
from .games import DetStrategy
from .protocol import (ProtocolParams, Variant, _ByteStream, tilde,
                       tilde_transform)

# Largest input space 2*Q^n whose verdicts a strategy keeps as a table:
# up to 256 entries one byte try indexes the table (a translate a block);
# beyond, rejected_rows on drawn columns beats looking tries up one by one.
MC_TABLE_CAP = 256
# Most rows in one chunk of _product_columns and _drawn_columns.
_CHUNK_ROWS = 1 << 16
# Byte translate tables: x -> [x != 0], and a 0/1 win byte -> its loss.
_NONZERO = bytes([0]) + bytes([1]) * 255
_LOST = bytes([1, 0]) + bytes(254)


@dataclass(frozen=True)
class CausalModel:
    """Propagation time in rounds (even, >= 2) and decision round for the bit."""

    rho: int = 2
    k0: int = 0

    def __post_init__(self):
        if self.rho < 2 or self.rho % 2 != 0:
            raise ValueError(f"propagation time must be an even integer >= 2,"
                             f" got {self.rho}")
        if self.k0 < 0:
            raise ValueError(f"decision time must be >= 0, got {self.k0}")

    def challenge_visible(self, k: int, j: int) -> bool:
        """May the round-k function read challenge j?"""
        if j == k:
            return True
        if j > k:
            return False
        return j <= k - self.rho or (k - j) % 2 == 0

    def prefix_visible(self, k: int, p: int) -> bool:
        """May the round-k function read every challenge x_1..x_p?

        The first hidden challenge is x_{k-rho+1} when k >= rho, as it
        sits an odd distance from k; below that, x_1 when k is even and
        x_2 when k is odd.  As rho is even, that is p <= max(k - rho, k % 2).
        """
        return p <= max(k - self.rho, k % 2)

    def d_visible(self, k: int) -> bool:
        """The bit is a pseudo-challenge delivered at round k0."""
        return k >= self.k0 + self.rho or (k >= self.k0 and (k - self.k0) % 2 == 0)


RoundFn = Callable[[int, tuple[int, ...], list[int]], int]
# A tower step, positions 0-based, as accepts and rejected_rows read it:
# (last, a, more_a, b, more_b), see CheatStrategy._step_plan.
Step = tuple[int, int, tuple[int, ...], int, tuple[int, ...]]


@dataclass(frozen=True)
class CheatStrategy:
    """Per-round deterministic response functions for one protocol variant.

    Round functions take (d, challenges, etas) and return a sign-flipped
    response ytilde_k.  etas is the chain so far: etas[0] = d and
    etas[j] = x_j*etas[j-1] - ytilde_j for j < k, so an earlier output is
    ytilde_j = x_j*etas[j-1] - etas[j].  A compliant round k reads only the
    bit and the challenges its causal model lets round k see, and eta_j
    only for prefixes j whose challenges it may see; causality_check in
    tests/oracles.py audits this by perturbing the inputs round k may not
    see.  One pass along the chain evaluates a transcript in O(m) field
    ops and gives its verdict (accepts).  A strategy made by one of the
    tower's builders carries the step plan its builder laid out
    (_step_plan); accepts then judges each step by the plugged game's win
    test on the step's windowed challenge products, without calling the
    rounds, and stops at the first collapsing step.  Any other strategy,
    hand-built or copied (dataclasses.replace), has no plan and walks the
    chain.

    Exact enumeration, the verdict table and Monte Carlo judge every
    strategy a batch at a time, by rejected_rows.  A planned strategy over
    a field with Q <= 256 (columnar) is judged there column by column,
    from the same step plan: a step's input pair (A, B) then fits 16 bits
    as A*Q + B (one byte at Q <= 16), so one big-integer multiply-add
    gives the pair column of every row and one lookup in the plugged
    game's win matrix the step's outcome in every row.  Any other
    strategy's batch is judged row by row by accepts, which is also the
    reference the column verdict is tested against.  The strategy is
    frozen, so its verdict table, columnar flag and product table, built
    on first use, cannot go stale.
    """

    field: FieldSpec
    variant: Variant
    m: int
    model: CausalModel
    rounds: tuple[RoundFn, ...]
    lineage: str = "custom"
    game_strategy: Optional[DetStrategy] = None
    # (silent challenge positions, steps) of a tower, set by its builder
    # (_planned), else None.  A step of prefix p spans the 0-based
    # challenges p..last: rho - 1 zero rounds, then the first and the
    # second _GameRound of prefix p, kept as (last, a, more_a, b, more_b):
    # the second round's last challenge, and each round's window as its
    # first position and the rest.  The rounds play game_strategy's s1
    # and s2.  The windows partition p..last - 1, so their products
    # multiply to the product of those challenges.  A silent challenge
    # multiplies eta.
    _step_plan = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if len(self.rounds) != self.params.n_rounds:
            raise ValueError(
                f"{len(self.rounds)} round functions for {self.params.n_rounds}"
                " protocol rounds")

    @cached_property
    def params(self) -> ProtocolParams:
        return ProtocolParams(self.field, self.m, self.variant)

    @property
    def n_challenges(self) -> int:
        return self.params.n_challenges

    def _rejections(self) -> Iterator[bytes]:
        """rejected_rows on every input (d, challenges), d-major in
        product order: one 0/1 byte per input, a _product_columns chunk
        at a time."""
        for bit in (b"\0", b"\1"):
            for xs in _product_columns(self.field.q, self.n_challenges):
                rows = len(xs[0])
                yield self.rejected_rows(bit * rows, xs).to_bytes(rows, "big")

    @cached_property
    def verdict_table(self) -> Optional[bytes]:
        """The verdict of every input (d, challenges), d-major in product
        order, as one 0/1 byte each (1 = accepted): the enumeration that
        exact_cheat_probability counts, built once per strategy, or None
        when the input space exceeds MC_TABLE_CAP, the most entries one
        byte try can index."""
        if 2 * self.field.q ** self.n_challenges > MC_TABLE_CAP:
            return None
        return b"".join(chunk.translate(_LOST) for chunk in self._rejections())

    def _chain(self, d: int, xs: tuple[int, ...], upto: int) -> list[int]:
        """eta_0..eta_upto of the transcript the rounds play on (d, xs)."""
        mul, sub = self.field.mul, self.field.sub
        etas = [d]
        push = etas.append
        eta = d
        for fn, x in zip(self.rounds[:upto], xs):
            eta = sub(mul(x, eta), fn(d, xs, etas))
            push(eta)
        if len(etas) <= upto:  # the standard variant's final round: x = 1
            push(sub(eta, self.rounds[upto - 1](d, xs, etas)))
        return etas

    @cached_property
    def columnar(self) -> bool:
        """Whether rejected_rows judges this strategy column by column: a
        planned one (_step_plan) over a field with Q <= 256.  Its builder
        plugged game_strategy's tables into every step, so that one win
        matrix serves every step.  A strategy with no step (zeros, padding
        only) is columnar."""
        return self.field.q <= 256 and self._step_plan is not None

    @cached_property
    def _product_table(self) -> bytes:
        """The table that maps x*Q + y to x*y, through which rejected_rows
        folds a window of several challenges (rho >= 4): the field's
        product_rows joined, Q^2 bytes, padded to the 256 of a translate
        table at Q <= 16."""
        return b"".join(map(bytes, self.field.product_rows())).ljust(256, b"\0")

    def rejected_rows(self, d: bytes, xs: Sequence) -> int:
        """The rows of a batch that accepts rejects.  Row r is (d[r],
        xs[0][r], ..., xs[n-1][r]): one byte column for the bit and one
        column per challenge, all of one length N; the challenge columns
        are bytes at Q <= 256 and arrays of ints beyond (_product_columns,
        _drawn_columns).

        Returns an int whose N bytes, big-endian, are 1 at the rejected
        rows and 0 elsewhere, so bit_count() counts them.  A strategy that
        is not columnar plays each row through accepts.  A columnar one is
        judged column by column, and at once when d is all zero: a row is
        rejected when d, every silent challenge and every step's last
        challenge are nonzero and every step loses CHSH_Q on its pair
        (A, B), accepts' test on the same _step_plan.  The pair column is
        A*Q + B, from one big-integer multiply-add over whole columns, and
        the step's outcome in every row is looked up at it in
        game_strategy.wins (its gathered win rows, joined).  A window of
        several challenges folds into its product column the same way,
        through _product_table.

        The lane width depends on Q.  At Q <= 16 the pair fits one byte,
        as A*Q + B < Q^2 <= 256, so the ints are the columns themselves,
        big-endian, and the lookup is one translate through the lost table
        (1 where wins is 0).  Beyond, each column is spread into the low
        byte of native 16-bit lanes, which hold A*Q + B < 2^16 without a
        carry, and the lookup is one C-level itemgetter gather over the
        lanes; the rows it finds won are cleared from alive, whose bytes
        are 0 or 1, by and-ing the complement, so wins is read in place.
        """
        if not self.columnar:
            return int.from_bytes(bytes(map(self.accepts, d, zip(*xs)))
                                  .translate(_LOST), "big")
        alive = int.from_bytes(d.translate(_NONZERO), "big")
        if not alive:
            return 0
        silent, steps = self._step_plan
        q, n = self.field.q, len(d)
        if q <= 16:
            def pairs(a: bytes, b: bytes) -> bytes:
                return (int.from_bytes(a, "big") * q
                        + int.from_bytes(b, "big")).to_bytes(n, "big")

            look = bytes.translate
        else:
            order, low = sys.byteorder, slice(sys.byteorder == "big", None, 2)
            lanes = bytearray(2 * n)

            def spread(column: bytes) -> int:
                lanes[low] = column
                return int.from_bytes(lanes, order)

            def pairs(a: bytes, b: bytes) -> memoryview:
                return memoryview((spread(a) * q + spread(b)).to_bytes(
                    2 * n, order)).cast("H")

            def look(index: memoryview, table: bytes) -> bytes:
                if n > 1:  # itemgetter needs an index, and one gives a scalar
                    return bytes(itemgetter(*index.tolist())(table))
                return bytes(map(table.__getitem__, index))

        def window(first: int, more: tuple[int, ...]) -> bytes:
            column = xs[first]
            for j in more:
                column = look(pairs(column, xs[j]), self._product_table)
            return column

        for j in silent:
            alive &= int.from_bytes(xs[j].translate(_NONZERO), "big")
        if steps:  # a strategy with no step may have no game_strategy
            wins = self.game_strategy.wins
            lost = wins.translate(_LOST).ljust(256, b"\0") if q <= 16 else None
        for last, a, more_a, b, more_b in steps:
            alive &= int.from_bytes(xs[last].translate(_NONZERO), "big")
            index = pairs(window(a, more_a), window(b, more_b))
            if lost is None:
                alive &= ~int.from_bytes(look(index, wins), "big")
            else:
                alive &= int.from_bytes(look(index, lost), "big")
        return alive

    def accepts(self, d: int, xs: tuple[int, ...]) -> bool:
        """Verdict on (d, xs): the chain ends at eta_n = 0.  This is
        verify_values' test, whose chained value is alpha_k = (-1)^k*eta_k.

        For a tower (_step_plan), eta_n = d * prod(silent challenges) *
        prod(step factors), where a step's factor is
        x_last * (A*B - s1[A] - s2[B]), A and B being its window products
        and s1, s2 game_strategy's tables.
        This holds because a _GameRound's output is linear in its step's
        prefix eta and the builder's windows partition the step's other
        challenges.
        So the verdict is true at d = 0, a zero silent challenge or the
        first step that collapses: x_last = 0, or the plugged strategy wins
        CHSH_Q on (A, B), the test win_probability counts.  No round is
        called and the steps after the first collapse are not looked at.
        """
        plan = self._step_plan
        if plan is None:
            return self._chain(d, xs, len(self.rounds))[-1] == 0
        silent, steps = plan
        if not d:
            return True
        for j in silent:
            if not xs[j]:
                return True
        add, mul = self.field.add, self.field.mul
        if steps:  # a strategy with no step may have no game_strategy
            s1, s2 = self.game_strategy.s1, self.game_strategy.s2
        for last, a, more_a, b, more_b in steps:
            if not xs[last]:
                return True
            # a and b go from window positions to window products; the
            # `if` spares each one-challenge window (every rho = 2 tower)
            # an empty loop
            a = xs[a]
            if more_a:
                for j in more_a:
                    a = mul(a, xs[j])
            b = xs[b]
            if more_b:
                for j in more_b:
                    b = mul(b, xs[j])
            if add(s1[a], s2[b]) == mul(a, b):
                return True
        return False

    def respond(self, k: int, d: int, xs: tuple[int, ...]) -> int:
        """Actual (un-flipped) response at round k for the given challenges."""
        return tilde(self.field, k,
                     self.rounds[k - 1](d, xs, self._chain(d, xs, k - 1)))

    def responses(self, d: int, xs: tuple[int, ...]) -> tuple[int, ...]:
        """Actual responses of every round.  Each round is called again on
        the chain before it rather than read back from the chain, so
        verify_values on these responses checks accepts independently."""
        etas = self._chain(d, xs, len(self.rounds))
        return tilde_transform(self.field, tuple(
            fn(d, xs, etas[:k]) for k, fn in enumerate(self.rounds, 1)))


def _zero_round(d, xs, etas) -> int:
    return 0


def _product_columns(q: int, n: int) -> Iterator[list]:
    """The n columns of every challenge tuple over range(q), in product
    order, a chunk at a time: each chunk runs through the last L
    challenges, L the most with Q^L <= _CHUNK_ROWS, and holds the leading
    n - L constant.  The columns are bytes at Q <= 256 and arrays of ints
    beyond, as _drawn_columns gives them (whose arrays at Q <= 2^16 hold
    2-byte ints)."""
    tail = 0
    while tail < n and q ** (tail + 1) <= _CHUNK_ROWS:
        tail += 1
    size = q ** tail
    if q <= 256:
        column, cells = bytes, [bytes([v]) for v in range(q)]
    else:
        column = partial(array, "I")
        cells = [array("I", [v]).tobytes() for v in range(q)]
    varying = [column(b"".join(cell * q ** (n - 1 - j) for cell in cells)
                      * q ** (j - n + tail)) for j in range(n - tail, n)]
    for lead in itertools.product(cells, repeat=n - tail):
        yield [*(column(cell * size) for cell in lead), *varying]


def _drawn_columns(rng: random.Random, q: int, n: int, samples: int
                   ) -> Iterator[tuple[bytes, list]]:
    """The bit column and the n challenge columns of `samples` uniform
    (d, challenges) rows read off rng's _ByteStream, a chunk of at most
    _CHUNK_ROWS rows at a time.

    A chunk of R rows reads R tries below 2, the top bits of R bytes, for
    its bits, then R*n tries below q for its challenges, row r's being
    tries r*n .. r*n + n - 1, so that challenge j's column is the strided
    slice tries[j::n].  The columns are bytes at Q <= 256 (byte tries) and
    arrays of ints beyond (2-byte lanes up to Q = 2^16, 4-byte ones past
    it).
    """
    stream = _ByteStream(rng)
    while samples:
        rows = min(samples, _CHUNK_ROWS)
        d = stream.tries(2, rows)
        tries = stream.tries(q, rows * n)
        yield d, [tries[j::n] for j in range(n)]
        samples -= rows


def _check_reads(model: CausalModel, k: int, n: int, reads: Iterable[int],
                 prefix: int = 0) -> None:
    """Raise LookupError unless round k may read the bit, the challenges
    x_1..x_prefix and each challenge index in `reads` of a transcript with
    n challenges."""
    if not model.d_visible(k):
        raise LookupError(f"bit not yet known at round {k}")
    if not (prefix <= n and model.prefix_visible(k, prefix)):
        raise LookupError(f"challenges x_1..x_{prefix} are not visible at"
                          f" round {k}")
    for j in reads:
        if not (1 <= j <= n and model.challenge_visible(k, j)):
            raise LookupError(f"challenge x_{j} is not visible at round {k}")


class _GameRound:
    """A tower game round of prefix p: ytilde = eta_p * table[A], times
    x_last when last is given, A being the product of the challenges at
    the 0-based positions in window, which is not empty.

    A step's first game round has no last challenge, and its second's is
    the step's last.  The output is linear in eta_p by construction, which
    is what CheatStrategy.accepts relies on when it judges the step by the
    game's win test instead of calling the round.
    """

    __slots__ = ("prefix", "table", "window", "last", "_mul")

    def __init__(self, spec: FieldSpec, prefix: int,
                 table: tuple[int, ...], window: Iterable[int],
                 last: Optional[int] = None):
        self.prefix = prefix
        self.table = table
        self.window = tuple(window)
        if not self.window:
            raise ValueError("a game round's window must not be empty")
        self.last = last
        self._mul = spec.mul

    def __call__(self, d, xs, etas) -> int:
        mul, window = self._mul, self.window
        answer = xs[window[0]]
        for j in window[1:]:
            answer = mul(answer, xs[j])
        answer = self.table[answer]
        if self.last is not None:
            answer = mul(answer, xs[self.last])
        return mul(etas[self.prefix], answer)


def _tower_rounds(spec: FieldSpec, steps: int, model: CausalModel,
                  game_strategy: DetStrategy
                  ) -> tuple[tuple[RoundFn, ...], tuple[Step, ...]]:
    """Round functions of the tower of `steps` steps and its steps: per
    step, rho - 1 zero rounds, then the first and the second _GameRound of
    the step's prefix p.  Of the step's first rho challenges, the first
    game round (ka = p + rho) reads those of its parity, x_{p+2}, x_{p+4},
    ..., x_ka, and answers s1 at their product; the second (kb = ka + 1)
    reads x_{p+1}, x_{p+3}, ..., x_{ka-1}, and answers s2 at their product
    times x_kb.  The two windows partition the step's first rho
    challenges.  The bit and challenges each round reads are fixed by its
    position, so they are checked against the model once, here, rather
    than on every call.  Nothing in a step depends on the steps after it,
    so the tower of s <= steps steps is the first k0 + s*(rho+1) rounds
    and the first s steps of this one (_attack)."""
    if game_strategy.field != spec:
        raise FieldMismatchError("game strategy is over a different field")
    rho, k0 = model.rho, model.k0
    n = k0 + steps * (rho + 1)
    s1, s2 = game_strategy.s1, game_strategy.s2
    rounds: list[RoundFn] = [_zero_round] * k0
    plan: list[Step] = []
    for s in range(steps):
        p = k0 + s * (rho + 1)
        ka, kb = p + rho, p + rho + 1
        win_a, win_b = range(p + 1, ka, 2), range(p, ka - 1, 2)  # 0-based
        _check_reads(model, ka, n, [j + 1 for j in win_a], prefix=p)
        _check_reads(model, kb, n, [*(j + 1 for j in win_b), kb], prefix=p)
        rounds.extend([_zero_round] * (rho - 1))
        rounds.append(_GameRound(spec, p, s1, win_a))
        rounds.append(_GameRound(spec, p, s2, win_b, last=kb - 1))
        plan.append((kb - 1, p + 1, tuple(win_a[1:]), p, tuple(win_b[1:])))
    return tuple(rounds), tuple(plan)


def _attack(spec: FieldSpec, variant: Variant, m: int, model: CausalModel,
            game_strategy: DetStrategy, rounds: tuple[RoundFn, ...],
            plan: tuple[Step, ...]) -> CheatStrategy:
    """build_attack's strategy at length m, in one CheatStrategy, cut from
    the rounds and plan (_tower_rounds) of a tower of at least as many
    steps: the s steps that fit its symmetrized length n (m, or m - 1 when
    standard), then zero rounds up to m, with the k0 prefix and the
    padding silent; with s = 0, zeros, every challenge silent.  Its
    lineage is "general", wrapped in pad+e(...) for e padding rounds and
    in desymmetrize(...) when standard; below three rounds a standard
    protocol is zeros_strategy's."""
    standard = variant is Variant.STANDARD
    if standard and m < 3:
        return zeros_strategy(spec, variant, m, model)
    n = m - standard
    s = max(0, (n - model.k0) // (model.rho + 1))
    if s:
        tower = model.k0 + s * (model.rho + 1)
        silent = (*range(model.k0), *range(tower, n))
        lineage = "general" if n == tower else f"pad+{n - tower}(general)"
    else:
        tower, silent, lineage, game_strategy = 0, range(n), "zeros", None
    if standard:
        lineage = f"desymmetrize({lineage})"
    return _planned(
        CheatStrategy(spec, variant, m, model,
                      rounds[:tower] + (_zero_round,) * (m - tower),
                      lineage, game_strategy),
        silent, plan[:s])


def _planned(strategy: CheatStrategy, silent: Iterable[int],
             steps: Iterable[Step]) -> CheatStrategy:
    """strategy, given the step plan its builder laid out: the 0-based
    positions of its silent challenges and its tower steps (see
    CheatStrategy._step_plan)."""
    object.__setattr__(strategy, "_step_plan", (tuple(silent), tuple(steps)))
    return strategy


def attack_base(spec: FieldSpec, m: int, game_strategy: DetStrategy
                ) -> CheatStrategy:
    """Recursive attack on the symmetrized protocol, three rounds per step:
    build_attack's tower at rho = 2, k0 = 0.

    Requires m to be a positive multiple of 3; use build_attack for other
    lengths.  The plugged game strategy is evaluated on uniform inputs.
    """
    if m < 3 or m % 3 != 0:
        raise ValueError(
            f"the three-round tower needs m to be a positive multiple of 3"
            f" (got {m}); use build_attack to pad other lengths")
    return build_attack(spec, Variant.SYMMETRIZED, m, CausalModel(),
                        game_strategy)


def tower_gamma(spec: FieldSpec, model: CausalModel) -> Fraction:
    """Probability that one side's windowed challenge product is zero."""
    return 1 - (1 - Fraction(1, spec.q)) ** (model.rho // 2)


def zeros_strategy(spec: FieldSpec, variant: Variant, m: int,
                   model: Optional[CausalModel] = None) -> CheatStrategy:
    """Always answer zero; wins whenever d = 0 or any challenge product dies."""
    model = model or CausalModel()
    params = ProtocolParams(spec, m, variant)
    return _planned(
        CheatStrategy(spec, variant, m, model,
                      (_zero_round,) * params.n_rounds, lineage="zeros"),
        range(params.n_challenges), ())


def build_attack(spec: FieldSpec, variant: Variant, m: int,
                 model: CausalModel, game_strategy: DetStrategy
                 ) -> CheatStrategy:
    """Attack for an arbitrary protocol length.

    Builds the largest strict tower that fits and pads the remaining rounds
    with silent rounds (symmetrized) or the silent final round (standard).
    The plugged strategy plays on products of rho/2 challenges per side,
    each 0 with probability tower_gamma(spec, model), so it should be
    chosen for that biased input distribution.
    """
    return next(_build_attacks(spec, variant, (m,), model, game_strategy))


def _build_attacks(spec: FieldSpec, variant: Variant, lengths: Iterable[int],
                  model: CausalModel, game_strategy: DetStrategy
                  ) -> Iterator[CheatStrategy]:
    """build_attack at each of `lengths`, in their order, each cut in one
    CheatStrategy (_attack) from the longest tower any length needs, which
    is laid out once (_tower_rounds): a sweep does O(max m) layout work
    rather than O(m) per length."""
    variant = Variant(variant)
    lengths = list(lengths)
    longest = max(lengths, default=0) - (variant is Variant.STANDARD)
    layout = _tower_rounds(spec, (longest - model.k0) // (model.rho + 1),
                           model, game_strategy)
    for m in lengths:
        yield _attack(spec, variant, m, model, game_strategy, *layout)
