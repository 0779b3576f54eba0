"""Test-only oracles that the library itself never calls.

compute_eta is the expanded sign-alternating sum that the tests check the
chained verifier and the tower's carried eta against; it stays outside
relbc so that it remains independent of the code it checks.
causality_check audits any strategy against a causal model by perturbing
the inputs its rounds should not see, independently of the read checks
that the tower makes when it builds its rounds.  derive_step_plan
recovers a tower's step plan from its rounds alone, by their types, marks,
windows and tables, for the tests to check each builder's own plan against.
build_attack_alone builds one length's attack from a tower laid out for
that length alone, for the strategies a sweep cuts from its longest tower
to equal.
accepted_inputs calls accepts once on every input, the per-input verdict
that the batch verdicts are checked against.  symmetrize_up lifts a
standard-variant strategy to the symmetrized protocol for the
symmetrization checks.  WordStream reads relbc's byte stream one
rng.getrandbits(32) call per four bytes, one try at a time, and
reference_table_wins and reference_transcripts draw from it as the
documented stream says, one draw at a time: the bulk draws, honest shares
and search starts are checked against it, and the seeded pins come from
it.  confirm_both_search is best_response_search's earlier loop, which
stopped a restart only when both players repeated, and keeps every
restart's responses; closed_form_fractions and lower_bound_fractions are
the closed form and the tower lower bound as chains of Fraction
operations, for the integer forms in relbc.analysis to equal.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from relbc import (CausalModel, CheatStrategy, FieldSpec, GameDist, Variant,
                   adversary, attack_general, desymmetrize, extend_symmetrized,
                   zeros_strategy)
from relbc.adversary import _GameRound, _zero_round
from relbc.games import _game_tables, _greedy_best
from relbc.protocol import _ByteStream


def compute_eta(spec: FieldSpec, d: int, challenges: tuple[int, ...],
                ytildes: tuple[int, ...]) -> int:
    """Corrective factor of a prefix: d*prod(x_j) - sum_i ytilde_i*prod_{j>i}(x_j).

    Zero exactly when the symmetrized acceptance condition already holds for
    the prefix.
    """
    if len(challenges) != len(ytildes):
        raise ValueError("prefix challenge and response lengths differ")
    total = 0
    suffix = 1
    for x, yt in zip(reversed(challenges), reversed(ytildes)):
        total = spec.add(total, spec.mul(yt, suffix))
        suffix = spec.mul(suffix, x)
    return spec.sub(spec.mul(d, suffix), total)


def symmetrize_up(s: CheatStrategy) -> CheatStrategy:
    """Lift a standard-variant strategy to the symmetrized protocol.

    Rounds 1..m-1 are unchanged; the final response is the old final
    response times the fresh last challenge.  Whenever the original wins a
    point, the lifted strategy wins all its extensions.
    """
    if s.variant is not Variant.STANDARD:
        raise ValueError("symmetrize_up expects a standard-variant strategy")
    m = s.params.n_rounds
    model = s.model
    old_final = s.rounds[m - 1]
    spec = s.field

    def final(d, xs, etas):
        return spec.mul(xs[m - 1], old_final(d, xs[:-1], etas))

    return CheatStrategy(spec, Variant.SYMMETRIZED, m, model,
                         s.rounds[:-1] + (final,),
                         lineage=f"symmetrize_up({s.lineage})",
                         game_strategy=s.game_strategy)


def accepted_inputs(strategy: CheatStrategy) -> list[bool]:
    """accepts on every input (d, challenges), d-major in product order,
    one call per input."""
    return [strategy.accepts(d, xs) for d in (0, 1)
            for xs in itertools.product(range(strategy.field.q),
                                        repeat=strategy.n_challenges)]


def tower_step(fn: _GameRound) -> tuple[int, int]:
    """A game round's mark: (p, 1) for the first game round of the step
    of prefix p, which has no last challenge, and (p, 2) for its second."""
    return fn.prefix, 1 if fn.last is None else 2


def build_attack_alone(spec: FieldSpec, variant: Variant, m: int,
                       model: CausalModel, game_strategy) -> CheatStrategy:
    """build_attack's strategy at length m from attack_general's tower of
    the largest strict length that fits, laid out for it alone and padded
    by extend_symmetrized (symmetrized) or desymmetrize (standard, from
    length m - 1); zeros_strategy below one tower step, and for a
    standard protocol below two rounds."""
    variant = Variant(variant)
    if variant is Variant.STANDARD:
        if m - 1 < 2:
            return zeros_strategy(spec, variant, m, model)
        return desymmetrize(build_attack_alone(
            spec, Variant.SYMMETRIZED, m - 1, model, game_strategy))
    steps = (m - model.k0) // (model.rho + 1)
    if steps < 1:
        return zeros_strategy(spec, variant, m, model)
    tower_m = model.k0 + steps * (model.rho + 1)
    return extend_symmetrized(
        attack_general(spec, tower_m, model, game_strategy), m - tower_m)


def derive_step_plan(strategy: CheatStrategy):
    """(silent challenge positions, steps) when every round is
    _zero_round or a _GameRound in tower position, else None: the plan
    CheatStrategy._step_plan holds, found by walking the rounds.

    A step of prefix p spans the 0-based challenges p..hi - 1,
    hi = p + rho + 1: rho - 1 zero rounds, then the first and the second
    _GameRound of prefix p.  It is kept as (last, a, more_a, b, more_b):
    the second round's last challenge, and each round's window as its
    first position and the rest.  It is kept only when the first round
    has no last challenge, the second's is hi - 1, the two windows
    partition p..hi - 2, so that the window products multiply to the
    product of those challenges, and the rounds play game_strategy's s1
    and s2, the tables the plan's verdict reads.
    Every other round is a zero round, and below n_challenges its
    challenge is silent: it multiplies eta.  Game rounds are known by
    their exact type, so a wrapped or subclassed round, whose output
    need not be linear in eta_p, finds no plan.
    """
    rounds, n, rho = strategy.rounds, strategy.n_challenges, strategy.model.rho
    silent, steps = [], []
    k = 0
    while k < len(rounds):
        kb = k + rho + 1
        first, second = rounds[kb - 2:kb] if kb <= n else (None, None)
        if (type(first) is _GameRound and tower_step(first) == (k, 1)
                and type(second) is _GameRound
                and tower_step(second) == (k, 2)
                and all(fn is _zero_round for fn in rounds[k:kb - 2])):
            game = strategy.game_strategy
            if (first.last is not None or second.last != kb - 1
                    or sorted(first.window + second.window)
                    != list(range(k, kb - 1))
                    or game is None
                    or (first.table, second.table) != (game.s1, game.s2)):
                return None
            (a, *more_a), (b, *more_b) = first.window, second.window
            steps.append((kb - 1, a, tuple(more_a), b, tuple(more_b)))
            k = kb
        elif rounds[k] is _zero_round:
            if k < n:
                silent.append(k)
            k += 1
        else:
            return None
    return tuple(silent), tuple(steps)


@dataclass
class CausalityReport:
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def causality_check(s: CheatStrategy, model: Optional[CausalModel] = None,
                    trials: int = 100, seed: int = 0) -> CausalityReport:
    """Audit a strategy against a causal model by input perturbation.

    For each round and trial, every input the model hides from the round is
    perturbed one at a time; any change in the round's output is recorded
    as a violation.  Report-only; compliant strategies yield zero
    violations.
    """
    model = model or s.model
    rng = random.Random(f"{seed}:causality")
    q = s.field.q
    n_ch = s.n_challenges
    violations: list[dict] = []
    for k in range(1, len(s.rounds) + 1):
        hidden = [j for j in range(1, n_ch + 1)
                  if not model.challenge_visible(k, j)]
        d_hidden = not model.d_visible(k)
        for t in range(trials):
            d = rng.randrange(2)
            xs = tuple(rng.randrange(q) for _ in range(n_ch))
            base = s.respond(k, d, xs)
            if d_hidden and s.respond(k, 1 - d, xs) != base:
                violations.append({"round": k, "input": "d", "trial": t})
            for j in hidden:
                alt = (xs[j - 1] + rng.randrange(1, q)) % q
                pert = xs[:j - 1] + (alt,) + xs[j:]
                if s.respond(k, d, pert) != base:
                    violations.append({"round": k, "input": f"x{j}", "trial": t})
    return CausalityReport(violations)


class WordStream:
    """The little-endian bytes of rng's successive getrandbits(32) words,
    and the tries below a space read off them, one at a time."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pending: list[int] = []

    def byte(self) -> int:
        if not self.pending:
            self.pending = list(self.rng.getrandbits(32).to_bytes(4, "little"))
        return self.pending.pop(0)

    def below(self, space: int) -> int:
        """The next kept try below space: the top k = (space - 1).bit_length()
        bits of one byte up to space 256, else the top k = space.bit_length()
        bits of four bytes read as a little-endian word."""
        if space <= 256:
            k, width = (space - 1).bit_length(), 8
        else:
            k, width = space.bit_length(), 32
        while True:
            word = int.from_bytes(bytes(self.byte() for _ in range(width // 8)),
                                  "little")
            if word >> (width - k) < space:
                return word >> (width - k)


def reference_table_wins(verdicts, samples: int, rng: random.Random) -> int:
    """Wins among `samples` draws of a verdict table's entries: byte tries
    up to 256 entries, rng.randrange(len(verdicts)) beyond."""
    space = len(verdicts)
    if space <= 256:
        stream = WordStream(rng)
        return sum(verdicts[stream.below(space)] for _ in range(samples))
    return sum(verdicts[rng.randrange(space)] for _ in range(samples))


def reference_transcripts(rng: random.Random, q: int, n_ch: int,
                          samples: int) -> list:
    """`samples` (d, challenges) rows, a chunk of adversary._CHUNK_ROWS
    rows at a time: the chunk's bits, one top bit of a byte each, then its
    challenges, row after row."""
    stream = WordStream(rng)
    out = []
    while samples:
        rows = min(samples, adversary._CHUNK_ROWS)
        bits = [stream.below(2) for _ in range(rows)]
        out += [(d, tuple(stream.below(q) for _ in range(n_ch)))
                for d in bits]
        samples -= rows
    return out


def confirm_both_search(dist: GameDist, restarts: int, max_iters: int,
                        seed: int):
    """(value, s1, s2, paths) of the search loop that stops a restart when
    an iteration leaves both s1 and s2 unchanged.

    Each restart's path is its start s1 followed by every best response it
    computed, in order: s2, s1, s2, ...  The starts and the best responses
    are best_response_search's own.
    """
    spec, q = dist.field, dist.field.q
    w, den = dist.weights()
    tables = _game_tables(spec)
    minus = tables[1]
    starts = zip(*[iter(_ByteStream(random.Random(
        f"{seed}:best-response-search")).tries(q, 2 * q * restarts))] * q)
    best_score, best_pair, paths = -1, None, []
    for s1, s2 in zip(starts, starts):
        path = [s1]
        for _ in range(max_iters):
            prev = (s1, s2)
            s2, _ = _greedy_best(tables, s1, w)
            s2 = itemgetter(*s2)(minus[s2[0]])
            s1, score = _greedy_best(tables, s2, w)
            path += [s2, s1]
            if (s1, s2) == prev:
                break
        paths.append(path)
        if score > best_score:
            best_score, best_pair = score, (s1, s2)
    return Fraction(best_score, den * den), *best_pair, paths


def closed_form_fractions(q: int, variant: Variant, m: int,
                          model: CausalModel,
                          w_gamma: Optional[Fraction]) -> Fraction:
    """analysis._closed_form as a chain of Fraction operations."""
    half = Fraction(1, 2)
    miss = 1 - Fraction(1, q)
    if Variant(variant) is Variant.STANDARD:
        if m - 1 < 2:
            return 1 - half * miss ** (max(m, 2) - 1)
        m -= 1
    steps = (m - model.k0) // (model.rho + 1)
    if steps < 1 or w_gamma is None:
        return 1 - half * miss ** m
    tower_m = model.k0 + steps * (model.rho + 1)
    step_factor = miss * (1 - w_gamma)
    return 1 - (half * miss ** model.k0 * step_factor ** steps
                * miss ** (m - tower_m))


def lower_bound_fractions(m: int, q: int, w, rho: int = 2,
                          k0: int = 0) -> Fraction:
    """analysis.theory_lower_bound's value as a chain of Fraction
    operations, for inputs that theory_lower_bound accepts."""
    exponent = (m - k0 - 1) // (rho + 1)
    factor = (1 - Fraction(1, q)) * (1 - Fraction(w))
    return 1 - Fraction(1, 2) * factor ** exponent
