"""The multi-round bit-commitment protocol and its symmetrized variant.

In the standard m-round protocol the committer answers challenges
x_1..x_{m-1}; round 1 returns y_1 = d*x_1 + a_1, rounds 1 < k < m return
y_k = x_k*a_{k-1} + a_k, and the final message is y_m = a_{m-1}.  The
verifier accepts when y_m equals the chained value alpha_{m-1}, where
alpha_0 = d and alpha_i = y_i - x_i*alpha_{i-1}.  The symmetrized variant
adds a final challenge x_m, answers y_m = x_m*a_{m-1} and accepts when
y_m = x_m*alpha_{m-1}.

m = 1 selects the single-round commit/reveal protocol, represented here by
its two-message transcript (the commitment y = a + d*x followed by the
revealed share), which is the same chain as the two-round standard flow.
"""

from __future__ import annotations

import enum
import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapabilityError
from .field import FieldSpec

HIDING_STATE_CAP = 10 ** 7
# Most 32-bit words drawn by one getrandbits call (128 KiB).
_DRAW_BLOCK_WORDS = 1 << 15
# _TOP_BITS[k][t]: the top k bits of the byte t
_TOP_BITS = [bytes(t >> (8 - k) for t in range(256)) for k in range(9)]


class _ByteStream:
    """relbc's one random stream: the little-endian bytes of rng's
    successive 32-bit outputs, and the tries below a space read off them,
    each the top bits of a lane of 1, 2 or 4 bytes (tries).  Monte Carlo
    draws, honest shares and search starts all read it, each from its own
    seeded rng.

    rng.getrandbits(32*n) returns n successive outputs, least significant
    first, so its little-endian bytes are the bytes of n getrandbits(32)
    calls in turn.  The bytes come in whole-word blocks of at most
    _DRAW_BLOCK_WORDS words, each just large enough for the bytes asked;
    what a request leaves of its block carries into the next request, so
    the block sizes never change the stream.
    """

    __slots__ = ("_rng", "_rest")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._rest = b""

    def take(self, count: int) -> bytes:
        """The next `count` bytes."""
        parts, have = [self._rest], len(self._rest)
        while have < count:
            words = min(_DRAW_BLOCK_WORDS, (count - have + 3) // 4)
            parts.append(self._rng.getrandbits(32 * words).to_bytes(
                4 * words, "little"))
            have += 4 * words
        data = b"".join(parts)
        self._rest = data[count:]
        return data[:count]

    def tries(self, space: int, count: int, code: bytes | None = None
              ) -> bytes | array:
        """The next `count` kept tries below `space`: bytes at space <= 256,
        an array of ints beyond.  At space <= 256 a 256-byte translate
        table `code` may be given: each kept try t then comes out as
        code[t], from the same one translate.

        Every space has one rule.  With k = (space - 1).bit_length(), a try
        reads the next lane of w bytes, w = 1 for k <= 8, 2 for k <= 16 and
        4 beyond, as a little-endian unsigned v, and keeps its top k bits,
        v >> (8w - k), when they are below space.  A power-of-two space
        keeps every try; any other keeps more than half of them.  At
        space <= 256 the tries are one translate of the bytes, which
        deletes the rejected ones; at 2^16 they are the lanes themselves.
        Each round asks for exactly the tries still missing, so no byte
        past the last kept try's lane is read.
        """
        k = (space - 1).bit_length()
        if k <= 8:
            top = _TOP_BITS[k]
            if code is not None:
                top = top.translate(code)
            if space == 1 << k:
                return self.take(count).translate(top)
            rejected = bytes(range(space << (8 - k), 256))
            kept = []
            while count:
                kept.append(self.take(count).translate(top, rejected))
                count -= len(kept[-1])
            return b"".join(kept)
        width, typecode = (2, "H") if k <= 16 else (4, "I")
        if space == 1 << 8 * width:
            return self._lanes(typecode, width * count)
        shift = 8 * width - k
        limit = space << shift
        out = array(typecode)
        while short := count - len(out):
            lanes = self._lanes(typecode,
                                width * min(short, _DRAW_BLOCK_WORDS))
            out.extend([v >> shift for v in lanes if v < limit])
        return out

    def _lanes(self, typecode: str, size: int) -> array:
        """The next `size` bytes as little-endian lanes of `typecode`."""
        lanes = array(typecode, self.take(size))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes


class Variant(str, enum.Enum):
    STANDARD = "standard"
    SYMMETRIZED = "symmetrized"


@dataclass(frozen=True)
class ProtocolParams:
    field: FieldSpec
    m: int
    variant: Variant = Variant.STANDARD

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.variant is Variant.SYMMETRIZED and self.m < 2:
            raise ValueError("the symmetrized variant requires m >= 2")

    @property
    def single_round(self) -> bool:
        return self.m == 1

    @property
    def n_rounds(self) -> int:
        """Number of response messages in a transcript."""
        return 2 if self.single_round else self.m

    @property
    def n_challenges(self) -> int:
        if self.variant is Variant.STANDARD:
            return self.n_rounds - 1
        return self.m


def honest_responses(params: ProtocolParams, d: int, a: Sequence[int],
                     xs: Sequence[int]) -> tuple[int, ...]:
    """Honest committer's response indices for rounds 1..n_rounds, from
    the shares a_i and the challenges xs, in one pass along the chain."""
    spec = params.field
    add, mul = spec.add, spec.mul
    last = params.n_rounds
    final = (a[last - 2] if params.variant is Variant.STANDARD
             else mul(xs[last - 1], a[last - 2]))
    # y_k = x_k*a_{k-1} + a_k for the rounds 1 < k < last
    return (add(mul(d, xs[0]), a[0]),
            *map(add, map(mul, xs[1:last - 1], a), a[1:last - 1]), final)


def verify_values(params: ProtocolParams, d: int,
                  challenges: tuple[int, ...], responses: tuple[int, ...]) -> bool:
    """Acceptance verdict from the chained value, in one pass.

    alpha_0 = d and alpha_i = y_i - x_i*alpha_{i-1}; the standard variant
    accepts when y_m = alpha_{m-1}, the symmetrized one when
    y_m = x_m*alpha_{m-1}.  Expanded, this is a sign-alternating sum over
    the tilde-transformed responses (with x_m = 1 appended for the
    standard variant); the tests compute that sum independently and check
    the two forms against each other.
    """
    last = params.n_rounds
    if len(challenges) != params.n_challenges or len(responses) != last:
        raise ValueError("transcript lengths do not match the protocol parameters")
    spec = params.field
    if d not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    alpha = d
    for i in range(last - 1):
        alpha = spec.sub(responses[i], spec.mul(challenges[i], alpha))
    if params.variant is Variant.STANDARD:
        return responses[last - 1] == alpha
    return responses[last - 1] == spec.mul(challenges[last - 1], alpha)


def tilde(spec: FieldSpec, k: int, y: int) -> int:
    """Response y of round k (1-based), scaled by (-1)^(k+1).

    Self-inverse; the identity in characteristic 2.
    """
    return y if k % 2 else spec.neg(y)


def tilde_transform(spec: FieldSpec, responses: tuple[int, ...]) -> tuple[int, ...]:
    """tilde applied to every response of a transcript."""
    return tuple(tilde(spec, k, y) for k, y in enumerate(responses, 1))


@dataclass(frozen=True)
class Transcript:
    params: ProtocolParams
    d: int
    challenges: tuple[int, ...]
    responses: tuple[int, ...]
    accepted: bool

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "field": self.params.field.describe(),
            "variant": self.params.variant.value,
            "m": self.params.m,
            "d": self.d,
            "challenges": list(self.challenges),
            "responses": list(self.responses),
            "accepted": self.accepted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Transcript":
        params = ProtocolParams(FieldSpec.from_description(data["field"]),
                                data["m"], Variant(data["variant"]))
        return cls(params, data["d"], tuple(data["challenges"]),
                   tuple(data["responses"]), data["accepted"])


def run_honest(params: ProtocolParams, d: int, seed: int = 0) -> Transcript:
    """Play all rounds honestly with seeded randomness; always accepted."""
    if d not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    # the n_rounds shares a_i, then the n_challenges challenges
    last = params.n_rounds
    draws = _ByteStream(random.Random(f"{seed}:honest-run")).tries(
        params.field.q, last + params.n_challenges)
    xs = tuple(draws[last:])
    responses = honest_responses(params, d, draws[:last], xs)
    accepted = verify_values(params, d, xs, responses)
    return Transcript(params, d, xs, responses, accepted)


def hiding_distributions(params: ProtocolParams
                         ) -> list[dict[int, dict[tuple, Fraction]]]:
    """Exact per-bit distributions of the verifier's view through each
    round 1..n_rounds, in order, from one enumeration of the full states.

    The view is (challenges sent, responses received).  For every prefix
    strictly before the final reveal the two per-bit distributions are
    identical (perfect hiding); at the full length they differ.

    A state is every challenge and the n_rounds - 1 shares the responses
    depend on.  Round r's view is the full view truncated to the first
    min(r, n_challenges) challenges and r responses; each of r's states
    extends to equally many full states, so counting the truncated views
    gives r's masses exactly.  The cap applies to the
    2*Q^(n_challenges + n_rounds - 1) states enumerated.
    """
    q = params.field.q
    last = params.n_rounds
    states = q ** (params.n_challenges + last - 1)
    if 2 * states > HIDING_STATE_CAP:
        raise CapabilityError(
            f"hiding enumeration needs {2 * states} states"
            f" (cap {HIDING_STATE_CAP})")
    cuts = [(min(r, params.n_challenges), r) for r in range(1, last + 1)]
    out: list[dict[int, dict[tuple, Fraction]]] = [{} for _ in cuts]
    for d in (0, 1):
        counts: list[dict[tuple, int]] = [{} for _ in cuts]
        for xs in itertools.product(range(q), repeat=params.n_challenges):
            views = [(count, xs[:cut], r)
                     for count, (cut, r) in zip(counts, cuts)]
            for a in itertools.product(range(q), repeat=last - 1):
                ys = honest_responses(params, d, a, xs)
                for count, seen, r in views:
                    key = (seen, ys[:r])
                    count[key] = count.get(key, 0) + 1
        for view, count in zip(out, counts):
            mass = {n: Fraction(n, states) for n in set(count.values())}
            view[d] = {key: mass[n] for key, n in count.items()}
    return out
