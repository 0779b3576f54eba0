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
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapabilityError
from .field import FieldSpec

HIDING_STATE_CAP = 10 ** 7


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


@dataclass(frozen=True)
class HonestSharedRandomness:
    """Preparation-phase shares: committer values a_i and verifier challenges."""

    a: tuple[int, ...]
    challenges: tuple[int, ...]

    @classmethod
    def sample(cls, params: ProtocolParams, rng: random.Random
               ) -> "HonestSharedRandomness":
        q = params.field.q
        return cls(tuple(rng.randrange(q) for _ in range(params.n_rounds)),
                   tuple(rng.randrange(q) for _ in range(params.n_challenges)))


def honest_response(params: ProtocolParams, k: int, d: int,
                    randomness: HonestSharedRandomness) -> int:
    """Honest committer's response index at round k (1-based)."""
    last = params.n_rounds
    if not 1 <= k <= last:
        raise ValueError(f"round index {k} out of range 1..{last}")
    spec = params.field
    a = randomness.a
    xs = randomness.challenges
    if k == 1:
        return spec.add(spec.mul(d, xs[0]), a[0])
    if k < last:
        return spec.add(spec.mul(xs[k - 1], a[k - 2]), a[k - 1])
    if params.variant is Variant.STANDARD:
        return a[last - 2]
    return spec.mul(xs[last - 1], a[last - 2])


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
    rng = random.Random(f"{seed}:honest-run")
    randomness = HonestSharedRandomness.sample(params, rng)
    responses = tuple(honest_response(params, k, d, randomness)
                      for k in range(1, params.n_rounds + 1))
    accepted = verify_values(params, d, randomness.challenges, responses)
    return Transcript(params, d, randomness.challenges, responses, accepted)


def hiding_distribution(params: ProtocolParams, upto_round: int
                        ) -> dict[int, dict[tuple, Fraction]]:
    """Exact distribution of the verifier's view through a given round, per bit.

    The view is (challenges sent, responses received).  For every prefix
    strictly before the final reveal the two per-bit distributions are
    identical (perfect hiding); at the full length they differ.
    """
    last = params.n_rounds
    if not 1 <= upto_round <= last:
        raise ValueError(f"upto_round must lie in 1..{last}")
    q = params.field.q
    n_x = min(upto_round, params.n_challenges)
    n_a = min(upto_round, last - 1)
    if 2 * q ** (n_x + n_a) > HIDING_STATE_CAP:
        raise CapabilityError(
            f"hiding enumeration needs {2 * q ** (n_x + n_a)} states"
            f" (cap {HIDING_STATE_CAP})")
    mass = Fraction(1, q ** (n_x + n_a))
    pad_x = params.n_challenges - n_x
    pad_a = last - n_a
    out: dict[int, dict[tuple, Fraction]] = {}
    for d in (0, 1):
        dist: dict[tuple, Fraction] = {}
        for xs in itertools.product(range(q), repeat=n_x):
            full_xs = xs + (0,) * pad_x
            for a in itertools.product(range(q), repeat=n_a):
                rand = HonestSharedRandomness(a + (0,) * pad_a, full_xs)
                ys = tuple(honest_response(params, k, d, rand)
                           for k in range(1, upto_round + 1))
                key = (xs, ys)
                dist[key] = dist.get(key, Fraction(0)) + mass
        out[d] = dist
    return out
