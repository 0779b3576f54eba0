"""Protocol flow: honest runs, acceptance checking, hiding."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc import (
    FieldSpec,
    ProtocolParams,
    Transcript,
    Variant,
    hiding_distributions,
    honest_responses,
    run_honest,
    tilde_transform,
    verify_values,
)
from relbc import protocol
from relbc.errors import CapabilityError
from relbc.protocol import _ByteStream

from oracles import WordStream, compute_eta

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def test_params_counts():
    p = ProtocolParams(GF3, 4, Variant.STANDARD)
    assert p.n_rounds == 4 and p.n_challenges == 3
    q = ProtocolParams(GF3, 4, Variant.SYMMETRIZED)
    assert q.n_rounds == 4 and q.n_challenges == 4


def test_single_round_is_two_messages():
    p = ProtocolParams(GF3, 1)
    assert p.single_round
    assert p.n_rounds == 2 and p.n_challenges == 1


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(GF2, 0)
    with pytest.raises(ValueError):
        ProtocolParams(GF2, 1, Variant.SYMMETRIZED)


def test_variant_accepts_strings():
    assert ProtocolParams(GF2, 3, "standard").variant is Variant.STANDARD
    assert ProtocolParams(GF2, 3, "symmetrized").variant is Variant.SYMMETRIZED


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.SYMMETRIZED])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_honest_runs_always_accepted(variant, m):
    for spec in (GF2, GF3):
        params = ProtocolParams(spec, m, variant)
        for d in (0, 1):
            for seed in range(10):
                assert run_honest(params, d, seed=seed).accepted


def test_honest_single_round_accepted():
    params = ProtocolParams(GF3, 1)
    for d in (0, 1):
        assert run_honest(params, d, seed=4).accepted


def test_honest_completeness_enumerated():
    # every share/challenge combination is accepted, not just sampled ones
    for variant in (Variant.STANDARD, Variant.SYMMETRIZED):
        for m in (2, 3, 4):
            params = ProtocolParams(GF2, m, variant)
            n_r, n_c = params.n_rounds, params.n_challenges
            for d in (0, 1):
                for a in itertools.product(range(2), repeat=n_r):
                    for xs in itertools.product(range(2), repeat=n_c):
                        ys = honest_responses(params, d, a, xs)
                        assert verify_values(params, d, xs, ys)


def test_first_response_masks_bit():
    # y_1 = d*x_1 + a_1 with uniform a_1 is uniform regardless of d
    params = ProtocolParams(GF3, 3)
    a, xs = (2, 1, 0), (1, 2)
    assert honest_responses(params, 1, a, xs)[0] == GF3.add(GF3.mul(1, 1), 2)
    assert honest_responses(params, 0, a, xs)[0] == 2


def test_verify_rejects_tampered_response():
    params = ProtocolParams(GF3, 4)
    t = run_honest(params, 1, seed=8)
    bad = list(t.responses)
    bad[-1] = GF3.add(bad[-1], 1)
    assert not verify_values(params, 1, t.challenges, tuple(bad))


def test_verify_length_and_bit_validation():
    params = ProtocolParams(GF2, 3)
    with pytest.raises(ValueError):
        verify_values(params, 0, (0,), (0, 0, 0))
    with pytest.raises(ValueError):
        verify_values(params, 2, (0, 0), (0, 0, 0))


def test_verify_matches_explicit_chain():
    # independent recomputation of the acceptance predicate
    rng = random.Random("chain")
    for variant in (Variant.STANDARD, Variant.SYMMETRIZED):
        params = ProtocolParams(GF3, 4, variant)
        for _ in range(200):
            d = rng.randrange(2)
            xs = tuple(rng.randrange(3) for _ in range(params.n_challenges))
            ys = tuple(rng.randrange(3) for _ in range(params.n_rounds))
            alpha = d
            for i in range(3):
                alpha = GF3.sub(ys[i], GF3.mul(xs[i], alpha))
            if variant is Variant.STANDARD:
                expect = ys[3] == alpha
            else:
                expect = ys[3] == GF3.mul(xs[3], alpha)
            assert verify_values(params, d, xs, ys) == expect


@st.composite
def transcripts(draw):
    """(params, d, xs, ys, honest): random responses, or an honest run's,
    which are uniform over the accepting transcripts for (d, xs)."""
    spec = draw(st.sampled_from([GF2, GF3, FieldSpec(2, 2), FieldSpec(5),
                                 FieldSpec(3, 2)]))
    variant = draw(st.sampled_from(list(Variant)))
    m = draw(st.integers(1 if variant is Variant.STANDARD else 2, 8))
    params = ProtocolParams(spec, m, variant)

    def elements(n):
        return tuple(draw(st.lists(st.integers(0, spec.q - 1),
                                   min_size=n, max_size=n)))

    d = draw(st.integers(0, 1))
    xs = elements(params.n_challenges)
    honest = draw(st.booleans())
    if honest:
        ys = honest_responses(params, d, elements(params.n_rounds), xs)
    else:
        ys = elements(params.n_rounds)
    return params, d, xs, ys, honest


@settings(max_examples=500, deadline=None)
@given(transcripts())
def test_verify_matches_compute_eta(case):
    # the chained check equals the expanded sign-alternating sum; the
    # standard variant is the symmetrized one with x_m = 1
    params, d, xs, ys, honest = case
    spec = params.field
    xs_ext = xs + (1,) if params.variant is Variant.STANDARD else xs
    accepted = compute_eta(spec, d, xs_ext, tilde_transform(spec, ys)) == 0
    assert verify_values(params, d, xs, ys) == accepted
    if honest:
        assert accepted


def test_tilde_transform_self_inverse():
    ys = (1, 2, 0, 1, 2)
    assert tilde_transform(GF3, tilde_transform(GF3, ys)) == ys
    assert tilde_transform(GF2, (1, 1, 0)) == (1, 1, 0)  # identity in char 2


def test_tilde_transform_signs():
    assert tilde_transform(GF3, (1, 1, 1, 1)) == (1, 2, 1, 2)


def test_transcript_round_trip():
    t = run_honest(ProtocolParams(GF3, 3), 1, seed=2)
    d = t.to_dict()
    assert d["schema"] == 1
    assert Transcript.from_dict(d) == t


def test_run_honest_rejects_a_bit_other_than_0_or_1():
    with pytest.raises(ValueError, match="committed bit must be 0 or 1"):
        run_honest(ProtocolParams(GF2, 3), 2)


def test_run_honest_deterministic_per_seed():
    params = ProtocolParams(GF3, 4)
    assert run_honest(params, 0, seed=6) == run_honest(params, 0, seed=6)
    assert run_honest(params, 0, seed=6) != run_honest(params, 0, seed=7)


@pytest.mark.parametrize("spec,m", [(GF2, 2), (GF2, 3), (GF2, 4),
                                    (GF3, 2), (GF3, 3)])
def test_perfect_hiding_before_reveal(spec, m):
    for variant in (Variant.STANDARD, Variant.SYMMETRIZED):
        if variant is Variant.SYMMETRIZED and m < 2:
            continue
        params = ProtocolParams(spec, m, variant)
        *views, _ = hiding_distributions(params)
        assert len(views) == params.n_rounds - 1
        for dist in views:
            assert dist[0] == dist[1]
            assert sum(dist[0].values()) == 1


def test_reveal_discloses_bit():
    for variant in (Variant.STANDARD, Variant.SYMMETRIZED):
        params = ProtocolParams(GF2, 3, variant)
        dist = hiding_distributions(params)[-1]
        assert dist[0] != dist[1]


def test_hiding_single_round():
    params = ProtocolParams(GF3, 1)
    dist, full = hiding_distributions(params)
    assert dist[0] == dist[1]
    assert full[0] != full[1]


def test_hiding_distribution_is_exact():
    params = ProtocolParams(GF2, 3)
    dist = hiding_distributions(params)[1]
    for mass in dist[0].values():
        assert isinstance(mass, Fraction)


def test_hiding_capability_cap():
    with pytest.raises(CapabilityError):
        hiding_distributions(ProtocolParams(FieldSpec(5), 8))


@pytest.mark.parametrize("q, m, variant, states", [
    (7, 6, Variant.STANDARD, 564950498),
    (5, 8, Variant.SYMMETRIZED, 61035156250),
])
def test_hiding_cap_error_names_the_states_enumerated(q, m, variant, states):
    # 2*Q^(n_challenges + n_rounds - 1): every state of the last round
    params = ProtocolParams(FieldSpec(q), m, variant)
    assert states == 2 * q ** (params.n_challenges + params.n_rounds - 1)
    with pytest.raises(CapabilityError, match=f"needs {states} states"):
        hiding_distributions(params)


def _chi_square_bound(df: int) -> float:
    """Wilson-Hilferty's upper quantile of chi-square with df degrees of
    freedom at the normal deviate 4.75: exceeded with probability ~1e-6."""
    c = 2 / (9 * df)
    return df * (1 - c + 4.75 * math.sqrt(c)) ** 3


def test_byte_tries_are_uniform_below_every_space():
    # one seeded stream, 40 tries a value below every space from 2 to 256
    # (byte tries) and at 257 to 2^16 (2-byte lanes, 2^16 keeping every
    # lane): Pearson's statistic stays below its 1 - 1e-6 quantile
    stream = _ByteStream(random.Random("uniform"))
    for space in [*range(2, 257), 257, 512, 729, 1000, 4097, 59049, 2 ** 16]:
        count = 40 * space
        tries = stream.tries(space, count)
        assert len(tries) == count and max(tries) < space
        counts = Counter(tries)
        stat = sum((counts[t] - 40) ** 2 for t in range(space)) / 40
        assert stat < _chi_square_bound(space - 1), space


@pytest.mark.parametrize("block_words", [None, 1, 3], ids=["full", "1", "3"])
def test_byte_stream_reads_the_words_in_turn(block_words, monkeypatch):
    # reads of every size, in blocks of any size, give the bytes and tries
    # of one getrandbits(32) call per four bytes: leftover bytes carry;
    # the spaces run over 1-, 2- and 4-byte lanes to the field cap 2^20,
    # and 2^17, 3^12 and 2^20 keep the top 17, 19 and 20 bits of 4 bytes
    if block_words:
        monkeypatch.setattr(protocol, "_DRAW_BLOCK_WORDS", block_words)
    stream = _ByteStream(random.Random("stream"))
    reference = WordStream(random.Random("stream"))
    for size in [0, 1, 2, 3, 5, 4, 7, 100, 1, 12, 4099]:
        assert stream.take(size) == bytes(reference.byte()
                                          for _ in range(size))
        for space in (2, 3, 128, 129, 256, 257, 512, 729, 4096, 4097, 59049,
                      65521, 2 ** 16, 2 ** 17, 3 ** 12, 2 ** 20):
            assert list(stream.tries(space, size)) == [
                reference.below(space) for _ in range(size)]


class _TakeLog(_ByteStream):
    """A _ByteStream that records the size of every take."""

    def __init__(self, rng):
        super().__init__(rng)
        self.sizes = []

    def take(self, count):
        self.sizes.append(count)
        return super().take(count)


@pytest.mark.parametrize("count", [1, 62, 70000])
def test_whole_lane_space_reads_its_tries_in_one_take(count):
    # at 2^16 every 2-byte lane is a try: one take of 2 * count bytes,
    # after which the stream reads on where the reference does
    stream = _TakeLog(random.Random("lanes"))
    reference = WordStream(random.Random("lanes"))
    tries = stream.tries(2 ** 16, count)
    assert stream.sizes == [2 * count]
    assert list(tries) == [reference.below(2 ** 16) for _ in range(count)]
    assert stream.take(7) == bytes(reference.byte() for _ in range(7))
