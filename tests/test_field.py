"""Field arithmetic: construction, canonical order, axioms."""

import itertools
import random
import time

import pytest

from relbc import FieldSpec
from relbc.field import (
    _decode_digits,
    _poly_divisor,
    _poly_mod,
    find_irreducible,
    is_prime,
)


def test_prime_field_construction():
    for p in (2, 3, 5, 7, 11):
        spec = FieldSpec(p)
        assert spec.q == p
        assert spec.modulus == (0, 1)


def test_rejects_composite_characteristic():
    for p in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FieldSpec(p)


def test_rejects_extension_degree_below_one():
    with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
        FieldSpec(2, 0)


@pytest.mark.parametrize("modulus", [(1, 1), (1, 1, 0, 1), (1, 1, 2)],
                         ids=["short", "long", "not-monic"])
def test_rejects_modulus_of_wrong_degree_or_not_monic(modulus):
    with pytest.raises(ValueError) as info:
        FieldSpec(3, 2, modulus)
    assert str(info.value) == (
        f"modulus must be monic of degree 2, got {list(modulus)}")


def test_rejects_reducible_modulus():
    # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 2, (1, 0, 1))


@pytest.mark.parametrize("p,modulus,witness", [
    (2, (1, 0, 1), "[1, 1]"),              # (t + 1)^2
    (2, (1, 0, 1, 0, 1), "[1, 1, 1]"),     # (t^2 + t + 1)^2, no linear factor
    (5, (1, 0, 1), "[2, 1]"),              # (t + 2)(t + 3)
    (3, (0, 0, 1, 0, 1), "[0, 1]"),        # t^2 (t^2 + 1); t^2 is skipped
])
def test_reducible_modulus_names_first_divisor(p, modulus, witness):
    message = (f"modulus {list(modulus)} is reducible over Z_{p}"
               f" (divisible by {witness})")
    with pytest.raises(ValueError) as info:
        FieldSpec(p, len(modulus) - 1, modulus)
    assert str(info.value) == message


def test_rejects_field_too_large():
    # the cap is checked before p is factored and before p^n is computed:
    # trial division of p ~ 10^18 or building 3^(3*10^7) takes many seconds
    for p, n in ((1000000000000000003, 1), (3, 30000000), (2, 21)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"field size {p}\\^{n} exceeds cap"):
            FieldSpec(p, n)
        assert time.perf_counter() - start < 1.0
    for p in (-3, 0, 1, 6):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(p, 30000000 if p < 2 else 1)


def test_canonical_moduli_are_irreducible():
    # the default modulus is the first monic irreducible in index order
    pinned = {
        (2, 2): (1, 1, 1),        # t^2 + t + 1
        (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
        (2, 4): (1, 1, 0, 0, 1),  # t^4 + t + 1
        (3, 2): (1, 0, 1),        # t^2 + 1
        (3, 3): (1, 2, 0, 1),     # t^3 + 2t + 1
        (5, 2): (2, 0, 1),        # t^2 + 2
    }
    for (p, n), mod in pinned.items():
        assert FieldSpec(p, n).modulus == mod
        assert _poly_divisor(mod, p) is None


def _poly(n, terms):
    """Monic t^n plus terms, a map from exponent to coefficient."""
    return tuple(terms.get(i, 0) for i in range(n)) + (1,)


@pytest.mark.parametrize("p,n,mod", [
    (2, 8, _poly(8, {4: 1, 3: 1, 1: 1, 0: 1})),   # t^8 + t^4 + t^3 + t + 1
    (2, 16, _poly(16, {5: 1, 3: 1, 1: 1, 0: 1})),  # t^16 + t^5 + t^3 + t + 1
    (2, 20, _poly(20, {3: 1, 0: 1})),             # t^20 + t^3 + 1
    (3, 10, _poly(10, {2: 2, 0: 1})),             # t^10 + 2t^2 + 1
    (5, 8, _poly(8, {0: 2})),                     # t^8 + 2
])
def test_default_moduli_of_larger_fields(p, n, mod):
    # the first irreducible in index order, as the full trial division found
    # it; find_irreducible builds no tables, unlike FieldSpec(p, n)
    assert find_irreducible(p, n) == mod
    assert _poly_divisor(mod, p) is None


def _reference_divisor(mod, p):
    """The original search, verbatim: trial division by every monic
    polynomial of degree 1..deg/2, reducible ones included."""
    for d in range(1, (len(mod) - 1) // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            div = lower + (1,)
            if not _poly_mod(mod, div, p):
                return div
    return None


def _reference_irreducible(p, n):
    """The original find_irreducible, verbatim; also returns the candidates
    it rejected, in order."""
    rejected = []
    for idx in range(p ** n):
        mod = _decode_digits(idx, p, n) + (1,)
        if _reference_divisor(mod, p) is None:
            return mod, rejected
        rejected.append(mod)
    raise AssertionError("no irreducible polynomial")


@pytest.mark.parametrize("p", [p for p in range(2, 65) if is_prime(p)])
def test_irreducible_search_matches_full_trial_division(p):
    # every p^n <= 4096 with n >= 2: the same first modulus, and the same
    # "divisible by" witness for every candidate the search rejects and for
    # a seeded sample of other monic polynomials of degree n
    rng = random.Random(f"irreducible:{p}")
    n = 2
    while p ** n <= 4096:
        mod, rejected = _reference_irreducible(p, n)
        assert find_irreducible(p, n) == mod
        sample = [_decode_digits(rng.randrange(p ** n), p, n) + (1,)
                  for _ in range(20)]
        for poly in rejected + [mod] + sample:
            assert _poly_divisor(poly, p) == _reference_divisor(poly, p), poly
        n += 1


def test_primitive_element_is_read_only_and_first():
    for p, n in [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (7, 1)]:
        spec = FieldSpec(p, n)
        order = spec.q - 1
        powers = [spec.pow(spec.g, k) for k in range(order)]
        assert sorted(powers) == list(range(1, spec.q))
        # no smaller nonzero index generates the multiplicative group
        for h in range(1, spec.g):
            assert len({spec.pow(h, k) for k in range(order)}) < order
        with pytest.raises(AttributeError):
            spec.g = 1


def test_find_irreducible_degree_five():
    mod = find_irreducible(2, 5)
    assert len(mod) == 6 and mod[-1] == 1
    FieldSpec(2, 5, mod)  # accepted as a valid modulus


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(25):
        assert is_prime(k) == (k in primes)


def test_gf4_multiplication_table():
    # indices: 0, 1, t, t+1
    gf4 = FieldSpec(2, 2)
    t = 2
    assert gf4.mul(t, t) == 3          # t^2 = t + 1
    assert gf4.mul(t, 3) == 1          # t(t+1) = 1
    assert gf4.inv(t) == 3
    assert gf4.add(t, 3) == 1


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2)])
def test_field_axioms(p, n):
    spec = FieldSpec(p, n)
    q = spec.q
    rng = random.Random(f"axioms:{p}:{n}")
    for _ in range(500):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b),
                                                       spec.mul(a, c))
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a != 0:
            assert spec.mul(a, spec.inv(a)) == 1
        # Frobenius: (a+b)^p = a^p + b^p
        assert spec.pow(spec.add(a, b), p) == spec.add(spec.pow(a, p),
                                                       spec.pow(b, p))


ROW_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 3), (2, 5), (2, 8),
              (3, 5)]


@pytest.mark.parametrize("p,n", ROW_FIELDS)
def test_product_rows_match_mul(p, n):
    spec = FieldSpec(p, n)
    q = spec.q
    assert list(spec.product_rows()) == [
        tuple(spec.mul(x, y) for y in range(q)) for x in range(q)]


@pytest.mark.parametrize("p,n", ROW_FIELDS)
def test_sum_rows_match_add(p, n):
    spec = FieldSpec(p, n)
    q = spec.q
    rng = random.Random(f"sum-rows:{p}:{n}")
    drawn = [rng.randrange(q) for _ in range(2 * q)]
    for cs, ys in [
        (range(q), range(q)),                         # every sum, 0 included
        ([0, 1, q - 1, 0, q - 1, 1], [0, q - 1, 1, 0, 1, 0]),  # repeats
        (drawn[:q], drawn[q:]),
        ([q - 1, 0, 1], [0, 0]),
        ([], [0, 1]),
    ]:
        assert list(spec.sum_rows(cs, ys)) == [
            tuple(spec.add(c, y) for y in ys) for c in cs]


def test_product_rows_share_one_int_per_value():
    # beyond 256, ints are objects of their own: the rows hold Q of them,
    # not one per entry
    spec = FieldSpec(2, 9)
    rows = list(spec.product_rows())
    assert len({id(v) for row in rows for v in row}) == spec.q


def test_pow_negative_exponent():
    gf5 = FieldSpec(5)
    assert gf5.pow(2, -1) == gf5.inv(2) == 3
    assert gf5.pow(2, -2) == gf5.mul(3, 3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldSpec(3).inv(0)


def test_spec_equality_and_hash():
    assert FieldSpec(2, 2) == FieldSpec(2, 2)
    assert hash(FieldSpec(3)) == hash(FieldSpec(3))
    assert FieldSpec(2, 3) != FieldSpec(2, 2)


def test_describe_round_trip():
    spec = FieldSpec(3, 2)
    assert FieldSpec.from_description(spec.describe()) == spec
