"""Table arithmetic against the digit-by-digit polynomial arithmetic it
replaced.

The reference below is the previous FieldSpec's digit path, kept verbatim
(helpers and add/neg/sub/mul/inv/pow bodies) apart from the name of the
digits-to-index helper, which the package no longer has.  Every op is
compared with it exhaustively on every extension field with Q <= 256, on
the prime fields named in SMALL and under moduli where t is not primitive,
and on seeded samples at GF(2^16), GF(3^9), GF(2^20) and GF(1048573).
"""

import itertools
import random

import pytest

from relbc import FieldSpec
from relbc import field
from relbc.field import is_prime


# --- reference: the original digit arithmetic, verbatim ---------------------

def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial mod, over Z_p."""
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _decode_digits(index, p, n):
    out = []
    for _ in range(n):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def _digits_to_index(coeffs, p):
    index = 0
    for c in reversed(coeffs):
        index = index * p + c
    return index


class DigitField:
    """GF(p^n) by digit arithmetic on the same indices and modulus."""

    def __init__(self, spec):
        self.p, self.n, self.q, self.modulus = spec.p, spec.n, spec.q, spec.modulus

    def add(self, i, j):
        p = self.p
        a = _decode_digits(i, p, self.n)
        b = _decode_digits(j, p, self.n)
        return _digits_to_index([(x + y) % p for x, y in zip(a, b)], p)

    def neg(self, i):
        p = self.p
        return _digits_to_index([(-c) % p for c in _decode_digits(i, p, self.n)], p)

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def mul(self, i, j):
        p, n = self.p, self.n
        a = _decode_digits(i, p, n)
        b = _decode_digits(j, p, n)
        r = _poly_mod(_poly_mul(a, b, p), self.modulus, p)
        return _digits_to_index(r + (0,) * n, p)

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._pow_slow(i, self.q - 2)

    def _pow_slow(self, i, k):
        result = 1
        base = i
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def pow(self, i, k):
        if k < 0:
            i, k = self.inv(i), -k
        result = 1
        base = i
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result


# --- comparisons -------------------------------------------------------------

# Every extension field with Q <= 256.  Prime fields share one code path
# whatever p is, so besides the small ones only 127 and 131, on either side
# of the size at which log entries (up to 2Q - 2) stop fitting in a byte,
# and 251, the largest, are checked; all 54 would add ~3 s to the suite.
SMALL = [(p, n) for p in range(2, 17) if is_prime(p)
         for n in range(1, 9) if p ** n <= 256] + [(127, 1), (131, 1), (251, 1)]
# Moduli under which t (index p) is not a primitive element, with its order.
NON_PRIMITIVE_T = [(2, 4, (1, 1, 1, 1, 1), 5), (3, 2, (1, 0, 1), 4)]
LARGE = [(2, 16), (3, 9), (2, 20), (1048573, 1)]
POW_EXPONENTS = (-3, -1, 0, 1, 2, 5)


def _check_exhaustive(spec):
    ref = DigitField(spec)
    q = spec.q
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            add[i][j] = add[j][i] = ref.add(i, j)
            mul[i][j] = mul[j][i] = ref.mul(i, j)
    neg = [ref.neg(i) for i in range(q)]
    assert [spec.neg(i) for i in range(q)] == neg
    assert [spec.inv(i) for i in range(1, q)] == [ref.inv(i) for i in range(1, q)]
    for i in range(q):
        assert [spec.add(i, j) for j in range(q)] == add[i]
        assert [spec.sub(i, j) for j in range(q)] == [add[i][neg[j]]
                                                      for j in range(q)]
        assert [spec.mul(i, j) for j in range(q)] == mul[i]
    for k in POW_EXPONENTS:
        lo = 1 if k < 0 else 0
        assert ([spec.pow(i, k) for i in range(lo, q)]
                == [ref.pow(i, k) for i in range(lo, q)])


@pytest.mark.parametrize("p,n", SMALL)
def test_ops_match_digit_reference_exhaustively(p, n):
    _check_exhaustive(FieldSpec(p, n))


@pytest.mark.parametrize("p,n,modulus,t_order", NON_PRIMITIVE_T)
def test_ops_match_digit_reference_when_t_is_not_primitive(p, n, modulus,
                                                           t_order):
    spec = FieldSpec(p, n, modulus)
    assert DigitField(spec).pow(p, t_order) == 1
    _check_exhaustive(spec)


@pytest.mark.parametrize("p,n", LARGE)
def test_ops_match_digit_reference_on_samples(p, n):
    spec = FieldSpec(p, n)
    ref = DigitField(spec)
    rng = random.Random(f"field-reference:{p}:{n}")
    for _ in range(2000):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.add(a, b) == ref.add(a, b)
        assert spec.sub(a, b) == ref.sub(a, b)
        assert spec.mul(a, b) == ref.mul(a, b)
        assert spec.neg(a) == ref.neg(a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.sub(spec.add(a, b), b) == a
    for _ in range(20):
        a = rng.randrange(1, spec.q)
        assert spec.inv(a) == ref.inv(a)
        assert spec.mul(a, spec.inv(a)) == 1
    for a, k in itertools.product([0, 1, spec.q - 1, rng.randrange(2, spec.q)],
                                  POW_EXPONENTS + (spec.q, 3 * spec.q + 1)):
        if a == 0 and k < 0:
            with pytest.raises(ZeroDivisionError):
                spec.pow(a, k)
            with pytest.raises(ZeroDivisionError):
                ref.pow(a, k)
        else:
            assert spec.pow(a, k) == ref.pow(a, k), (a, k)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_poly_mul_matches_reference_on_empty_zero_and_mixed_operands(p):
    # an empty operand leaves no product term: () or all zeros, trimmed
    operands = [(), (0,), (0, 0), (1,), (p - 1, 0, 1), (0, 1, 0), (1, 1)]
    for a, b in itertools.product(operands, repeat=2):
        got = field._poly_mul(a, b, p)
        assert got == _poly_mul(a, b, p), (a, b)
        if not a or not b:
            assert got == ()
