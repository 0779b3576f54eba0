"""Exact arithmetic in the Galois field GF(p^n), polynomial basis over Z_p.

Elements are identified with integer indices 0..Q-1: the element with
coefficient vector (c_0, ..., c_{n-1}) (constant term first) has index
sum(c_i * p^i).  Index order is the canonical element order used for
enumeration, table indexing and serialization; index 0 is zero and
index 1 is one.

Fields are capped at Q = 2^20; the cap is checked before p is tested for
primality.  The default modulus is the first monic irreducible polynomial
of degree n in index order, found by trial division (`find_irreducible`);
a caller-given modulus is checked to be monic of degree n and irreducible.

Every operation is a table lookup.  The constructor takes g, the first
primitive element in index order (not necessarily t; read-only as
`FieldSpec.g`), and builds once:

- exp/log tables: exp[k] is the index of g^k and log[i] the discrete
  logarithm of i.  exp repeats with period Q-1 over its first 2(Q-1)
  entries and ends in a zero tail; log[0] points into that tail, so that
  mul(i, j) = exp[log[i] + log[j]] is 0 when i or j is, without a branch.
- for odd p, the Zech logarithms Z(k) = log(1 + g^k), which give
  g^a + g^b = g^(a + Z(b - a)) (Lidl & Niederreiter, *Finite Fields*,
  ch. 2); for p = 2, addition is XOR of the indices.

For odd p, negation is multiplication by -1 = g^((Q-1)/2); for p = 2 it is
the identity.  Inverse and power read the logarithm directly.  Whole rows
of products and sums are C-level gathers on the same tables.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from typing import Iterator, Sequence

MAX_FIELD_SIZE = 1 << 20


def is_prime(p: int) -> bool:
    """Deterministic primality check by trial division (p <= 2^20 here)."""
    return p >= 2 and _prime_factors(p) == [p]


def _prime_factors(k: int) -> list[int]:
    out, f = [], 2
    while f * f <= k:
        if k % f == 0:
            out.append(f)
            while k % f == 0:
                k //= f
        f += 1
    return out + [k] if k > 1 else out


def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
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


def _poly_divisor(mod: Sequence[int], p: int) -> tuple[int, ...] | None:
    """First monic divisor of degree 1..deg/2 in canonical order (by degree,
    then product order), by trial division; None when mod is irreducible.

    The first divisor found is irreducible: any factor of it would divide
    mod with a smaller degree.  Divisors of degree >= 2 with constant term 0
    are skipped, since t divides each of them and t is tried first.
    """
    for d in range(1, (len(mod) - 1) // 2 + 1):
        for lower in itertools.product(range(d > 1, p), *[range(p)] * (d - 1)):
            div = lower + (1,)
            if not _poly_mod(mod, div, p):
                return div
    return None


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible polynomial of degree n in canonical index
    order, by trial division that skips multiples of t (`_poly_divisor`)."""
    for idx in range(p ** n):
        mod = _decode_digits(idx, p, n) + (1,)
        if _poly_divisor(mod, p) is None:
            return mod
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


def _decode_digits(index: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def _first_primitive(p: int, n: int, mod: Sequence[int]) -> int:
    """Index of the first element of multiplicative order p^n - 1."""
    order = p ** n - 1
    exponents = [order // r for r in _prime_factors(order)]

    def power(a, k):
        result = (1,)
        while k:
            if k & 1:
                result = _poly_mod(_poly_mul(result, a, p), mod, p)
            a = _poly_mod(_poly_mul(a, a, p), mod, p)
            k >>= 1
        return result

    return next(g for g in range(1, order + 1)
                if all(power(_decode_digits(g, p, n), e) != (1,)
                       for e in exponents))


def _powers(p: int, n: int, mod: Sequence[int]) -> Iterator[int]:
    """Indices of g^0, g^1, ..., g^(Q-2) for g the first primitive element.

    x*g is Z_p-linear in the digits of x.  An index is split into a low and
    a high half, and each half's image is read from a table of packed digit
    vectors: one w-bit slot per digit, wide enough to hold the sum of two
    digits plus a guard bit.  The two images are added slot-wise mod p by
    one integer addition and a guard-bit correction, and the sum is
    unpacked to an index through one dictionary per half.  For p = 2 the
    slots are single bits, the packed vector is the index and the sum is XOR.
    """
    order = p ** n - 1
    g = _first_primitive(p, n, mod)
    x = 1
    if n == 1:
        for _ in range(order):
            yield x
            x = x * g % p
        return
    if p == 2:
        w, add = 1, operator.xor
    else:
        bits = (2 * p - 2).bit_length()
        w = bits + 1
        slots = sum(1 << w * i for i in range(n))
        over, guard = slots * ((1 << bits) - p), slots << bits

        def add(a, b):
            s = a + b
            return s - ((s + over & guard) >> bits) * p

    def span(images):
        """Packed image of every x < p^len(images), images[i] being that of p^i."""
        table = [0]
        for image in images:
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(add(multiples[-1], image))
            table = [add(a, m) for m in multiples for a in table]
        return table

    gpoly = _decode_digits(g, p, n)
    images = [sum(c << w * k for k, c in enumerate(
        _poly_mod(_poly_mul((0,) * i + (1,), gpoly, p), mod, p)))
        for i in range(n)]
    h = n // 2
    size = p ** h
    lo, hi = span(images[:h]), span(images[h:])
    if p == 2:
        for _ in range(order):
            yield x
            x = lo[x % size] ^ hi[x // size]
        return
    units = [1 << w * i for i in range(n)]
    unpack_lo = {v: y for y, v in enumerate(span(units[:h]))}
    unpack_hi = {v: y * size for y, v in enumerate(span(units[:n - h]))}
    low_mask = (1 << w * h) - 1
    for _ in range(order):
        yield x
        s = add(lo[x % size], hi[x // size])
        x = unpack_lo[s & low_mask] + unpack_hi[s >> w * h]


def _table(size: int, top: int) -> array:
    """Zeroed array of size unsigned entries wide enough to hold top."""
    code = next(c for c in "BHIL" if top < 1 << 8 * array(c).itemsize)
    return array(code, [0]) * size


class FieldSpec:
    """Description of GF(p^n): characteristic, degree and reduction polynomial.

    Immutable after construction; all index-level operations are pure.
    """

    __slots__ = ("p", "n", "q", "modulus", "_exp", "_log", "_zech", "_log_neg1")

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] | None = None):
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        # The cap comes first: p^n is only computed, and p only factored,
        # once both are bounded.
        if p >= 2 and (n >= MAX_FIELD_SIZE.bit_length() or p ** n > MAX_FIELD_SIZE):
            raise ValueError(f"field size {p}^{n} exceeds cap {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p ** n
        if modulus is None:
            modulus = find_irreducible(p, n)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {n}, got {list(modulus)}")
            if (witness := _poly_divisor(modulus, p)) is not None:
                raise ValueError(
                    f"modulus {list(modulus)} is reducible over Z_{p}"
                    f" (divisible by {list(witness)})")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = modulus

        order = q - 1
        exp = _table(4 * order + 1, q - 1)
        exp[:order] = array(exp.typecode, _powers(p, n, modulus))
        exp[order:2 * order] = exp[:order]
        log = _table(q, 2 * order)
        for k, x in enumerate(exp[:order]):
            log[x] = k
        log[0] = 2 * order
        self._exp = exp
        self._log = log
        self._log_neg1 = order // 2
        self._zech = None
        if p != 2:
            # Z(k) = log(g^k + 1).  Adding 1 increments the constant-term
            # (lowest) digit mod p: log[x + 1] at position x, except where
            # that digit is p - 1 and wraps to 0.
            log_succ = log[1:] + log[:1]
            log_succ[p - 1::p] = log[::p]
            self._zech = array(log.typecode, map(log_succ.__getitem__, exp[:order]))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"

    def describe(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_description(cls, desc: dict) -> "FieldSpec":
        return cls(desc["p"], desc.get("n", 1), desc.get("modulus"))

    @property
    def g(self) -> int:
        """Index of the primitive element whose powers the tables hold."""
        return self._exp[1]

    # -- index-level arithmetic ------------------------------------------

    def add(self, i: int, j: int) -> int:
        zech = self._zech
        if zech is None:
            return i ^ j
        if not i:
            return j
        if not j:
            return i
        # g^a + g^b = g^(a + Z(b - a)); a negative b - a indexes zech from
        # its end, which is b - a mod Q-1.
        log = self._log
        a = log[i]
        return self._exp[a + zech[log[j] - a]]

    def neg(self, i: int) -> int:
        if self._zech is None:
            return i
        return self._exp[self._log[i] + self._log_neg1]

    def sub(self, i: int, j: int) -> int:
        if self._zech is None:
            return i ^ j
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        log = self._log
        return self._exp[log[i] + log[j]]

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[i]]

    def pow(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self.inv(i), -k
        if not i:
            return 0 if k else 1
        return self._exp[self._log[i] * k % (self.q - 1)]

    def product_rows(self) -> Iterator[tuple[int, ...]]:
        """Row x*y over y for each x in index order: log y gathered from the
        period of exp at log x, with one slot past it set to 0 for y = 0
        (log 0 starts x = 0 in exp's zero tail).  The rows share one int
        object per value: exp's own."""
        order, log = self.q - 1, self._log
        exp = self._exp[:order].tolist() * 2 + [0] * (order + 1)
        products = operator.itemgetter(order, *map(  # k = exp[log k], k != 0
            exp.__getitem__, map(log.__getitem__, log[1:])))
        for lx in log:
            window = exp[lx:lx + order + 1]
            window[order] = 0
            yield products(window)

    def sum_rows(self, cs: Sequence[int], ys: Sequence[int]
                 ) -> Iterator[tuple[int, ...]]:
        """Row c + y over ys (two entries or more) for each c in cs: ys at
        c = 0, else g^a + g^b = g^(a + Z(b - a)), Z the Zech table (built
        per call for p = 2).  log y gathers Z(b - a) from Z doubled and
        sliced at -a (y = 0 lands on the zeros after it), and those gather
        the sums from exp's ints sliced at a (a zero sum lands in its tail)."""
        order, log = self.q - 1, self._log
        exp = self._exp[:order].tolist() * 2 + [0] * (order + 1)
        log = [2 * order, *map(exp.__getitem__, map(log.__getitem__, log[1:]))]
        zech = list(self._zech or map(log.__getitem__, map(
            operator.xor, exp[:order], itertools.repeat(1))))
        zech += zech + [0] * (order + 1)
        zech_of_ys = operator.itemgetter(*operator.itemgetter(*ys)(log))
        for c in cs:
            yield (operator.itemgetter(*zech_of_ys(zech[order - log[c]:]))(
                exp[log[c]:]) if c else tuple(ys))
