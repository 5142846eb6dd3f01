"""Finite fields F_{p^e} with deterministic construction.

Each field is F_p[u] modulo one fixed monic irreducible per (p, e): the
first irreducible in integer-encoding order, where a monic polynomial
u^e + c_{e-1} u^{e-1} + ... + c_0 is encoded by sum(c_k p^k).  An
element is stored as the integer encoding sum(c_k p^k) of its
coefficients c_0, ..., c_{e-1} (``coeffs`` is a derived view); that
integer also gives the deterministic enumeration order used for every
"first element such that" choice below (subfield embeddings, Sylow
generators, roots).

Sums and differences work digit by digit on encodings (XOR when p = 2).
Products, powers and inverses go through the field's exp/log tables,
the cached property ``FiniteField.log_tables``, built on its first
product by walking the powers of its generator g, the first primitive
element in encoding order: ``exp[k]`` is the encoding of g^k and
``log`` inverts it on the units.  The tuple arithmetic on coefficient
lists (``_pp_mulmod``, ``_pp_rem``) finds the moduli, tests generators
and takes each step of the walk; the tests keep it as the referee.

Subfields embed by sending the small field's generator to the smallest
root of its modulus in the big field.  All such choices are pure
functions of (p, e), so independent runs agree.  A field keeps nothing
but its tables: ``finite_field`` and every table derived from fields
(embeddings, Frobenius orbits, irreducibles, Sylow data) are memoised
by ``functools.cache`` on the module functions that compute them.

Roots and irreducible polynomials come from Frobenius orbits.  In log
form the orbit of g^k under x -> x^Q is the cyclotomic coset
{k Q^i mod (p^e - 1)} (Lidl & Niederreiter, *Finite Fields*, ch. 2-3),
so one pass over a big field per subfield (``frobenius_orbits``)
walks the encodings in order, reads the coset of
each new one off its log and records the orbit's product of (Y - x_i),
the minimal polynomial (``minimal_polynomial`` takes the same product
for one element), against x, its smallest-encoding root.  So every
monic irreducible of degree dividing [big : sub] is found together with
the root ``roots_in(...)[0]`` would return; ``roots_in`` keeps its
brute-force evaluation as the tests' referee.  ``irreducible_polys``
lists each degree in the census's ``FqPoly.sort_key`` order, which
compares coefficients from the constant term up.  Discrete logs on the
Sylow l-subgroup are read off the same log table: ``_sylow`` finds the
log of the Sylow generator and the residue table once per (field, l),
and both ``sylow_generator`` and ``ell_part_and_dlog`` read it.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from operator import xor

from .arith import divisors, is_prime, moebius, ord_int, prime_power
from .errors import AssertionFailure, InvalidPrime, ScaleLimit, ZeroElement

# ---------------------------------------------------------------------------
# F_p[x] on plain integer tuples (low degree first), for modulus hunting,
# generator tests and the table walk
# ---------------------------------------------------------------------------


def _pp_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pp_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pp_rem(out, mod, p)


def _pp_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - dm - 1, -1, -1):
        c = a[i + dm] * inv_lead % p
        if c:
            for j, mj in enumerate(mod):
                a[i + j] = (a[i + j] - c * mj) % p
    return _pp_trim(a[:dm])


def _pp_pow(a, k, mod, p):
    out = (1,)
    while k:
        if k & 1:
            out = _pp_mulmod(out, a, mod, p)
        a = _pp_mulmod(a, a, mod, p)
        k >>= 1
    return out


def _pp_is_irreducible(cand, p):
    """Monic ``cand`` irreducible over F_p?  Trial division by every
    monic polynomial of degree 1..deg/2 (desk scale keeps this cheap)."""
    e = len(cand) - 1
    for deg in range(1, e // 2 + 1):
        for enc in range(p**deg):
            div = _decode_poly(enc, deg, p) + (1,)
            if not _pp_rem(cand, div, p):
                return False
    return True


def _decode_poly(enc, length, p):
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return tuple(out)


def _encode_poly(cs, p):
    enc = 0
    for c in reversed(cs):
        enc = enc * p + c
    return enc


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The fixed monic modulus for F_{p^e}: first irreducible in
    integer-encoding order of the non-leading coefficients."""
    if e == 1:
        return (0, 1)
    for enc in range(p**e):
        cand = _decode_poly(enc, e, p) + (1,)
        if _pp_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible found; unreachable")


# ---------------------------------------------------------------------------
# arithmetic on encodings
# ---------------------------------------------------------------------------


def _digitwise(p: int, e: int, sign: int):
    """The map (a, b) -> encoding of a + sign*b, digit by digit mod p."""
    if p == 2:
        return xor
    if e == 1:
        return lambda a, b: (a + sign * b) % p

    def combine(a, b):
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * place
            place *= p
        return out

    return combine


def _first_primitive(field: "FiniteField") -> int:
    """Encoding of the first element of multiplicative order p^e - 1,
    tested by tuple powers against each prime divisor of that order."""
    p, e, units = field.p, field.e, field.order - 1
    cofactors = [units // r for r in divisors(units) if is_prime(r)]
    for enc in range(1, field.order):
        g = _pp_trim(_decode_poly(enc, e, p))
        if all(_pp_pow(g, k, field.modulus, p) != (1,) for k in cofactors):
            return enc
    raise AssertionFailure(f"no primitive element found in {field!r}")


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------


@cache
def finite_field(q: int) -> "FiniteField":
    """The one field of order q."""
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    return FiniteField(*pe)


class FiniteField:
    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise InvalidPrime(f"characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = smallest_irreducible(p, e)
        self.zero = FFElement(self, 0)
        self.one = FFElement(self, 1)
        self._add = _digitwise(p, e, 1)
        self._sub = _digitwise(p, e, -1)

    @cached_property
    def log_tables(self) -> tuple:
        """(exp, log) for the field's generator g.  ``exp[k]`` is the
        encoding of g^k, stored twice over so exponent sums need no
        reduction; ``log`` inverts it on the units (its entry 0 is -1).
        The walk multiplies by g with the tuple arithmetic; every unit
        must be met exactly once."""
        p, e, order = self.p, self.e, self.order
        units = order - 1
        g = _pp_trim(_decode_poly(_first_primitive(self), e, p))
        exp = [0] * units
        log = [-1] * order
        x = 1
        for k in range(units):
            if log[x] >= 0:
                raise AssertionFailure(f"g^{k} repeats g^{log[x]} in {self!r}")
            exp[k] = x
            log[x] = k
            x = _encode_poly(_pp_mulmod(_decode_poly(x, e, p), g, self.modulus, p), p)
        if x != 1:
            raise AssertionFailure(f"g^{units} is not 1 in {self!r}")
        return exp + exp, log

    def element(self, encoding: int) -> "FFElement":
        return FFElement(self, encoding % self.order)

    def from_coeffs(self, coeffs) -> "FFElement":
        cs = tuple(c % self.p for c in coeffs)
        if len(cs) != self.e:
            raise ValueError(f"{len(cs)} coefficients for a degree-{self.e} field")
        return FFElement(self, _encode_poly(cs, self.p))

    def elements(self):
        for enc in range(self.order):
            yield FFElement(self, enc)

    def units(self):
        for enc in range(1, self.order):
            yield FFElement(self, enc)

    def __repr__(self):
        return f"GF({self.order})"


class FFElement:
    __slots__ = ("field", "encoding")

    def __init__(self, field: FiniteField, encoding: int):
        self.field = field
        self.encoding = encoding

    @property
    def coeffs(self) -> tuple:
        return _decode_poly(self.encoding, self.field.e, self.field.p)

    def __bool__(self):
        return self.encoding != 0

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.field is other.field
            and self.encoding == other.encoding
        )

    def __hash__(self):
        return hash(self.encoding)

    def __lt__(self, other):
        if self.field is not other.field:
            raise TypeError("elements of different fields")
        return self.encoding < other.encoding

    def _operand(self, other) -> int:
        """The encoding of ``other``; an int stands for its residue mod p."""
        if isinstance(other, int):
            return other % self.field.p
        if self.field is not other.field:
            raise TypeError("elements of different fields")
        return other.encoding

    def __add__(self, other):
        f = self.field
        return FFElement(f, f._add(self.encoding, self._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FFElement(f, f._sub(0, self.encoding))

    def __sub__(self, other):
        f = self.field
        return FFElement(f, f._sub(self.encoding, self._operand(other)))

    def __mul__(self, other):
        f = self.field
        a, b = self.encoding, self._operand(other)
        if not (a and b):
            return f.zero
        exp, log = f.log_tables
        return FFElement(f, exp[log[a] + log[b]])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        f = self.field
        if not self.encoding:
            if k < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return f.zero if k else f.one
        exp, log = f.log_tables
        return FFElement(f, exp[log[self.encoding] * k % (f.order - 1)])

    def inverse(self) -> "FFElement":
        return self ** -1

    def __repr__(self):
        return f"{self.field!r}:{self.encoding}"


# ---------------------------------------------------------------------------
# embeddings between fields of the same characteristic
# ---------------------------------------------------------------------------


@cache
def embedding(src: FiniteField, dst: FiniteField) -> dict:
    """The deterministic field embedding src -> dst as a lookup dict.

    Sends the source generator to the smallest root of the source
    modulus in dst.  Requires src.e | dst.e.
    """
    if src.p != dst.p or dst.e % src.e:
        raise AssertionFailure(f"{src!r} is not a subfield of {dst!r}")
    if src is dst:
        return {x: x for x in src.elements()}
    root = None
    for t in dst.elements():
        acc = dst.zero
        for c in reversed(src.modulus):
            acc = acc * t + c
        if not acc:
            root = t
            break
    if root is None:
        raise AssertionFailure("source modulus has no root in destination")
    powers = [dst.one]
    for _ in range(src.e - 1):
        powers.append(powers[-1] * root)
    table = {}
    for x in src.elements():
        img = dst.zero
        for c, tp in zip(x.coeffs, powers):
            img = img + tp * c
        table[x] = img
    return table


@cache
def inverse_embedding(src: FiniteField, dst: FiniteField) -> dict:
    """The inverse of ``embedding(src, dst)``, defined on its image."""
    return {v: k for k, v in embedding(src, dst).items()}


# ---------------------------------------------------------------------------
# polynomials over a finite field
# ---------------------------------------------------------------------------


class FqPoly:
    """Dense polynomial over a FiniteField, low degree first, trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_encodings(cls, field, encs):
        return cls(field, tuple(field.element(e) for e in encs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def sort_key(self):
        return (self.degree, tuple(c.encoding for c in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, tuple(c.encoding for c in self.coeffs)))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        return FqPoly(self.field, merged)

    def __neg__(self):
        return FqPoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FFElement):
            return FqPoly(self.field, tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return FqPoly(self.field, ())
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
        return FqPoly(self.field, out)

    def __pow__(self, k: int):
        out = FqPoly(self.field, (self.field.one,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x: FFElement):
        acc = x.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, table, field):
        return FqPoly(field, tuple(table[c] for c in self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            enc = c.encoding
            if k == 0:
                parts.append(str(enc))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                parts.append(mono if enc == 1 else f"{enc}*{mono}")
        return "+".join(parts)


def irreducible_polys(field: FiniteField, a: int, scale_bound: int = 10**6):
    """All monic irreducible polynomials of degree a over ``field``,
    in ``FqPoly.sort_key`` order: coefficient encodings compared from
    the constant term up.  Includes x.

    They are the degree-a orbits of the Frobenius pass over GF(q^a)."""
    if field.order**a > scale_bound:
        raise ScaleLimit(f"irreducible_polys over GF({field.order}) at degree {a}")
    return _irreducibles(field, a)


@cache
def _irreducibles(field: FiniteField, a: int) -> tuple:
    q = field.order
    orbits = frobenius_orbits(field, finite_field(q**a))
    found = sorted(cs for cs in orbits if len(cs) == a + 1)  # low coefficient first
    out = tuple(FqPoly.from_encodings(field, cs) for cs in found)
    expected = sum(moebius(a // b) * q**b for b in divisors(a)) // a
    if len(out) != expected:
        raise AssertionFailure(
            f"found {len(out)} irreducibles of degree {a} over GF({q}), expected {expected}"
        )
    return out


def roots_in(poly: FqPoly, big: FiniteField) -> list[FFElement]:
    """Roots of ``poly`` (coeffs in a subfield of ``big``) inside big,
    in deterministic element order."""
    table = embedding(poly.field, big)
    lifted = poly.map_coeffs(table, big)
    return [t for t in big.elements() if not lifted(t)]


def _coset(k: int, q: int, units: int) -> list:
    """k, k q, k q^2, ... mod ``units`` up to the first return to k: the
    logs of the Frobenius orbit of g^k over the field of order q."""
    coset = [k]
    kq = k * q % units
    while kq != k:
        coset.append(kq)
        kq = kq * q % units
    return coset


def _coset_product(big: FiniteField, coset) -> list:
    """Encodings, low degree first, of prod (Y - g^i) over i in ``coset``."""
    exp, log = big.log_tables
    minus = big._sub
    coeffs = [1]
    for i in coset:
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            if c:
                shifted[d] = minus(shifted[d], exp[log[c] + i])
        coeffs = shifted
    return coeffs


def minimal_polynomial(t: FFElement, sub: FiniteField) -> FqPoly:
    """Minimal polynomial of t over the subfield ``sub``."""
    big = t.field
    back = inverse_embedding(sub, big)
    if not t:
        return FqPoly(sub, (sub.zero, sub.one))
    coset = _coset(big.log_tables[1][t.encoding], sub.order, big.order - 1)
    return FqPoly(sub, tuple(back[FFElement(big, c)] for c in _coset_product(big, coset)))


@cache
def frobenius_orbits(sub: FiniteField, big: FiniteField) -> dict:
    """Every monic irreducible over ``sub`` of degree dividing
    [big : sub], as the encodings of its coefficients (low degree first,
    leading 1 included), mapped to the encoding of its smallest root in
    ``big`` -- the root ``roots_in(poly, big)[0]`` returns.

    Computed on first use by one pass over ``big`` per subfield."""
    back = {x.encoding: y.encoding for x, y in inverse_embedding(sub, big).items()}
    degree = big.e // sub.e
    exp, log = big.log_tables
    visited = bytearray(big.order)
    table = {(0, 1): 0}  # zero is an orbit of its own, with minimal polynomial Y
    for enc in range(1, big.order):
        if visited[enc]:
            continue
        # enc is the smallest encoding in its orbit: all before it are visited
        coset = _coset(log[enc], sub.order, big.order - 1)
        if degree % len(coset):
            raise AssertionFailure(
                f"Frobenius orbit of {big.element(enc)!r} over {sub!r} has length"
                f" {len(coset)}, which does not divide {degree}"
            )
        for i in coset:
            visited[exp[i]] = 1
        table[tuple(back[c] for c in _coset_product(big, coset))] = enc
    return table


def smallest_root(poly: FqPoly, big: FiniteField) -> FFElement:
    """``roots_in(poly, big)[0]`` for a monic irreducible ``poly`` whose
    degree divides [big : poly.field], read from the Frobenius orbits."""
    enc = frobenius_orbits(poly.field, big).get(tuple(c.encoding for c in poly.coeffs))
    if enc is None:
        raise AssertionFailure(f"{poly!r} is not a monic irreducible with roots in {big!r}")
    return big.element(enc)


# ---------------------------------------------------------------------------
# ell-part decomposition and discrete logs
# ---------------------------------------------------------------------------


@cache
def _sylow(field: FiniteField, ell: int) -> tuple:
    """(eps_log, r, residues): eps = g^eps_log is the first element in
    encoding order of multiplicative order exactly l^r, l^r the
    ell-part of |F^x|, and ``residues[k mod l^r]`` is the exponent j
    that makes g^k eps^-j l-regular.

    g^k has order |F^x| / gcd(k, |F^x|), so eps is the first encoding
    whose log k has gcd(k, |F^x|) = |F^x| / l^r."""
    units = field.order - 1
    r = ord_int(units, ell) if units % ell == 0 else 0
    target = ell**r
    log = field.log_tables[1]
    eps_log = next(
        (log[enc] for enc in range(1, field.order) if gcd(log[enc], units) == units // target),
        None,
    )
    if eps_log is None:
        raise AssertionFailure(f"no element of order {target} in F_{field.order}")
    residues = [0] * target
    for j in range(target):
        residues[eps_log * j % target] = j
    return eps_log, r, tuple(residues)


def sylow_generator(field: FiniteField, ell: int):
    """(eps, r) of ``_sylow``: eps the first element in encoding order
    of multiplicative order exactly l^r, l^r the ell-part of |F^x|."""
    eps_log, r, _ = _sylow(field, ell)
    return FFElement(field, field.log_tables[0][eps_log]), r


def ell_part_and_dlog(t: FFElement, ell: int) -> int:
    """j such that the ell-part of t is eps^j for the deterministic
    Sylow generator eps of t's field, read off the log of t."""
    if not t:
        raise ZeroElement("ell-part of zero")
    field = t.field
    eps_log, _, residues = _sylow(field, ell)
    lr = len(residues)
    k = field.log_tables[1][t.encoding]
    j = residues[k % lr]
    # t = eps^j * t_reg with t_reg = g^(k - j log eps), whose order
    # |F^x| / gcd(k - j log eps, |F^x|) is prime to l exactly when l^r
    # divides k - j log eps
    if (k - j * eps_log) % lr:
        raise AssertionFailure(f"l-regular part of {t!r} has order divisible by {ell}")
    return j
