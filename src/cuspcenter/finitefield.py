"""Finite fields F_{p^e} with deterministic construction.

Each field is F_p[u] modulo one fixed monic irreducible per (p, e): the
first irreducible in integer-encoding order, where a monic polynomial
u^e + c_{e-1} u^{e-1} + ... + c_0 is encoded by sum(c_k p^k).  Elements
are coefficient tuples over F_p; their integer encoding gives the
deterministic enumeration order used for every "first element such
that" choice below (subfield embeddings, Sylow generators, roots).

Subfields embed by sending the small field's generator to the smallest
root of its modulus in the big field.  All such choices are pure
functions of (p, e), so independent runs agree.

Roots and irreducible polynomials come from Frobenius orbits: one lazy
pass over a big field per subfield (``frobenius_orbits``) walks the
elements in encoding order, follows each new element x through
x, x^q, x^(q^2), ... and records the orbit's product of (Y - x_i), the
minimal polynomial, against x, its smallest-encoding root.  So every
monic irreducible of degree dividing [big : sub] is found together with
the root ``roots_in(...)[0]`` would return; ``roots_in`` keeps its
brute-force evaluation as the tests' referee.
"""

from __future__ import annotations

from .arith import divisors, is_prime, moebius, ord_int, prime_power
from .errors import AssertionFailure, InvalidPrime, ScaleLimit, ZeroElement

# ---------------------------------------------------------------------------
# F_p[x] on plain integer tuples (low degree first), for modulus hunting
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
# fields and elements
# ---------------------------------------------------------------------------

_FIELDS: dict[tuple[int, int], "FiniteField"] = {}  # write-once registry


def finite_field(q: int) -> "FiniteField":
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    if pe not in _FIELDS:
        _FIELDS[pe] = FiniteField(p, e)
    return _FIELDS[pe]


class FiniteField:
    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise InvalidPrime(f"characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = smallest_irreducible(p, e)
        self.zero = FFElement(self, (0,) * e)
        self.one = FFElement(self, (1,) + (0,) * (e - 1))
        self._embeddings: dict[tuple[int, int], dict] = {}
        self._inverse_embeddings: dict[tuple[int, int], dict] = {}
        self._orbits: dict[tuple[int, int], dict] = {}
        self._irreducibles: dict[int, tuple] = {}
        self._sylow: dict[int, tuple] = {}
        self._sylow_powers: dict[int, tuple] = {}

    def element(self, encoding: int) -> "FFElement":
        return FFElement(self, _decode_poly(encoding, self.e, self.p))

    def from_coeffs(self, coeffs) -> "FFElement":
        cs = tuple(c % self.p for c in coeffs)
        if len(cs) != self.e:
            raise ValueError(f"{len(cs)} coefficients for a degree-{self.e} field")
        return FFElement(self, cs)

    def elements(self):
        for enc in range(self.order):
            yield self.element(enc)

    def units(self):
        for enc in range(1, self.order):
            yield self.element(enc)

    def __repr__(self):
        return f"GF({self.order})"


class FFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @property
    def encoding(self) -> int:
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.field.p + c
        return enc

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __lt__(self, other):
        if self.field is not other.field:
            raise TypeError("elements of different fields")
        return self.encoding < other.encoding

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_coeffs((other,) + (0,) * (self.field.e - 1))
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_coeffs((other,) + (0,) * (self.field.e - 1))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            s = other % self.field.p
            return FFElement(self.field, tuple(a * s % self.field.p for a in self.coeffs))
        if self.field is not other.field:
            raise TypeError("elements of different fields")
        f = self.field
        prod = _pp_mulmod(_pp_trim(self.coeffs), _pp_trim(other.coeffs), f.modulus, f.p)
        return f.from_coeffs(prod + (0,) * (f.e - len(prod)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = self.field.one, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FFElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def __repr__(self):
        return f"{self.field!r}:{self.encoding}"


# ---------------------------------------------------------------------------
# embeddings between fields of the same characteristic
# ---------------------------------------------------------------------------


def embedding(src: FiniteField, dst: FiniteField) -> dict:
    """The deterministic field embedding src -> dst as a lookup dict.

    Sends the source generator to the smallest root of the source
    modulus in dst.  Requires src.e | dst.e.
    """
    key = (src.p, src.e)
    if key in dst._embeddings:
        return dst._embeddings[key]
    if src.p != dst.p or dst.e % src.e:
        raise AssertionFailure(f"{src!r} is not a subfield of {dst!r}")
    if src is dst:
        table = {x: x for x in src.elements()}
        dst._embeddings[key] = table
        return table
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
    dst._embeddings[key] = table
    return table


def inverse_embedding(src: FiniteField, dst: FiniteField) -> dict:
    """The inverse of ``embedding(src, dst)``, defined on its image."""
    key = (src.p, src.e)
    if key not in dst._inverse_embeddings:
        dst._inverse_embeddings[key] = {v: k for k, v in embedding(src, dst).items()}
    return dst._inverse_embeddings[key]


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
    in deterministic (coefficient-encoding) order.  Includes x.

    They are the degree-a orbits of the Frobenius pass over GF(q^a)."""
    q = field.order
    if q**a > scale_bound:
        raise ScaleLimit(f"irreducible_polys over GF({q}) at degree {a}")
    if a in field._irreducibles:
        return field._irreducibles[a]
    orbits = frobenius_orbits(field, finite_field(q**a))
    # monic of one degree: encoding order is lexicographic from the top
    found = sorted((cs for cs in orbits if len(cs) == a + 1), key=lambda cs: cs[::-1])
    out = tuple(FqPoly.from_encodings(field, cs) for cs in found)
    expected = sum(moebius(a // b) * q**b for b in divisors(a)) // a
    if len(out) != expected:
        raise AssertionFailure(
            f"found {len(out)} irreducibles of degree {a} over GF({q}), expected {expected}"
        )
    field._irreducibles[a] = out
    return out


def roots_in(poly: FqPoly, big: FiniteField) -> list[FFElement]:
    """Roots of ``poly`` (coeffs in a subfield of ``big``) inside big,
    in deterministic element order."""
    table = embedding(poly.field, big)
    lifted = poly.map_coeffs(table, big)
    return [t for t in big.elements() if not lifted(t)]


def _frobenius_orbit(x: FFElement, q: int) -> list:
    """x, x^q, x^(q^2), ... up to the first return to x."""
    orbit = [x]
    y = x**q
    while y != x:
        orbit.append(y)
        y = y**q
    return orbit


def _orbit_product(orbit, big: FiniteField) -> list:
    """Coefficients in ``big``, low degree first, of prod (Y - x) over
    the orbit."""
    coeffs = [big.one]
    for root in orbit:
        shifted = [big.zero] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] = shifted[k] - root * c
        coeffs = shifted
    return coeffs


def minimal_polynomial(t: FFElement, sub: FiniteField) -> FqPoly:
    """Minimal polynomial of t over the subfield ``sub``."""
    back = inverse_embedding(sub, t.field)
    orbit = _frobenius_orbit(t, sub.order)
    return FqPoly(sub, tuple(back[c] for c in _orbit_product(orbit, t.field)))


def frobenius_orbits(sub: FiniteField, big: FiniteField) -> dict:
    """Every monic irreducible over ``sub`` of degree dividing
    [big : sub], as the encodings of its coefficients (low degree first,
    leading 1 included), mapped to the encoding of its smallest root in
    ``big`` -- the root ``roots_in(poly, big)[0]`` returns.

    Computed on first use by one pass over ``big`` and kept on ``big``
    per subfield."""
    key = (sub.p, sub.e)
    if key not in big._orbits:
        big._orbits[key] = _orbit_pass(sub, big)
    return big._orbits[key]


def _orbit_pass(sub: FiniteField, big: FiniteField) -> dict:
    back = inverse_embedding(sub, big)
    degree = big.e // sub.e
    visited = bytearray(big.order)
    table = {}
    for enc in range(big.order):
        if visited[enc]:
            continue
        # enc is the smallest encoding in its orbit: all before it are visited
        orbit = _frobenius_orbit(big.element(enc), sub.order)
        if degree % len(orbit):
            raise AssertionFailure(
                f"Frobenius orbit of {orbit[0]!r} over {sub!r} has length {len(orbit)},"
                f" which does not divide {degree}"
            )
        for y in orbit:
            visited[y.encoding] = 1
        table[tuple(back[c].encoding for c in _orbit_product(orbit, big))] = enc
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


def sylow_generator(field: FiniteField, ell: int):
    """(eps, r, dlog) where eps is the first element in encoding order
    of multiplicative order exactly l^r, l^r the ell-part of |F^x|, and
    dlog maps each l-power-order element to its exponent on eps.  The
    power table (eps^0, ..., eps^(l^r - 1)) is kept next to it in
    ``field._sylow_powers``."""
    if ell in field._sylow:
        return field._sylow[ell]
    n = field.order - 1
    r = ord_int(n, ell) if n % ell == 0 else 0
    target = ell**r
    eps = None
    for t in field.units():
        # t^(l^r) = 1 with t^(l^(r-1)) != 1 is order exactly l^r
        if t**target == field.one and (r == 0 or t ** (target // ell) != field.one):
            eps = t
            break
    if eps is None:
        raise AssertionFailure(f"no element of order {target} in F_{field.order}")
    powers = [field.one]
    for _ in range(target - 1):
        powers.append(powers[-1] * eps)
    field._sylow[ell] = (eps, r, {x: k for k, x in enumerate(powers)})
    field._sylow_powers[ell] = tuple(powers)
    return field._sylow[ell]


def ell_part_and_dlog(t: FFElement, ell: int) -> int:
    """j such that the ell-part of t is eps^j for the deterministic
    Sylow generator eps of t's field."""
    if not t:
        raise ZeroElement("ell-part of zero")
    field = t.field
    _, r, dlog = sylow_generator(field, ell)
    powers = field._sylow_powers[ell]
    n = field.order - 1
    lr = ell**r
    m = n // lr
    # 1 = alpha*l^r + beta*m, so t = t^(alpha*l^r) * t^(beta*m) and the
    # ell-part is t^(beta*m) = u^beta with u = t^m
    u = t**m
    beta = pow(m, -1, lr) if lr > 1 else 0
    j = dlog[u**beta]
    # t = eps^j * t_reg with t_reg^m = 1 exactly when u = eps^(j*m)
    if u != powers[j * m % lr]:
        raise AssertionFailure(f"l-regular part of {t!r} has order divisible by {ell}")
    return j
