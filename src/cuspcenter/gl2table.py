"""Classical character table of GL_2(F_q) as an independent oracle.

Everything here is built from the textbook description of the four
class families (central, non-semisimple, split semisimple, anisotropic
semisimple) and the four character families (determinant twists of the
trivial character, Steinberg twists, principal series, cuspidal).  No
code path below depends on the block machinery, so the table can
referee it: a cuspidal block of GL_2 must reproduce its delta vectors
from the matching table rows.

Values live in Q(zeta_m), m = q^2 - 1, encoded as formal sums of roots
of unity; equality is decided exactly by reduction modulo the m-th
cyclotomic polynomial.  The orthogonality checks gather each pair's
Gram sum on one dense integer list indexed by exponent mod m and reduce
it once, and the delta check compares integer root sums, each side
cleared of its denominator.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .arith import divisors, ratio_str
from .classes import make_class_type
from .characters import steinberg_value_raw
from .errors import AssertionFailure
from .finitefield import (
    FqPoly,
    embedding,
    finite_field,
    minimal_polynomial,
    prime_power,
    sylow_generator,
)
from .invariants import orbit_structure
from .params import ParameterSet, require_reduced


def _poly_div_exact(num: list, den: tuple) -> list:
    """Exact long division of integer polynomials, monic divisor."""
    if den[-1] != 1:
        raise AssertionFailure("cyclotomic divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for k, dc in enumerate(den):
                rem[i - dd + k] -= c * dc
    if any(rem):
        raise AssertionFailure("inexact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _cyclotomic_remainder(rem: list, m: int) -> tuple:
    """Remainder modulo the m-th cyclotomic polynomial of the dense
    integer list ``rem``, coefficient e at exponent e < m.  ``rem`` is
    reduced in place."""
    phi = cyclotomic_polynomial(m)
    dd = len(phi) - 1
    terms = [(k - dd, dc) for k, dc in enumerate(phi) if dc]
    for i in range(m - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for k, dc in terms:
                rem[i + k] -= c * dc
    return tuple(rem[:dd])


class RootSum:
    """Formal Z (or Q) linear combination of m-th roots of unity."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: dict):
        self.modulus = modulus
        self.coeffs = {e % modulus: c for e, c in coeffs.items() if c}

    @classmethod
    def root(cls, modulus: int, exponent: int, scale=1) -> "RootSum":
        return cls(modulus, {exponent % modulus: scale})

    @classmethod
    def zero(cls, modulus: int) -> "RootSum":
        return cls(modulus, {})

    def __add__(self, other: "RootSum") -> "RootSum":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return RootSum(self.modulus, out)

    def __sub__(self, other: "RootSum") -> "RootSum":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return RootSum(self.modulus, out)

    def __neg__(self) -> "RootSum":
        return RootSum(self.modulus, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "RootSum":
        if isinstance(other, RootSum):
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = (e1 + e2) % self.modulus
                    out[e] = out.get(e, 0) + c1 * c2
            return RootSum(self.modulus, out)
        return RootSum(self.modulus, {e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def canonical(self) -> tuple:
        """Remainder modulo the m-th cyclotomic polynomial; two sums are
        equal as algebraic numbers iff their canonical forms agree."""
        rem = [0] * self.modulus
        for e, c in self.coeffs.items():
            rem[e] += c
        return _cyclotomic_remainder(rem, self.modulus)

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def __eq__(self, other) -> bool:
        if isinstance(other, RootSum):
            if self.modulus != other.modulus:
                return NotImplemented
            return (self - other).is_zero()
        if hasattr(other, "denominator"):  # an int or a Fraction
            return (self - RootSum.root(self.modulus, 0, other)).is_zero()
        return NotImplemented

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{c}*z^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(parts)

    def repr_over(self, den: int) -> str:
        """The repr of self / den for integer coefficients: each one in
        lowest terms, as a ``Fraction`` prints."""
        if not self.coeffs:
            return "0"
        return " + ".join(f"{ratio_str(c, den)}*z^{e}" for e, c in sorted(self.coeffs.items()))


class GL2Class(namedtuple("GL2Class", "label kind ctype size")):
    """A class of GL_2(F_q); ``kind`` is central, unipotent, split or
    elliptic."""

    __slots__ = ()


class GL2Character(namedtuple("GL2Character", "label family dim values")):
    """An irreducible character of GL_2(F_q); ``family`` is det,
    steinberg, principal or cuspidal."""

    __slots__ = ()


class GL2Table(
    namedtuple(
        "GL2Table",
        "q modulus group_order classes characters dlog steinberg_rows cuspidal_rows",
    )
):
    """The character table of GL_2(F_q): ``dlog`` maps an element of
    F_{q^2}^x to the exponent of the generator, ``steinberg_rows`` a
    twist index u to its row index, and ``cuspidal_rows`` an orbit
    representative u to its row index."""

    __slots__ = ()


def _root(m, e, scale=1):
    return RootSum.root(m, e, scale)


def gl2_character_table(q: int) -> GL2Table:
    if prime_power(q) is None:
        raise AssertionFailure(f"{q} is not a prime power")
    p = prime_power(q)[0]
    field = finite_field(q)
    big = finite_field(q * q)
    emb = embedding(field, big)
    m = q * q - 1

    gen = None
    for t in sorted(big.units()):
        # order exactly m: no proper divisor d of m has t^d = 1
        if all(t**d != big.one for d in divisors(m)[:-1]):
            gen = t
            break
    dlog = {}
    acc = big.one
    for k in range(m):
        dlog[acc] = k
        acc = acc * gen

    x = FqPoly(field, (field.zero, field.one))
    classes = []
    units_sorted = sorted(field.units())
    for z in units_sorted:
        ct = make_class_type([(x - FqPoly(field, (z,)), (1, 1))], 2)
        classes.append(GL2Class(f"central:{z.encoding}", "central", ct, 1))
    for z in units_sorted:
        ct = make_class_type([(x - FqPoly(field, (z,)), (2,))], 2)
        classes.append(GL2Class(f"unipotent:{z.encoding}", "unipotent", ct, q * q - 1))
    for i, z in enumerate(units_sorted):
        for w in units_sorted[i + 1 :]:
            ct = make_class_type(
                [(x - FqPoly(field, (z,)), (1,)), (x - FqPoly(field, (w,)), (1,))], 2
            )
            classes.append(
                GL2Class(f"split:{z.encoding},{w.encoding}", "split", ct, q * (q + 1))
            )
    seen = set()
    for t in sorted(big.units()):
        if t in seen:
            continue
        frob = t**q
        if frob == t:
            seen.add(t)
            continue
        seen.add(t)
        seen.add(frob)
        ct = make_class_type([(minimal_polynomial(t, field), (1,))], 2)
        classes.append(GL2Class(f"elliptic:{t.encoding}", "elliptic", ct, q * (q - 1)))

    group_order = (q * q - 1) * (q * q - q)
    if sum(c.size for c in classes) != group_order:
        raise AssertionFailure("class sizes do not sum to the group order")

    # per-class dlog data for evaluating multiplicative characters
    def kdata(cls: GL2Class):
        if cls.kind in ("central", "unipotent"):
            z = -cls.ctype.factors[0][0].coeffs[0]
            return (dlog[emb[z]],)
        if cls.kind == "split":
            (pz, _), (pw, _) = cls.ctype.factors
            return (dlog[emb[-pz.coeffs[0]]], dlog[emb[-pw.coeffs[0]]])
        enc = int(cls.label.split(":")[1])
        return (dlog[big.element(enc)],)

    kcache = [kdata(c) for c in classes]

    characters = []
    steinberg_rows = {}
    cuspidal_rows = {}

    for u in range(q - 1):
        vals = []
        for cls, ks in zip(classes, kcache):
            if cls.kind in ("central", "unipotent"):
                vals.append(_root(m, 2 * u * ks[0]))
            elif cls.kind == "split":
                vals.append(_root(m, u * (ks[0] + ks[1])))
            else:
                vals.append(_root(m, u * (q + 1) * ks[0]))
        characters.append(GL2Character(f"det^{u}", "det", 1, tuple(vals)))

    for u in range(q - 1):
        vals = []
        for cls, ks in zip(classes, kcache):
            if cls.kind == "central":
                vals.append(_root(m, 2 * u * ks[0], q))
            elif cls.kind == "unipotent":
                vals.append(RootSum.zero(m))
            elif cls.kind == "split":
                vals.append(_root(m, u * (ks[0] + ks[1])))
            else:
                vals.append(-_root(m, u * (q + 1) * ks[0]))
        steinberg_rows[u] = len(characters)
        characters.append(GL2Character(f"steinberg*det^{u}", "steinberg", q, tuple(vals)))

    for u in range(q - 1):
        for v in range(u + 1, q - 1):
            vals = []
            for cls, ks in zip(classes, kcache):
                if cls.kind == "central":
                    vals.append(_root(m, (u + v) * ks[0], q + 1))
                elif cls.kind == "unipotent":
                    vals.append(_root(m, (u + v) * ks[0]))
                elif cls.kind == "split":
                    vals.append(
                        _root(m, u * ks[0] + v * ks[1]) + _root(m, u * ks[1] + v * ks[0])
                    )
                else:
                    vals.append(RootSum.zero(m))
            characters.append(
                GL2Character(f"principal:{u},{v}", "principal", q + 1, tuple(vals))
            )

    reps = sorted({min(u, (u * q) % m) for u in range(1, m) if u % (q + 1)})
    for u in reps:
        vals = []
        for cls, ks in zip(classes, kcache):
            if cls.kind == "central":
                vals.append(_root(m, u * ks[0], q - 1))
            elif cls.kind == "unipotent":
                vals.append(-_root(m, u * ks[0]))
            elif cls.kind == "split":
                vals.append(RootSum.zero(m))
            else:
                vals.append(-(_root(m, u * ks[0]) + _root(m, u * q * ks[0])))
        cuspidal_rows[u] = len(characters)
        characters.append(GL2Character(f"cuspidal:{u}", "cuspidal", q - 1, tuple(vals)))

    if len(characters) != len(classes):
        raise AssertionFailure(
            f"{len(characters)} characters vs {len(classes)} classes"
        )
    if sum(ch.dim**2 for ch in characters) != group_order:
        raise AssertionFailure("sum of squared dimensions misses the group order")

    return GL2Table(
        q=q,
        modulus=m,
        group_order=group_order,
        classes=tuple(classes),
        characters=tuple(characters),
        dlog=dlog,
        steinberg_rows=steinberg_rows,
        cuspidal_rows=cuspidal_rows,
    )


def _gram_sum(m: int, weights, xs, ys) -> list:
    """sum_k w_k x_k conj(y_k) on one dense list indexed by exponent mod
    m, where x_k and y_k are given by their (exponent, coefficient)
    items: zeta^e1 conj(zeta^e2) = zeta^(e1 - e2)."""
    acc = [0] * m
    for w, x, y in zip(weights, xs, ys):
        for e1, c1 in x:
            for e2, c2 in y:
                acc[(e1 - e2) % m] += w * c1 * c2
    return acc


def _equals(acc: list, m: int, target: int) -> bool:
    """Whether the dense sum ``acc`` equals the integer ``target``;
    ``acc`` is reduced in place."""
    acc[0] -= target
    return not any(_cyclotomic_remainder(acc, m))


def _items(values) -> list:
    return [tuple(v.coeffs.items()) for v in values]


def verify_row_orthogonality(table: GL2Table) -> int:
    """<chi_i, chi_j> = delta_ij, checked exactly for all pairs, each as
    one dense Gram sum reduced once modulo the cyclotomic polynomial."""
    m = table.modulus
    rows = table.characters
    sizes = [cls.size for cls in table.classes]
    items = [_items(ch.values) for ch in rows]
    checked = 0
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            target = table.group_order if i == j else 0
            if not _equals(_gram_sum(m, sizes, items[i], items[j]), m, target):
                raise AssertionFailure(
                    f"row orthogonality fails at ({rows[i].label}, {rows[j].label})"
                )
            checked += 1
    return checked


def verify_column_orthogonality(table: GL2Table) -> int:
    """Sum over characters of chi(C) conj(chi(C')) = delta_{C,C'} |centralizer|,
    each pair as one dense Gram sum like the rows."""
    m = table.modulus
    items = [_items(col) for col in zip(*(ch.values for ch in table.characters))]
    ones = [1] * len(table.characters)
    checked = 0
    for i in range(len(items)):
        for j in range(i, len(items)):
            if i == j:
                target = table.group_order // table.classes[i].size
            else:
                target = 0
            if not _equals(_gram_sum(m, ones, items[i], items[j]), m, target):
                raise AssertionFailure(
                    f"column orthogonality fails at "
                    f"({table.classes[i].label}, {table.classes[j].label})"
                )
            checked += 1
    return checked


def steinberg_cross_check(table: GL2Table) -> int:
    """The untwisted Steinberg row must match the closed-form value
    (sign times p-part of the centralizer) on every class."""
    p = prime_power(table.q)[0]
    row = table.characters[table.steinberg_rows[0]]
    checked = 0
    for cls, val in zip(table.classes, row.values):
        expected = steinberg_value_raw(cls.ctype, p, 2)
        if not (val == expected):
            raise AssertionFailure(
                f"Steinberg value mismatch on {cls.label}",
                witness={"table": repr(val), "formula": expected},
            )
        checked += 1
    return checked


def block_slot_rows(table: GL2Table, ps: ParameterSet) -> dict:
    """Map each block slot to its table row.

    Slot 0 is the untwisted Steinberg row.  For a nonzero slot i the
    matching cuspidal character is theta^(u0*i) where theta^(u0) is the
    character sending the canonical Sylow generator to the canonical
    embedded root of unity; u0 is solved from the generator's discrete
    log in the table."""
    ps = require_reduced(ps)
    if ps.n != 2 or ps.q != table.q:
        raise AssertionFailure("table/parameter mismatch")
    big = finite_field(ps.q**2)
    eps, r = sylow_generator(big, ps.ell)
    if r != ps.r:
        raise AssertionFailure("Sylow depth mismatch between field and parameters")
    lr = ps.ell_power
    m = table.modulus
    big_m = m // lr
    c_big = table.dlog[eps]
    if c_big % big_m:
        raise AssertionFailure("Sylow generator dlog not divisible by m/l^r")
    c = c_big // big_m
    if gcd(c, ps.ell) != 1:
        raise AssertionFailure("Sylow generator dlog has l in it")
    v = pow(big_m * c, -1, lr)
    u0 = big_m * v
    if (u0 * c_big) % m != big_m % m:
        raise AssertionFailure("slot-identification exponent fails its defining identity")

    orbits = orbit_structure(ps)
    rows = {0: table.steinberg_rows[0]}
    for i in orbits.reps[1:]:
        u = (u0 * i) % m
        rep = min(u, (u * table.q) % m)
        rows[i] = table.cuspidal_rows[rep]
    return rows


def delta_from_table(table: GL2Table, ps: ParameterSet) -> dict:
    """Class type -> one pair (|C| * chi(C), dim) per slot, the integer
    root sum and the denominator of the delta entry |C| * chi(C) / dim,
    computed purely from the table."""
    rows = block_slot_rows(table, ps)
    slot_rows = [table.characters[rows[slot]] for slot in orbit_structure(ps).reps]
    return {
        cls.ctype: tuple((cls.size * ch.values[idx], ch.dim) for ch in slot_rows)
        for idx, cls in enumerate(table.classes)
    }


def embed_block_entry(value, modulus: int) -> tuple:
    """Image of a Q(zeta_{l^r}) element inside Q(zeta_m), l^r | m, as
    the pair (integer root sum, den) of its numerators and common
    denominator."""
    lr = value.ell**value.level
    if modulus % lr:
        raise AssertionFailure("no embedding: level does not divide the table modulus")
    step = modulus // lr
    return RootSum(modulus, {e * step: c for e, c in enumerate(value.nums) if c}), value.den


def delta_equivalence_check(table: GL2Table, ps: ParameterSet, formula_deltas: dict) -> int:
    """formula_deltas: class type -> block vector computed by the block
    engine.  Every entry must agree with the table-derived value:
    |C| chi(C) / dim = nums / den, compared as |C| chi(C) den = dim nums."""
    table_deltas = delta_from_table(table, ps)
    if set(table_deltas) != set(formula_deltas):
        raise AssertionFailure("class inventories disagree between table and engine")
    checked = 0
    for ct, tvals in table_deltas.items():
        fvec = formula_deltas[ct]
        for slot_idx, (tnum, dim) in enumerate(tvals):
            fnum, den = embed_block_entry(fvec.entries[slot_idx], table.modulus)
            if not (tnum * den - fnum * dim).is_zero():
                raise AssertionFailure(
                    f"delta mismatch on {ct.label()} slot {fvec.reps[slot_idx]}",
                    witness={"table": tnum.repr_over(dim), "engine": fnum.repr_over(den)},
                )
            checked += 1
    return checked
