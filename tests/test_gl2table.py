"""Full GL_2 character tables over tiny fields, checked against sympy's
cyclotomic polynomials, classical orthogonality, and the block engine's
delta vectors.

The orthogonality checks run as dense integer Gram sums; their referee
here is the same check summed pair by pair in ``RootSum`` arithmetic.
The delta check compares integer root sums, each side cleared of its
denominator; its referee is the same check on ``Fraction`` coefficients."""

from fractions import Fraction

import pytest
import sympy

from cuspcenter.centermap import BlockVector, block_slots, delta_class
from cuspcenter.classes import enumerate_classes
from cuspcenter.errors import AssertionFailure
from cuspcenter.finitefield import finite_field
from cuspcenter.gl2table import (
    GL2Character,
    RootSum,
    cyclotomic_polynomial,
    delta_equivalence_check,
    embed_block_entry,
    gl2_character_table,
    steinberg_cross_check,
    block_slot_rows,
    delta_from_table,
    verify_column_orthogonality,
    verify_row_orthogonality,
)
from cuspcenter.invariants import orbit_structure
from cuspcenter.params import validate_parameters


# ---------------------------------------------------------------------------
# referee: orthogonality summed in RootSum arithmetic
# ---------------------------------------------------------------------------


def _conjugate(value):
    m = value.modulus
    return RootSum(m, {(-e) % m: c for e, c in value.coeffs.items()})


def referee_row_orthogonality(table):
    rows = table.characters
    checked = 0
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            acc = RootSum.zero(table.modulus)
            for cls, a, b in zip(table.classes, rows[i].values, rows[j].values):
                acc = acc + cls.size * (a * _conjugate(b))
            target = table.group_order if i == j else 0
            if not (acc == target):
                raise AssertionFailure(
                    f"row orthogonality fails at ({rows[i].label}, {rows[j].label})"
                )
            checked += 1
    return checked


def referee_column_orthogonality(table):
    cols = list(zip(*(ch.values for ch in table.characters)))
    checked = 0
    for i in range(len(cols)):
        for j in range(i, len(cols)):
            acc = RootSum.zero(table.modulus)
            for a, b in zip(cols[i], cols[j]):
                acc = acc + a * _conjugate(b)
            if i == j:
                target = table.group_order // table.classes[i].size
            else:
                target = 0
            if not (acc == target):
                raise AssertionFailure(
                    f"column orthogonality fails at "
                    f"({table.classes[i].label}, {table.classes[j].label})"
                )
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# referee: the delta entries and their check on Fractions
# ---------------------------------------------------------------------------


def referee_delta_from_table(table, ps):
    """Class type -> tuple of RootSum delta entries (one per slot), each
    |C| * chi(C) / dim on ``Fraction``s."""
    rows = block_slot_rows(table, ps)
    out = {}
    for idx, cls in enumerate(table.classes):
        entries = []
        for slot in orbit_structure(ps).reps:
            ch = table.characters[rows[slot]]
            entries.append(Fraction(cls.size, ch.dim) * ch.values[idx])
        out[cls.ctype] = tuple(entries)
    return out


def referee_delta_equivalence_check(table, ps, formula_deltas):
    checked = 0
    for ct, tvals in referee_delta_from_table(table, ps).items():
        fvec = formula_deltas[ct]
        for slot_idx, tval in enumerate(tvals):
            value = fvec.entries[slot_idx]
            step = table.modulus // value.ell**value.level
            fval = RootSum(table.modulus, {e * step: c for e, c in enumerate(value.coeffs)})
            if not ((tval - fval).is_zero()):
                raise AssertionFailure(
                    f"delta mismatch on {ct.label()} slot {fvec.reps[slot_idx]}",
                    witness={"table": repr(tval), "engine": repr(fval)},
                )
            checked += 1
    return checked


def _formula_deltas(q, ell):
    ps = validate_parameters(q, ell, 2)
    return ps, {ct: delta_class(ct, ps) for ct in enumerate_classes(finite_field(q), 2)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 9, 12, 15, 63])
def test_cyclotomic_polynomial_against_sympy(m):
    ours = cyclotomic_polynomial(m)
    x = sympy.Symbol("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
    assert list(ours) == [int(c) for c in theirs]


def test_rootsum_algebra():
    # zeta_3 + zeta_3^2 = -1 inside Z[x]/(x^3 - 1), tested mod Phi_3
    z1 = RootSum.root(3, 1)
    z2 = RootSum.root(3, 2)
    assert z1 + z2 == -1
    assert z1 * z2 == 1
    assert (z1 - z1).is_zero()
    # full cycle sums to zero for m = 4: 1 + i - 1 - i
    total = RootSum.zero(4)
    for e in range(4):
        total = total + RootSum.root(4, e)
    assert total == 0
    # conjugation is exponent negation
    assert _conjugate(RootSum.root(8, 3)) == RootSum.root(8, 5)
    # scalar multiple
    assert RootSum.root(3, 0, 5) == 5


def test_s3_table():
    # GL_2(F_2) = S_3: rows are trivial, Steinberg (=standard), cuspidal
    # (=sign), against classes ordered central, unipotent, elliptic
    table = gl2_character_table(2)
    assert table.group_order == 6
    assert len(table.classes) == 3
    assert [c.kind for c in table.classes] == ["central", "unipotent", "elliptic"]
    assert [c.size for c in table.classes] == [1, 3, 2]
    rows = {}
    for ch in table.characters:
        rows[ch.label] = [v.canonical() for v in ch.values]

    def constants(label):
        out = []
        for v in rows[label]:
            assert all(c == 0 for c in v[1:])
            out.append(v[0])
        return out

    assert constants("det^0") == [1, 1, 1]
    assert constants("steinberg*det^0") == [2, 0, -1]
    assert constants("cuspidal:1") == [1, -1, 1]


@pytest.mark.parametrize("q", [2, 4, 8])
def test_orthogonality(q):
    table = gl2_character_table(q)
    k = len(table.classes)
    assert verify_row_orthogonality(table) == k * (k + 1) // 2
    assert verify_column_orthogonality(table) == k * (k + 1) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_orthogonality_matches_referee(q):
    table = gl2_character_table(q)
    assert verify_row_orthogonality(table) == referee_row_orthogonality(table)
    assert verify_column_orthogonality(table) == referee_column_orthogonality(table)


def _with_one_cuspidal_value_negated(table):
    row = table.cuspidal_rows[min(table.cuspidal_rows)]
    ch = table.characters[row]
    k = next(k for k, cls in enumerate(table.classes) if cls.kind == "unipotent")
    values = ch.values[:k] + (-ch.values[k],) + ch.values[k + 1 :]
    characters = list(table.characters)
    characters[row] = GL2Character(ch.label, ch.family, ch.dim, values)
    return table._replace(characters=tuple(characters))


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize(
    "check,referee",
    [
        (verify_row_orthogonality, referee_row_orthogonality),
        (verify_column_orthogonality, referee_column_orthogonality),
    ],
)
def test_negated_cuspidal_value_fails_both_paths_alike(q, check, referee):
    table = _with_one_cuspidal_value_negated(gl2_character_table(q))
    with pytest.raises(AssertionFailure) as ours:
        check(table)
    with pytest.raises(AssertionFailure) as theirs:
        referee(table)
    assert "orthogonality fails at" in str(ours.value)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_steinberg_cross_check(q):
    table = gl2_character_table(q)
    assert steinberg_cross_check(table) == len(table.classes)


def test_table_shape_q4():
    table = gl2_character_table(4)
    assert table.group_order == 180
    assert len(table.classes) == 15
    from collections import Counter

    fam = Counter(ch.family for ch in table.characters)
    assert fam == {"det": 3, "steinberg": 3, "principal": 3, "cuspidal": 6}
    assert sum(ch.dim**2 for ch in table.characters) == 180


def test_block_slot_rows_p1():
    ps = validate_parameters(2, 3, 2)
    table = gl2_character_table(2)
    rows = block_slot_rows(table, ps)
    assert set(rows) == {0, 1}
    assert table.characters[rows[0]].label == "steinberg*det^0"
    assert table.characters[rows[1]].label == "cuspidal:1"


def test_block_slot_rows_rejects_mismatch():
    ps = validate_parameters(2, 7, 3)
    table = gl2_character_table(2)
    with pytest.raises(AssertionFailure):
        block_slot_rows(table, ps)


@pytest.mark.parametrize("q,ell", [(2, 3), (4, 5), (8, 3)])
def test_delta_equivalence(q, ell):
    ps = validate_parameters(q, ell, 2)
    table = gl2_character_table(q)
    reps = block_slots(ps)
    formula = {
        ct: delta_class(ct, ps) for ct in enumerate_classes(finite_field(q), 2)
    }
    checked = delta_equivalence_check(table, ps, formula)
    assert checked == len(formula) * len(reps)


@pytest.mark.parametrize("q,ell", [(2, 3), (4, 5), (8, 3)])
def test_delta_entries_match_the_fraction_referee(q, ell):
    ps, formula = _formula_deltas(q, ell)
    table = gl2_character_table(q)
    ours = delta_from_table(table, ps)
    theirs = referee_delta_from_table(table, ps)
    assert list(ours) == list(theirs)
    for ct, entries in ours.items():
        assert len(entries) == len(theirs[ct])
        for (num, dim), value in zip(entries, theirs[ct]):
            assert {e: Fraction(c, dim) for e, c in num.coeffs.items()} == value.coeffs
    assert delta_equivalence_check(table, ps, formula) == referee_delta_equivalence_check(
        table, ps, formula
    )


def _with_one_engine_entry_negated(formula, ct, slot_idx):
    vec = formula[ct]
    entries = [-e if k == slot_idx else e for k, e in enumerate(vec.entries)]
    return {**formula, ct: BlockVector(vec.ell, vec.r, vec.reps, entries)}


def _with_one_table_value_negated(table, ps, ct, slot_idx):
    row = block_slot_rows(table, ps)[orbit_structure(ps).reps[slot_idx]]
    ch = table.characters[row]
    k = next(k for k, cls in enumerate(table.classes) if cls.ctype == ct)
    values = ch.values[:k] + (-ch.values[k],) + ch.values[k + 1 :]
    characters = list(table.characters)
    characters[row] = GL2Character(ch.label, ch.family, ch.dim, values)
    return table._replace(characters=tuple(characters))


# (class kind, slot index) of the tampered entry at (q, l) = (4, 5), and
# the failure it raises: the message and the witness both sides print
DELTA_TAMPERS = {
    "engine": (
        "unipotent",
        1,
        "delta mismatch on x+1:(2) slot 1",
        {"table": "-5*z^0", "engine": "5*z^0"},
    ),
    "table": (
        "elliptic",
        2,
        "delta mismatch on x^2+x+2:(1) slot 2",
        {"table": "4*z^3 + 4*z^12", "engine": "4*z^0 + 4*z^6 + 4*z^9"},
    ),
}


@pytest.mark.parametrize("side", sorted(DELTA_TAMPERS))
def test_delta_check_catches_one_negated_entry(side):
    kind, slot_idx, message, witness = DELTA_TAMPERS[side]
    ps, formula = _formula_deltas(4, 5)
    table = gl2_character_table(4)
    ct = next(cls.ctype for cls in table.classes if cls.kind == kind)
    if side == "engine":
        formula = _with_one_engine_entry_negated(formula, ct, slot_idx)
    else:
        table = _with_one_table_value_negated(table, ps, ct, slot_idx)
    with pytest.raises(AssertionFailure) as ours:
        delta_equivalence_check(table, ps, formula)
    with pytest.raises(AssertionFailure) as theirs:
        referee_delta_equivalence_check(table, ps, formula)
    assert str(ours.value) == str(theirs.value) == message
    assert ours.value.witness == theirs.value.witness == witness


def test_embed_block_entry():
    from cuspcenter.cyclotomic import zeta

    v = zeta(3, 1) + 2  # element of Q(zeta_3)
    image, den = embed_block_entry(v, 63)
    expected = RootSum.root(63, 21) + RootSum.root(63, 0, 2)
    assert den == 1
    assert (image - expected).is_zero()
    image, den = embed_block_entry(v * Fraction(1, 4) + Fraction(1, 2), 63)
    assert den == 4
    assert (image - expected - RootSum.root(63, 0, 2)).is_zero()
    with pytest.raises(AssertionFailure):
        embed_block_entry(v, 64)


def test_repr_over_prints_the_fraction_coefficients():
    value = RootSum(12, {1: 3, 2: -4, 5: 6})
    fractions = {e: Fraction(c, 4) for e, c in value.coeffs.items()}
    assert value.repr_over(4) == repr(RootSum(12, fractions)) == "3/4*z^1 + -1*z^2 + 3/2*z^5"
    assert value.repr_over(1) == repr(value)
    assert RootSum.zero(12).repr_over(3) == "0"


def test_fraction_scalars_in_rootsum():
    half = RootSum.root(5, 1, Fraction(1, 2))
    assert half + half == RootSum.root(5, 1)
