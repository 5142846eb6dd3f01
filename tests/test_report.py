"""Serialization and the census cache: exact JSON forms, byte-level
determinism, and defensive cache revalidation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_centermap import PINNED_JSON
from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN_DIR

from cuspcenter import cli, report
from cuspcenter.classes import check_census, enumerate_classes, make_class_type
from cuspcenter.errors import AssertionFailure
from cuspcenter.cyclotomic import zeta
from cuspcenter.finitefield import finite_field
from cuspcenter.polynomials import Poly
from cuspcenter.report import (
    SCHEMA_VERSION,
    blockvector_json,
    cache_key,
    cache_path,
    cyclo_json,
    envelope,
    failure_envelope,
    frac_json,
    load_census,
    params_json,
    poly_json,
    save_census,
    to_json_bytes,
    to_text,
)


def test_frac_json():
    assert frac_json(Fraction(-3, 7)) == {"num": "-3", "den": "7"}
    assert frac_json(5) == {"num": "5", "den": "1"}


def test_cyclo_json():
    v = zeta(3, 1) + 2
    doc = cyclo_json(v)
    assert doc["level"] == 1
    assert doc["coeffs"] == [
        {"num": "2", "den": "1"},
        {"num": "1", "den": "1"},
    ]


def test_poly_json():
    doc = poly_json(Poly((-2, -1, 1)))
    assert [c["num"] for c in doc] == ["-2", "-1", "1"]
    assert all(c["den"] == "1" for c in doc)


def test_blockvector_json():
    from cuspcenter.centermap import gamma_vector
    from cuspcenter.params import validate_parameters

    ps = validate_parameters(2, 3, 2)
    doc = blockvector_json(gamma_vector(ps))
    assert doc["slots"] == [0, 1]
    assert len(doc["entries"]) == 2
    assert doc["entries"][0]["coeffs"][0] == {"num": "2", "den": "1"}


def test_params_json():
    from cuspcenter.params import validate_parameters

    doc = params_json(validate_parameters(2, 5, 4, 2))
    assert doc == {"q": 2, "ell": 5, "n": 4, "d": 2, "w": 4, "r": 1, "reduced": False}


def test_no_floats_anywhere():
    v = zeta(3, 1) * Fraction(1, 2)
    doc = {"x": cyclo_json(v), "y": frac_json(Fraction(22, 7)), "p": poly_json(Poly((1, 2)))}
    parsed = json.loads(to_json_bytes(doc))
    # a value not converted by the *_json helpers is refused, not encoded
    with pytest.raises(TypeError):
        to_json_bytes({"y": Fraction(22, 7)})

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for x in node.values():
                walk(x)
        elif isinstance(node, list):
            for x in node:
                walk(x)

    walk(parsed)


def dumps_referee(obj) -> bytes:
    """The referee for ``to_json_bytes``: the standard library encoder."""
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode("ascii")


# id -> (command, golden file or None)
COMMANDS = {
    **{
        f"golden-{name}": ("endo-ring " + " ".join(argv), GOLDEN_DIR / f"{name}.json")
        for name, argv in GOLDEN_CASES.items()
    },
    **{name: (command, None) for name, (command, _) in PINNED_JSON.items()},
}


@pytest.mark.parametrize("command,golden", COMMANDS.values(), ids=COMMANDS)
def test_writer_matches_json_dumps_on_every_pinned_envelope(command, golden):
    args = cli.build_parser().parse_args([*command.split(), "--out", "json"])
    env = cli._DISPATCH[args.command](args)
    blob = to_json_bytes(env)
    assert blob == dumps_referee(env)
    if golden is not None:
        assert blob == golden.read_bytes()


# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII text beyond the BMP, and lone surrogates
TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t", "\u00e9", "\U0001f600", "\ud800", "\udfff x"]
)
SCALARS = TEXT | st.integers() | st.integers(min_value=10**20) | st.booleans() | st.none()


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    )


TREES = st.recursive(SCALARS, containers, max_leaves=20)


@st.composite
def shared_trees(draw):
    # sampled_from hands back the pooled object itself, so a pooled
    # container recurs at one depth or at several
    pool = draw(st.lists(TREES, min_size=1, max_size=3))
    return draw(st.recursive(st.sampled_from(pool) | SCALARS, containers, max_leaves=30))


@settings(max_examples=200, deadline=None)
@given(shared_trees())
def test_writer_matches_json_dumps_on_random_trees(tree):
    assert to_json_bytes(tree) == dumps_referee(tree)


def test_writer_renders_a_shared_container_per_depth():
    leaf = [1, {"a": "\u00e9"}]
    empty = []
    doc = {"x": leaf, "y": [leaf, leaf, {"z": leaf}], "e": [empty, empty, {}], "t": (leaf,)}
    assert to_json_bytes(doc) == dumps_referee(doc)


@pytest.mark.parametrize(
    "doc",
    [
        Fraction(1, 3),
        {"y": 0.5},
        [1, [2, float("nan")]],
        {1: "a"},
        {"a": {None: 1}},
        {("k",): 1},
        {"s": {1, 2}},
        {"b": b"raw"},
    ],
    ids=repr,
)
def test_writer_refuses_other_values_and_keys(doc):
    with pytest.raises(TypeError):
        to_json_bytes(doc)


def test_writer_refuses_a_cycle():
    loop = [1]
    loop.append({"back": loop})
    for doc in (loop, {"a": [loop]}):
        with pytest.raises(ValueError, match="Circular reference"):
            to_json_bytes(doc)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps_referee(doc)


def test_json_bytes_deterministic():
    doc = {
        "b": frac_json(Fraction(1, 3)),
        "a": [cyclo_json(zeta(5, 1)), poly_json(Poly((0, 1)))],
        "s": [1, 2, 3],
    }
    assert to_json_bytes(doc) == to_json_bytes(doc)
    # trailing newline, ascii, stable key order
    blob = to_json_bytes(doc)
    assert blob.endswith(b"\n")
    blob.decode("ascii")
    assert blob.index(b'"a"') < blob.index(b'"b"') < blob.index(b'"s"')


def test_envelope_shape():
    env = envelope("demo", {"q": 2}, ["one check"], {"value": 7})
    assert env["status"] == "pass"
    assert env["schema_version"] == SCHEMA_VERSION
    text = to_text(env)
    assert "status: PASS" in text
    assert "  PASS one check" in text
    assert text.endswith("\n")


def test_failure_envelope():
    from cuspcenter.errors import AssertionFailure

    err = AssertionFailure("boom", witness={"slot": 3})
    env = failure_envelope("demo", {"q": 2}, err)
    assert env["status"] == "fail"
    detail = env["artifacts"]["error"]
    assert detail["type"] == "AssertionFailure"
    assert "witness" in detail
    text = to_text(env)
    assert "FAIL AssertionFailure" in text


def test_text_value_with_non_str_keys():
    # keys sort by their text, and each value is read under its own key
    assert report._text_value({10: "a", 2: ("b", 3), "1": {5: None}}) == (
        "{1: {5: None}, 10: a, 2: [b, 3]}"
    )
    text = to_text(envelope("demo", {"q": 2}, [], {"by_degree": {1: 4, 2: 6}}))
    assert "by_degree: {1: 4, 2: 6}" in text


def test_cache_key_stability():
    # the key binds the schema version; freeze one value so an
    # accidental schema bump is visible here
    assert cache_key(2, 2) == cache_key(2, 2)
    assert cache_key(2, 2) != cache_key(2, 3)
    assert cache_path("/tmp/x", 2, 2).endswith(".json")


def test_cache_roundtrip(tmp_path):
    field = finite_field(4)
    fresh = enumerate_classes(field, 2)
    cache_dir = str(tmp_path)
    save_census(cache_dir, 4, 2, fresh)
    loaded = load_census(cache_dir, 4, 2, field)
    assert loaded is not None
    assert loaded == fresh


def test_cache_missing_returns_none(tmp_path):
    assert load_census(str(tmp_path), 4, 2, finite_field(4)) is None


def test_cache_corrupt_returns_none(tmp_path):
    field = finite_field(4)
    fresh = enumerate_classes(field, 2)
    cache_dir = str(tmp_path)
    path = save_census(cache_dir, 4, 2, fresh)
    with open(path, "wb") as fh:
        fh.write(b"{ not json")
    assert load_census(cache_dir, 4, 2, field) is None


def test_cache_wrong_schema_returns_none(tmp_path):
    field = finite_field(4)
    fresh = enumerate_classes(field, 2)
    cache_dir = str(tmp_path)
    path = save_census(cache_dir, 4, 2, fresh)
    doc = json.load(open(path))
    doc["schema_version"] = SCHEMA_VERSION + 1
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert load_census(cache_dir, 4, 2, field) is None


def test_cache_tampered_classes_returns_none(tmp_path):
    field = finite_field(4)
    fresh = enumerate_classes(field, 2)
    cache_dir = str(tmp_path)
    path = save_census(cache_dir, 4, 2, fresh)
    doc = json.load(open(path))
    doc["classes"] = doc["classes"][:-1]  # drop one class
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert load_census(cache_dir, 4, 2, field) is None


def rewrite_neighbours(tmp_path, monkeypatch, rewrite):
    """Save the GL_2(F_4) census, rewrite the cached classes i and i + 1
    of the first neighbours with equal sizes, and load it with a spy on
    ``check_census``: the count and the size sum stay, so only the
    census check can refuse it.  Returns (loaded, raised)."""
    field = finite_field(4)
    fresh = enumerate_classes(field, 2)
    sizes = [ct.class_size() for ct in fresh]
    i = next(i for i in range(len(sizes) - 1) if sizes[i] == sizes[i + 1])
    cache_dir = str(tmp_path)
    path = save_census(cache_dir, 4, 2, fresh)
    doc = json.load(open(path))
    doc["classes"][i : i + 2] = rewrite(doc["classes"][i], doc["classes"][i + 1])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    raised = []

    def spy(classes, q, n):
        try:
            return check_census(classes, q, n)
        except AssertionFailure as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(report, "check_census", spy)
    return load_census(cache_dir, 4, 2, field), raised


def test_cache_with_two_classes_swapped_returns_none(tmp_path, monkeypatch):
    loaded, raised = rewrite_neighbours(tmp_path, monkeypatch, lambda a, b: [b, a])
    assert loaded is None
    assert len(raised) == 1


def test_cache_with_a_class_copied_over_its_neighbour_returns_none(tmp_path, monkeypatch):
    loaded, raised = rewrite_neighbours(tmp_path, monkeypatch, lambda a, b: [a, a])
    assert loaded is None
    assert len(raised) == 1


def test_cache_class_with_wrong_degree_total_returns_none(tmp_path, monkeypatch):
    field = finite_field(4)
    cache_dir = str(tmp_path)
    path = save_census(cache_dir, 4, 2, enumerate_classes(field, 2))
    doc = json.load(open(path))
    doc["classes"][0][0]["partition"] = [2, 1]  # degree total above n = 2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    raised = []

    def spy(factors, n):
        try:
            return make_class_type(factors, n)
        except AssertionFailure as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(report, "make_class_type", spy)
    assert load_census(cache_dir, 4, 2, field) is None
    assert len(raised) == 1
