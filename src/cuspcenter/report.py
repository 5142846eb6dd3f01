"""Report envelopes, exact JSON serialization, and the census cache.

Serialization rules: no floats anywhere; rationals become
{"num": "...", "den": "..."} string pairs, cyclotomic values become
{"level": int, "coeffs": [rational, ...]} in the power basis, and
polynomials are coefficient lists low degree first.  Dumps are sorted,
ASCII, fixed-indent — two identical runs must be byte-identical.

``to_json_bytes`` writes exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"``
(the tests keep ``json.dumps`` as its referee), for trees of dicts with
str keys, lists, tuples, str, int, bool and None; any other value,
floats included, raises TypeError, and a cycle raises ValueError.
Strings go through the C escaper ``encode_basestring_ascii``.  A
container reached more than once, such as the certificate that every
class of one key shares, is rendered once per depth and its text
spliced in wherever it recurs, so the output costs what the distinct
subtrees cost: the ``endo-ring`` envelope of (101,17,2) holds 12
distinct certificates under 10 200 labels.  Only shared containers are
kept, since keeping every rendered container would hold the whole
output twice.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .classes import ClassType, check_census, group_order, make_class_type
from .cyclotomic import CyclotomicNumber
from .finitefield import FiniteField, FqPoly
from .polynomials import Poly

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


def frac_json(x) -> dict:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def cyclo_json(x: CyclotomicNumber) -> dict:
    return {"level": x.level, "coeffs": [frac_json(c) for c in x.coeffs]}


def poly_json(p: Poly) -> list:
    return [frac_json(c) for c in p.coeffs]


def blockvector_json(v) -> dict:
    return {
        "slots": list(v.reps),
        "entries": [cyclo_json(e) for e in v.entries],
    }


def params_json(ps) -> dict:
    return {
        "q": ps.q,
        "ell": ps.ell,
        "n": ps.n,
        "d": ps.d,
        "w": ps.w,
        "r": ps.r,
        "reduced": ps.is_reduced,
    }


def envelope(command: str, parameters: dict, checks, artifacts: dict, status: str = "pass") -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "status": status,
        "checks": list(checks),
        "artifacts": artifacts,
    }


def failure_envelope(command: str, parameters: dict, error: Exception) -> dict:
    witness = getattr(error, "witness", None)
    detail = {"type": type(error).__name__, "message": str(error)}
    if witness is not None:
        detail["witness"] = repr(witness)
    return envelope(command, parameters, [], {"error": detail}, status="fail")


def to_json_bytes(obj) -> bytes:
    shared = _shared_containers(obj)
    rendered = {}  # (id, depth) -> text, for the shared containers only

    def value(node, depth: int) -> str:
        if isinstance(node, str):
            return encode_basestring_ascii(node)
        if node is None:
            return "null"
        if node is True:
            return "true"
        if node is False:
            return "false"
        if isinstance(node, int):
            return int.__repr__(node)
        if not isinstance(node, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
        if not node:
            return "{}" if isinstance(node, dict) else "[]"
        if id(node) in shared and (id(node), depth) in rendered:
            return rendered[id(node), depth]
        # one join per container, so a spliced subtree is copied once
        inner = "\n" + "  " * (depth + 1)
        parts = []
        if isinstance(node, dict):
            for k in sorted(node):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                parts += (",", inner, encode_basestring_ascii(k), ": ", value(node[k], depth + 1))
            parts[0], closing = "{", "}"  # the first item takes no comma
        else:
            for x in node:
                parts += (",", inner, value(x, depth + 1))
            parts[0], closing = "[", "]"
        parts += ("\n", "  " * depth, closing)
        text = "".join(parts)
        if id(node) in shared:
            rendered[id(node), depth] = text
        return text

    return (value(obj, 0) + "\n").encode("ascii")


def _shared_containers(obj) -> set:
    """ids of the dicts, lists and tuples reached more than once from
    obj; ValueError if a container contains itself."""
    seen, shared, path = set(), set(), set()

    def visit(node):
        key = id(node)
        if key in path:
            raise ValueError("Circular reference detected")
        if key in seen:
            shared.add(key)
            return
        seen.add(key)
        path.add(key)
        for child in node.values() if isinstance(node, dict) else node:
            if isinstance(child, (dict, list, tuple)):
                visit(child)
        path.discard(key)

    if isinstance(obj, (dict, list, tuple)):
        visit(obj)
    return shared


def to_text(env: dict) -> str:
    lines = [
        f"cuspcenter {env['command']} "
        f"(tool {env['tool_version']}, schema {env['schema_version']})"
    ]
    par = env["parameters"]
    lines.append("parameters: " + ", ".join(f"{k}={par[k]}" for k in sorted(par)))
    lines.append(f"status: {env['status'].upper()}")
    for chk in env["checks"]:
        lines.append(f"  PASS {chk}")
    art = env["artifacts"]
    if "error" in art:
        err = art["error"]
        lines.append(f"  FAIL {err['type']}: {err['message']}")
        if "witness" in err:
            lines.append(f"       witness: {err['witness']}")
    for key in sorted(art):
        if key == "error":
            continue
        lines.append(f"{key}: {_text_value(art[key])}")
    return "\n".join(lines) + "\n"


def _text_value(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_text_value(v[k])}" for k in sorted(v, key=str)) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_text_value(x) for x in v) + "]"
    return str(v)


# -- census cache -----------------------------------------------------------


def cache_key(q: int, n: int) -> str:
    import hashlib  # imported here: no other path needs it at start-up

    payload = f"census:{SCHEMA_VERSION}:{q}:{n}".encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def cache_path(cache_dir: str, q: int, n: int) -> str:
    return os.path.join(cache_dir, f"census-{cache_key(q, n)}.json")


def _class_json(ct: ClassType) -> list:
    return [
        {"poly": [c.encoding for c in poly.coeffs], "partition": list(lam)}
        for poly, lam in ct.factors
    ]


def save_census(cache_dir: str, q: int, n: int, classes) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "q": q,
        "n": n,
        "classes": [_class_json(ct) for ct in classes],
    }
    path = cache_path(cache_dir, q, n)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(to_json_bytes(doc))
    os.replace(tmp, path)
    return path


def load_census(cache_dir: str, q: int, n: int, field: FiniteField):
    """Rebuild the cached census, revalidating it by ``check_census``
    and by its class sizes; returns None when the file is missing or
    fails any validation, in which case the caller should enumerate
    afresh."""
    path = cache_path(cache_dir, q, n)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if (
        doc.get("schema_version") != SCHEMA_VERSION
        or doc.get("q") != q
        or doc.get("n") != n
    ):
        return None
    try:
        classes = []
        for entry in doc["classes"]:
            factors = [
                (
                    FqPoly(field, tuple(field.element(e) for e in item["poly"])),
                    tuple(item["partition"]),
                )
                for item in entry
            ]
            classes.append(make_class_type(factors, n))
        check_census(classes, q, n)
        if sum(ct.class_size() for ct in classes) != group_order(q, n):
            return None
        return tuple(classes)
    except Exception:
        return None
