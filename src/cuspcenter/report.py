"""Report envelopes, exact JSON serialization, and the census cache.

Serialization rules: no floats anywhere; rationals become
{"num": "...", "den": "..."} string pairs, cyclotomic values become
{"level": int, "coeffs": [rational, ...]} in the power basis, and
polynomials are coefficient lists low degree first.  Dumps are sorted,
ASCII, fixed-indent — two identical runs must be byte-identical.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .classes import (
    ClassType,
    conjugacy_class_count,
    group_order,
    make_class_type,
)
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
    return (
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    ).encode("ascii")


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
    """Rebuild the cached census, revalidating counts and sizes; returns
    None when the file is missing or fails any validation, in which case
    the caller should enumerate afresh."""
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
        if len(classes) != conjugacy_class_count(q, n):
            return None
        if sum(ct.class_size() for ct in classes) != group_order(q, n):
            return None
        if classes != sorted(classes, key=ClassType.sort_key):
            return None
        if len(set(classes)) != len(classes):
            return None
        return classes
    except Exception:
        return None
