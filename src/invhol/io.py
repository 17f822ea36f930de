"""File formats: semigroup tables, groupoids and element maps in JSON syntax.

Semigroup files carry "names" and "mul" with optional "identity" and "zero";
groupoid files carry "arrows" (dom, ran, inv triples), "compose" (triples)
and "leq" (pairs).  Writers emit keys in that order with no trailing
whitespace, so rereading and rewriting a file reproduces it byte for byte.
"""

import json

from . import core
from .errors import ParseError
from .groupoid import OrderedGroupoid


def _dump(obj, path):
    text = json.dumps(obj, indent=1, separators=(",", ": ")) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def semigroup_to_dict(S):
    obj = {"names": list(S.names), "mul": [list(row) for row in S.mul]}
    if S.identity is not None:
        obj["identity"] = S.identity
    if S.zero is not None:
        obj["zero"] = S.zero
    return obj


def write_semigroup(path, S):
    _dump(semigroup_to_dict(S), path)


def read_semigroup(path, cap=core.DEFAULT_SIZE_CAP):
    obj = _load(path)
    if not isinstance(obj, dict) or "mul" not in obj:
        raise ParseError(f"{path}: expected an object with a \"mul\" table")
    names = obj.get("names")
    mul = obj["mul"]
    if not isinstance(mul, list) or not all(isinstance(r, list) for r in mul):
        raise ParseError(f"{path}: \"mul\" must be a list of rows")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(x, str) for x in names)
    ):
        raise ParseError(f"{path}: \"names\" must be a list of strings")
    try:
        S = core.build_from_table(names, mul, cap=cap)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for key in ("identity", "zero"):
        if key in obj and obj[key] != getattr(S, key):
            raise ParseError(
                f"{path}: stated {key} {obj[key]} disagrees with the table "
                f"({getattr(S, key)})"
            )
    return S


def groupoid_to_dict(G):
    pairs = [
        [a, b] for a in range(G.n) for b in range(G.n) if G.leq[a][b]
    ]
    return {
        "arrows": [[G.dom[g], G.ran[g], G.inv[g]] for g in range(G.n)],
        "compose": [[g, h, k] for (g, h), k in sorted(G.compose.items())],
        "leq": pairs,
        "names": list(G.names),
    }


def write_groupoid(path, G):
    _dump(groupoid_to_dict(G), path)


def read_groupoid(path):
    obj = _load(path)
    if not isinstance(obj, dict) or "arrows" not in obj:
        raise ParseError(f"{path}: expected an object with an \"arrows\" list")
    arrows = obj["arrows"]
    try:
        dom = [a[0] for a in arrows]
        ran = [a[1] for a in arrows]
        inv = [a[2] for a in arrows]
        n = len(arrows)
        compose = {(g, h): k for g, h, k in obj.get("compose", [])}
        leq = [[False] * n for _ in range(n)]
        for a, b in obj.get("leq", []):
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"order pair {[a, b]} out of range")
            leq[a][b] = True
        names = obj.get("names")
        return OrderedGroupoid(dom, ran, inv, compose, leq, names=names)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ParseError(f"{path}: malformed groupoid data: {exc}") from exc


def detect_kind(path):
    obj = _load(path)
    if isinstance(obj, dict) and "mul" in obj:
        return "semigroup"
    if isinstance(obj, dict) and "arrows" in obj:
        return "groupoid"
    raise ParseError(f"{path}: neither a semigroup nor a groupoid file")
