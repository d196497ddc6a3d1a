"""Built-in algebra presets and the JSON presentation file format.

Preset real bases come in pairs (x_j, y_j) with J x_j = y_j, and each preset
carries the preferred frame v_j = (x_j - i y_j) / 2 so printed output matches
the usual normalization.
"""
from __future__ import annotations

import json

from .errors import UsageError
from .lie_structure import AlgebraPresentation
from .scalars import (GaussRational, RAT_ZERO, Rational, rational_from_string,
                      read_integer)

HALF = Rational(1, 2)
MINUS_HALF = Rational(-1, 2)

# Largest n of a preset family: at tower(128), `validate`, `info` and
# `poisson` take about 0.5, 1 and 1.4 s.  The bound is checked before the
# dense 2n x 2n J is allocated, which at n = 10^5 would hold 4 * 10^10
# entries.
MAX_PRESET_N = 128


def _check_bound(family: str, n: int) -> None:
    if n > MAX_PRESET_N:
        raise UsageError(f"{family}(n) needs n <= {MAX_PRESET_N}, got {n}")


def _paired_j(n_pairs: int):
    dim = 2 * n_pairs
    jm = [[RAT_ZERO] * dim for _ in range(dim)]
    for k in range(n_pairs):
        x, y = 2 * k, 2 * k + 1
        jm[y][x] = Rational(1)   # J x = y
        jm[x][y] = Rational(-1)  # J y = -x
    return jm


def _paired_frame(n_pairs: int):
    return [{2 * k: GaussRational(HALF, RAT_ZERO),
             2 * k + 1: GaussRational(RAT_ZERO, MINUS_HALF)}
            for k in range(n_pairs)]


def torus(n: int) -> AlgebraPresentation:
    if n < 1:
        raise UsageError("torus(n) needs n >= 1")
    _check_bound("torus", n)
    return AlgebraPresentation(
        2 * n, {}, _paired_j(n), frame_rows=_paired_frame(n), name=f"torus({n})"
    )


def tower(n: int) -> AlgebraPresentation:
    """Central tower family: [x1,y1] = y2 and, for 2 <= k <= n-1,
    [x1,xk] = [y1,yk] = x_{k+1}, [x1,yk] = -[y1,xk] = y_{k+1}."""
    if n < 2:
        raise UsageError("tower(n) needs n >= 2")
    _check_bound("tower", n)

    def x(j):
        return 2 * j - 1

    def y(j):
        return 2 * j

    one = Rational(1)
    br: dict = {}
    br[(x(1), y(1))] = {y(2): one}
    for k in range(2, n):
        br[(x(1), x(k))] = {x(k + 1): one}
        br[(y(1), y(k))] = {x(k + 1): one}
        br[(x(1), y(k))] = {y(k + 1): one}
        br[(y(1), x(k))] = {y(k + 1): -one}
    return AlgebraPresentation(
        2 * n, br, _paired_j(n), frame_rows=_paired_frame(n), name=f"tower({n})"
    )


def kodaira() -> AlgebraPresentation:
    """Dimension 4, [e1,e2] = e3, J e1 = e2, J e3 = e4."""
    br = {(1, 2): {3: Rational(1)}}
    return AlgebraPresentation(
        4, br, _paired_j(2), frame_rows=_paired_frame(2), name="kodaira"
    )


CATALOG = {"torus": torus, "tower": tower, "kodaira": kodaira}


def catalog_load(spec: str) -> AlgebraPresentation:
    """Resolve "name" or "name:param" to a preset."""
    name, colon, param = spec.partition(":")
    name = name.strip().lower()
    builder = CATALOG.get(name)
    if builder is None:
        raise UsageError(f"unknown catalog algebra {name!r}; have {sorted(CATALOG)}")
    if name == "kodaira":
        if colon:
            raise UsageError("kodaira takes no parameter")
        return builder()
    if not param:
        raise UsageError(f"{name} needs a parameter, e.g. {name}:4")
    try:
        n = read_integer(param, "parameter")
    except ValueError as exc:
        raise UsageError(f"bad parameter {param!r} for {name}") from exc
    return builder(n)


def presentation_to_dict(p: AlgebraPresentation) -> dict:
    brackets = []
    for (i, j) in sorted(p.brackets):
        out = p.brackets[(i, j)]
        brackets.append({
            "i": i,
            "j": j,
            "out": {str(k): str(c) for k, c in sorted(out.items())},
        })
    jmat = [[str(p.jmat[i][j]) for j in range(p.dim)] for i in range(p.dim)]
    return {"dim": p.dim, "brackets": brackets, "J": jmat}


def presentation_from_dict(data: dict, name: str = "file") -> AlgebraPresentation:
    try:
        dim = read_integer(data["dim"], '"dim"')
        brackets = {}
        for ent in data.get("brackets", []):
            i, j = read_integer(ent["i"], '"i"'), read_integer(ent["j"], '"j"')
            if i == j:
                raise ValueError(f"bracket ({i},{i}) of a vector with itself")
            if not isinstance(ent["out"], dict):
                raise ValueError(f'"out" of bracket ({i},{j}) must be a JSON object')
            where = f'an index in "out" of bracket ({i},{j})'
            out = {read_integer(k, where): rational_from_string(v)
                   for k, v in ent["out"].items()}
            if len(out) < len(ent["out"]):
                raise ValueError(f'"out" of bracket ({i},{j}) names one index '
                                 f"twice: {sorted(ent['out'])}")
            if i > j:
                i, j, out = j, i, {k: -c for k, c in out.items()}
            key = (i, j)
            if key in brackets:
                raise ValueError(f"bracket ({i},{j}) given twice")
            out = {k: c for k, c in out.items() if c}
            if out:
                brackets[key] = out
        jraw = data["J"]
        # a string row would be read character by character
        if not isinstance(jraw, list) or len(jraw) != dim or any(
                not isinstance(r, list) or len(r) != dim for r in jraw):
            raise ValueError("J must be a dim x dim matrix")
        jmat = [[rational_from_string(x) for x in row] for row in jraw]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad algebra data: {exc}") from exc
    return AlgebraPresentation(dim, brackets, jmat, name=name)


def _unique_keys(pairs: list) -> dict:
    """A JSON object; `json` alone keeps the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise UsageError(f'bad algebra data: key "{key}" given twice')
        obj[key] = value
    return obj


def load_file(path: str) -> AlgebraPresentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    return presentation_from_dict(data, name=path)


def save_file(p: AlgebraPresentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(p), fh, indent=2)
        fh.write("\n")
