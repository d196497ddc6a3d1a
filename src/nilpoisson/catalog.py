"""Built-in algebra presets and JSON file loading.

Preset real bases come in pairs (x_j, y_j) with J x_j = y_j, and each preset
carries the preferred frame v_j = (x_j - i y_j) / 2 so printed output matches
the usual normalization.
"""
from __future__ import annotations

import json

from .errors import UsageError
from .lie_structure import (AlgebraPresentation, presentation_from_dict,
                            presentation_to_dict)
from .scalars import GaussRational, RAT_ZERO, Rational

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
    name, _, param = spec.partition(":")
    name = name.strip().lower()
    builder = CATALOG.get(name)
    if builder is None:
        raise UsageError(f"unknown catalog algebra {name!r}; have {sorted(CATALOG)}")
    if name == "kodaira":
        if param:
            raise UsageError("kodaira takes no parameter")
        return builder()
    if not param:
        raise UsageError(f"{name} needs a parameter, e.g. {name}:4")
    try:
        n = int(param)
    except ValueError as exc:
        raise UsageError(f"bad parameter {param!r} for {name}") from exc
    return builder(n)


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
