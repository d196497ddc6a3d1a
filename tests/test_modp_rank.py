"""A rank oracle modulo primes, sharing no code with `exact_linalg`.

Each column is scaled by the lcm of its denominators to Gaussian integers,
which changes no rank, and read modulo a prime p = 1 (mod 4) with i sent to
a square root of -1 mod p.  That map is a ring homomorphism, so every minor
that vanishes over Q(i) vanishes mod p: the rank mod p is never above the
rank over Q(i), and is below it only when p divides every nonzero maximal
minor.  Two primes are tried, and a check passes if either agrees.
"""
import random
from math import lcm

import pytest
from hypothesis import given, settings

from nilpoisson.calculus import CalculusContext
from nilpoisson.catalog import catalog_load
from nilpoisson.exact_linalg import rank
from nilpoisson.homology import (BigradedComplex, TotalComplex, _column_dims,
                                 poisson_betti)
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.poisson import theorem2_lambda
from test_exact_linalg import _sparse_columns
from test_lie_structure import conjugated

PRIMES = (998244353, 1000000009)


def sqrt_minus_one(p):
    """A square root of -1 mod a prime p = 1 (mod 4): g^((p-1)/4) for the
    first quadratic non-residue g."""
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    return pow(g, (p - 1) // 4, p)


def rank_mod_p(cols, p):
    """The rank mod p of the matrix with these sparse Q(i) columns."""
    s = sqrt_minus_one(p)
    pivots = {}
    for col in cols:
        scale = lcm(*(x.d for x in col.values())) if col else 1
        v = {}
        for i, x in col.items():
            m = scale // x.d
            if (y := (x.a * m + x.b * m * s) % p):
                v[i] = y
        # reduce at the largest row index, pivot rows kept monic
        while v:
            top = max(v)
            row = pivots.get(top)
            if row is None:
                inv = pow(v[top], -1, p)
                pivots[top] = {i: y * inv % p for i, y in v.items()}
                break
            f = v[top]
            for i, y in row.items():
                if (z := (v.get(i, 0) - f * y) % p):
                    v[i] = z
                else:
                    v.pop(i, None)
    return len(pivots)


def agrees_mod_some_prime(want, of_ranks, mats):
    """Whether of_ranks({key: rank mod p of mats[key]}) equals want for
    one of the primes."""
    return any(of_ranks({key: rank_mod_p(m.cols, p) for key, m in mats.items()})
               == want for p in PRIMES)


@settings(max_examples=200, deadline=None)
@given(_sparse_columns())
def test_rank_mod_p_matches_exact_rank(case):
    _, cols = case
    assert any(rank_mod_p(cols, p) == rank(cols) for p in PRIMES)
    assert all(rank_mod_p(cols, p) <= rank(cols) for p in PRIMES)


@pytest.mark.parametrize("algebra, lam", [
    ("tower:5", None),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4"),
    ("torus:5", None),
    ("conjugated tower:4", None),
    ("tower:8", "2 v1^v8 - v2^v7 + v3^v6 - v4^v5"),
    ("conjugated tower:5", None),
])
def test_betti_and_e1_agree_mod_p(algebra, lam):
    # theorem 2's lam unless one is given; a tower in a random rational basis
    # has a non-real entry in every dbar and D
    if algebra.startswith("conjugated"):
        ctx = CalculusContext(conjugated(catalog_load(algebra.split()[1]),
                                         random.Random(1)))
    else:
        ctx = CalculusContext(catalog_load(algebra))
    bc = BigradedComplex(ctx, theorem2_lambda(ctx).bivector if lam is None
                         else parse_lambda(lam).bind(ctx.n))
    tc = TotalComplex(bc)
    nmax = tc.nmax

    def betti(ranks):
        return {k: len(tc.bases[k]) - ranks[k] - (ranks[k - 1] if k else 0)
                for k in range(nmax + 1)}

    assert agrees_mod_some_prime(poisson_betti(tc), betti, tc.dmat)
    exact = {pq: rank(m.cols) for pq, m in bc.dbar_mat.items()}
    assert agrees_mod_some_prime(_column_dims(bc, exact),
                                 lambda r: _column_dims(bc, r), bc.dbar_mat)
