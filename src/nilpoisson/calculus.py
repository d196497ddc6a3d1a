"""The Lie-algebroid differential and the Schouten bracket on the mixed
exterior algebra.

All operators are odd derivations pinned by their generator values, and one
term walk, `_odd_leibniz`, applies every such derivation.  It works on
bitmask monomials (v_i is bit i-1, ow_j is bit n+j-1, see `exterior`) and
signs each term by a popcount, with no wedge product:
  dbar v    = sum_j [v, vbar_j]^(1,0) ^ ow_j
  dbar ow_m = (0,2) part of d ow_m,      d alpha(a, b) = -alpha([a, b])
  [v, ow_m] = contraction of v into d ow_m
  [v, w]    = Lie bracket (zero exactly when the structure is abelian)
"""
from __future__ import annotations

from .errors import InternalInvariantError
from .exact_linalg import ExactMatrix
from .exterior import (FORM_BASE, MixedElement, cell_masks, cell_monomials,
                       form_gen, mask_mono, mono_mask, mono_str, vec_gen)
from .lie_structure import (AlgebraPresentation, ComplexFrame, complex_frame,
                            grading)
from .scalars import GR_ONE


class CalculusContext:
    """Frame, grading, and cached generator differentials for one algebra."""

    __slots__ = (
        "presentation", "frame", "grading", "n", "abelian",
        "dbar_images", "bk_v_form", "_sch_cache",
    )

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        self.frame = complex_frame(presentation)
        self.grading = grading(presentation, self.frame)
        self.n = self.frame.n
        self.abelian = self.frame.abelian
        self.dbar_images, self.bk_v_form = dbar_images(self.frame)
        self._sch_cache = {}


def dbar_images(fr: ComplexFrame) -> tuple[dict, dict]:
    """The nonzero dbar generator images, and [v_k, ow_m] on the side.

    With d alpha(a, b) = -alpha([a, b]), the (0,2) part of d ow_m has
    coefficient -conj(omega_m([v_i, v_j])) on ow_i ^ ow_j, and contracting
    v_k into d ow_m leaves -ow_m([v_k, vbar_j]) on ow_j.
    """
    n = fr.n
    images = {}
    bk_v_form = {}
    for i in range(1, n + 1):
        terms = {}
        for j in range(1, n + 1):
            c10 = fr.bracket_vvbar[(i, j)][0]
            for a in sorted(c10):
                # the monomial (v_a, ow_j) is already canonical
                terms[(a + 1, FORM_BASE + j)] = c10[a]
        if terms:
            images[i] = MixedElement(terms)
    for m in range(1, n + 1):
        image = {(FORM_BASE + i, FORM_BASE + j): -c10[m - 1].conjugate()
                 for (i, j), c10 in fr.bracket_vv.items() if m - 1 in c10}
        if image:
            if fr.abelian:
                raise InternalInvariantError(
                    "abelian structure produced a (0,2) part in d ow"
                )
            images[FORM_BASE + m] = MixedElement(image)
        for k in range(1, n + 1):
            terms = {}
            for j in range(1, n + 1):
                c = fr.bracket_vvbar[(k, j)][1].get(m - 1)
                if c:
                    terms[(FORM_BASE + j,)] = -c
            if terms:
                bk_v_form[(k, m)] = MixedElement(terms)
    return images, bk_v_form


def _compile(images: dict[int, MixedElement], n: int) -> list[tuple]:
    """The generator images as (bit g, g - 1, terms), g ascending, each term
    (image mask I, sign mask B, |I| even, c, -c) with B the XOR of b - 1
    over the bits b of I."""
    table = []
    for code, img in images.items():
        terms = []
        for mono, c in img.terms.items():
            mask = mono_mask(mono, n)
            signs = 0
            for g in mono:
                signs ^= mono_mask((g,), n) - 1
            terms.append((mask, signs, len(mono) % 2 == 0, c, -c))
        if terms:
            bit = mono_mask((code,), n)
            table.append((bit, bit - 1, terms))
    table.sort(key=lambda entry: entry[0])
    return table


def _odd_leibniz(table: list[tuple], src: int, coeff, out: dict) -> None:
    """Add coeff * D(src) into the sparse terms out, keyed by mask, D the odd
    derivation with these compiled generator images:

        D(g_1 ... g_k) = sum_t (-1)^(t-1) g_1 ... g_(t-1) D(g_t) g_(t+1) ... g_k

    With R = src without g_t, the term of an image monomial I is
    (-1)^((|I|+1)(t-1)) I ^ R, and I ^ R is canonical up to the parity of
    the pairs x in I, y in R with y < x, which is the popcount of R & B.
    coeff None stands for 1 and multiplies nothing.
    """
    for g, below, terms in table:
        if not src & g:
            continue
        rest = src ^ g
        before = (rest & below).bit_count()
        for mask, signs, even, c, neg in terms:
            if mask & rest:
                continue
            parity = (rest & signs).bit_count()
            if even:
                parity += before
            if parity & 1:
                c = neg
            if coeff is not None:
                c = coeff * c
            m = mask | rest
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]


def apply_odd_derivation(images: dict[int, MixedElement], e: MixedElement) -> MixedElement:
    """Extend generator images to the unique odd derivation and apply it."""
    # any n at least the largest vector index keeps vector bits below forms
    codes = [*images]
    codes += [g for img in images.values() for m in img.terms for g in m]
    codes += [g for m in e.terms for g in m]
    n = max((g for g in codes if g < FORM_BASE), default=0)
    table = _compile(images, n)
    out: dict = {}
    for mono, coeff in e.terms.items():
        _odd_leibniz(table, mono_mask(mono, n), coeff, out)
    return MixedElement({mask_mono(m, n): c for m, c in out.items()})


def derivation_matrix(images: dict[int, MixedElement], n: int, source_masks,
                      target_index: dict, where: str) -> ExactMatrix:
    """The odd derivation with these generator images, one sparse column
    per source mask; target_index numbers the target masks."""
    table = _compile(images, n)
    cols = []
    for src in source_masks:
        out: dict = {}
        _odd_leibniz(table, src, None, out)
        try:
            cols.append({target_index[m]: c for m, c in out.items()})
        except KeyError as exc:
            raise InternalInvariantError(
                f"{where}: monomial {mono_str(mask_mono(exc.args[0], n))} "
                "outside basis") from None
    return ExactMatrix(cols, len(target_index))


def dbar_cell(images: dict[int, MixedElement], n: int, p: int,
              q: int) -> tuple[list, ExactMatrix | None]:
    """The basis of cell (p, q) and the matrix of dbar with these generator
    images out of it, None at q = n."""
    basis = cell_monomials(n, p, q)
    if q == n:
        return basis, None
    index = {m: i for i, m in enumerate(cell_masks(n, p, q + 1))}
    return basis, derivation_matrix(images, n, cell_masks(n, p, q), index,
                                    "dbar")


def dbar(ctx: CalculusContext, e: MixedElement) -> MixedElement:
    return apply_odd_derivation(ctx.dbar_images, e)


def _schouten_generators(ctx: CalculusContext, ga: int, gb: int) -> MixedElement:
    a_vec = ga < FORM_BASE
    b_vec = gb < FORM_BASE
    if a_vec and b_vec:
        if ga == gb:
            return MixedElement()
        if ga < gb:
            coords = ctx.frame.bracket_vv[(ga, gb)]
            return MixedElement.vector(coords)
        coords = ctx.frame.bracket_vv[(gb, ga)]
        return -MixedElement.vector(coords)
    if a_vec and not b_vec:
        return ctx.bk_v_form.get((ga, gb - FORM_BASE), MixedElement())
    if b_vec and not a_vec:
        return -ctx.bk_v_form.get((gb, ga - FORM_BASE), MixedElement())
    return MixedElement()


def _schouten_monomials(ctx: CalculusContext, ma: tuple, mb: tuple) -> MixedElement:
    if not ma or not mb:
        return MixedElement()
    key = (ma, mb)
    hit = ctx._sch_cache.get(key)
    if hit is not None:
        return hit
    if len(ma) == 1 and len(mb) == 1:
        out = _schouten_generators(ctx, ma[0], mb[0])
    elif len(mb) > 1:
        # [a, h ^ rest] = [a, h] ^ rest + (-1)^(|a| - 1) h ^ [a, rest]
        h, rest = mb[:1], mb[1:]
        rest_el = MixedElement.term(rest, GR_ONE)
        h_el = MixedElement.term(h, GR_ONE)
        out = _schouten_monomials(ctx, ma, h).wedge(rest_el)
        tail = h_el.wedge(_schouten_monomials(ctx, ma, rest))
        out = out + tail if (len(ma) - 1) % 2 == 0 else out - tail
    else:
        # [g ^ rest, b] = (-1)^((|b| - 1) |rest|) [g, b] ^ rest + g ^ [rest, b]
        g, rest = ma[:1], ma[1:]
        rest_el = MixedElement.term(rest, GR_ONE)
        g_el = MixedElement.term(g, GR_ONE)
        head = _schouten_monomials(ctx, g, mb).wedge(rest_el)
        if ((len(mb) - 1) * len(rest)) % 2 == 1:
            head = -head
        out = head + g_el.wedge(_schouten_monomials(ctx, rest, mb))
    ctx._sch_cache[key] = out
    return out


def schouten(ctx: CalculusContext, a: MixedElement, b: MixedElement) -> MixedElement:
    out = MixedElement()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            piece = _schouten_monomials(ctx, ma, mb)
            if piece:
                out = out + piece.scale(ca * cb)
    return out


def ad_images(ctx: CalculusContext, lam: MixedElement) -> dict[int, MixedElement]:
    """Generator images of ad_lam; valid because ad of a bivector is an odd
    derivation."""
    n = ctx.n
    gens = [vec_gen(i) for i in range(1, n + 1)] + [form_gen(j) for j in range(1, n + 1)]
    images = {}
    for g in gens:
        val = schouten(ctx, lam, MixedElement.term((g,), GR_ONE))
        if val:
            images[g] = val
    return images


def ad(ctx: CalculusContext, lam: MixedElement, e: MixedElement) -> MixedElement:
    return apply_odd_derivation(ad_images(ctx, lam), e)


def dbar_lambda(ctx: CalculusContext, lam: MixedElement, e: MixedElement) -> MixedElement:
    return dbar(ctx, e) + ad(ctx, lam, e)
