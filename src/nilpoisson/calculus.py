"""The Lie-algebroid differential and the Schouten bracket on the mixed
exterior algebra.

Every operator is a graded derivation pinned by its generator values.  The
term walk `_leibniz` applies one to an element, and `derivation_matrix`
builds its matrix between two cells from the vector and form halves of each
term.  Both work on bitmask monomials (v_i is bit i-1, ow_j is bit n+j-1,
see `exterior`) and sign by popcounts, with no wedge product; `split_table`
cuts a table into the derivations that each move a count of factors by one
amount.  A generator image term I acts with degree |I| - 1:

    D(g_1 ... g_k) = sum_t (-1)^((|I|-1)(t-1)) g_1 ... g_(t-1) I g_(t+1) ... g_k

so dbar and ad_lam of a bivector (|I| = 2) are odd, and [h, .] for a
generator h (|I| = 1) is even.  The generator values are
  dbar v    = sum_j [v, vbar_j]^(1,0) ^ ow_j
  dbar ow_m = (0,2) part of d ow_m,      d alpha(a, b) = -alpha([a, b])
  [v, ow_m] = contraction of v into d ow_m
  [v, w]    = Lie bracket (zero exactly when the structure is abelian)
The Schouten bracket [a, .] goes through the same walk: it is the
derivation with images [a, h] = -[h, a], and [h, a] applies the even
derivation [h, .] to a.
"""
from __future__ import annotations

from .errors import InternalInvariantError
from .exact_linalg import ExactMatrix
from .exterior import (FORM_BASE, CellBasis, MixedElement, mask_mono,
                       mono_mask, mono_str, subset_masks, subset_ranks)
from .lie_structure import (AlgebraPresentation, ComplexFrame, Grading,
                            complex_frame, grading)


class CalculusContext:
    """Frame and the generator values of dbar and of every [h, .] for one
    algebra, each compiled once into a derivation table, and the grading,
    built when first read."""

    __slots__ = (
        "presentation", "frame", "_grading", "n", "abelian", "dbar_table",
        "bracket_tables",
    )

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        self.frame = complex_frame(presentation)
        self._grading = None
        self.n = self.frame.n
        self.abelian = self.frame.abelian
        images, brackets = dbar_images(self.frame)
        self.dbar_table = derivation_table(images, self.n)
        self.bracket_tables = {h: derivation_table(row, self.n)
                               for h, row in brackets.items()}

    @property
    def grading(self) -> Grading:
        # only info, the theorem-2 bivector and the crosscheck read it
        if self._grading is None:
            self._grading = grading(self.presentation, self.frame)
        return self._grading


def dbar_images(fr: ComplexFrame) -> tuple[dict, dict]:
    """The nonzero dbar generator images, and the generator brackets
    {h: {g: [h, g]}} over all 2n generators h, zero brackets left out.

    With d alpha(a, b) = -alpha([a, b]), the (0,2) part of d ow_m has
    coefficient -conj(omega_m([v_i, v_j])) on ow_i ^ ow_j, and contracting
    v_k into d ow_m leaves -ow_m([v_k, vbar_j]) on ow_j.  [ow, ow] = 0.
    """
    n = fr.n
    images = {}
    brackets = {g: {} for g in [*range(1, n + 1),
                                *range(FORM_BASE + 1, FORM_BASE + n + 1)]}
    # each nonzero frame coordinate is scattered once: d_forms[m] collects
    # the (0,2) part of d ow_m, and contractions[(k, m)] the contraction of
    # v_k into d ow_m, term by term in the order the images list them
    d_forms, contractions = {}, {}
    for i in range(1, n + 1):
        terms = {}
        for j in range(1, n + 1):
            c10, c01 = fr.bracket_vvbar[(i, j)]
            for a in sorted(c10):
                # the monomial (v_a, ow_j) is already canonical
                terms[(a + 1, FORM_BASE + j)] = c10[a]
            for a, c in c01.items():
                key = (i, FORM_BASE + a + 1)
                contractions.setdefault(key, {})[(FORM_BASE + j,)] = -c
        if terms:
            images[i] = MixedElement(terms)
    for (i, j), c10 in fr.bracket_vv.items():
        if c10:
            brackets[i][j] = MixedElement.vector(c10)
            brackets[j][i] = -brackets[i][j]
        for a, c in c10.items():
            key = (FORM_BASE + i, FORM_BASE + j)
            d_forms.setdefault(FORM_BASE + a + 1, {})[key] = -c.conjugate()
    if d_forms and fr.abelian:
        raise InternalInvariantError("abelian structure produced a (0,2) part in d ow")
    for m in range(FORM_BASE + 1, FORM_BASE + n + 1):
        if m in d_forms:
            images[m] = MixedElement(d_forms[m])
        for k in range(1, n + 1):
            if (k, m) in contractions:
                brackets[k][m] = MixedElement(contractions[(k, m)])
                brackets[m][k] = -brackets[k][m]
    return images, brackets


def derivation_table(images: dict[int, MixedElement], n: int) -> list[tuple]:
    """The generator images compiled for `_leibniz` and `derivation_matrix`:
    (bit g, terms), g ascending, each term (image mask I, sign mask B, c,
    -c, vector half, form half) with B the XOR of g - 1 and of b - 1 over
    the bits b of I, a half being (g, I, B, |I| - |g|) on its n bits."""
    low = (1 << n) - 1
    table = []
    for code, img in images.items():
        bit = mono_mask((code,), n)
        terms = []
        for mono, c in img.terms.items():
            mask = mono_mask(mono, n)
            signs = bit - 1
            for g in mono:
                signs ^= mono_mask((g,), n) - 1
            halves = ((bit & low, mask & low, signs & low),
                      (bit >> n, mask >> n, signs >> n))
            terms.append((mask, signs, c, -c, *[
                (g, i, b, i.bit_count() - (g != 0)) for g, i, b in halves]))
        if terms:
            table.append((bit, terms))
    table.sort(key=lambda entry: entry[0])
    return table


def split_table(table: list[tuple], mask: int) -> dict[int, list[tuple]]:
    """The terms of a compiled table by the count of factors on the bits of
    mask that each adds, |I & mask| - |g & mask|: {shift: table}."""
    parts: dict = {}
    for g, terms in table:
        for term in terms:
            shift = (term[0] & mask).bit_count() - (g & mask).bit_count()
            parts.setdefault(shift, {}).setdefault(g, []).append(term)
    return {shift: list(part.items()) for shift, part in parts.items()}


def _leibniz(table: list[tuple], src: int, coeff, out: dict) -> None:
    """Add coeff * D(src) into the sparse terms out, keyed by mask, D the
    derivation with this compiled table.

    With R = src without g_t, moving I to the front turns the graded term of
    an image monomial I into (-1)^(t-1) I ^ R, and I ^ R is canonical up to
    the parity of the pairs x in I, y in R with y < x.  The factors of R below g_t number t - 1, so
    the whole sign is the parity of the popcount of R & B.
    """
    for g, terms in table:
        if not src & g:
            continue
        rest = src ^ g
        for mask, signs, c, neg, _, _ in terms:
            if mask & rest:
                continue
            c = coeff * (neg if (rest & signs).bit_count() & 1 else c)
            m = mask | rest
            # inline, not `_axpy`: one call per term would cost more
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s := s + c:
                out[m] = s
            else:
                del out[m]


def apply_table(table: list[tuple], n: int, e: MixedElement) -> MixedElement:
    """The derivation with this compiled table, applied to e."""
    out: dict = {}
    for mono, coeff in e.terms.items():
        _leibniz(table, mono_mask(mono, n), coeff, out)
    return MixedElement({mask_mono(m, n): c for m, c in out.items()})


def _half_map(n: int, half: tuple, k: int, scale: int, tscale: int) -> list:
    """A term's half on its n bits, over the k-subsets S that hold its g (0
    when g is in the other half) and meet I only there: (rank of S * scale,
    rank of I | R * tscale, parity of R & B) with R = S without g."""
    g, image, signs, change = half
    ranks = subset_ranks(n, k + change)
    return [(c * scale, ranks[r | image] * tscale, (r & signs).bit_count() & 1)
            for c, s in enumerate(subset_masks(n, k))
            if s & g == g and not (r := s ^ g) & image]


def derivation_matrix(table: list[tuple], n: int, source: tuple[int, int],
                      target: tuple[int, int], where: str) -> ExactMatrix:
    """The derivation with this compiled table from cell source = (p, q) to
    cell target = (p', q'), in `cell_monomials` order.  A term moves the two
    halves of a monomial on their own, with the sum of their sign parities,
    so its entries pair the entries of two half maps, each built once per
    call: column c_v C(n, q) + c_f, row r_v C(n, q') + r_f, sign s_v + s_f.
    Terms go in `_leibniz` order, and so do the entries of each column; a
    generator that no source monomial holds (a vector one at p = 0, a form
    one at q = 0) is skipped before its half maps are built."""
    (p, q), (tp, tq) = source, target
    cq, ctq = len(subset_masks(n, q)), len(subset_masks(n, tq))
    cols = [{} for _ in range(len(subset_masks(n, p)) * cq)]
    vmaps, fmaps, strays = {}, {}, []
    for g, terms in table:
        if not (q if g >> n else p):
            continue
        for mask, _, c, neg, vhalf, fhalf in terms:
            if vhalf not in vmaps:
                vmaps[vhalf] = _half_map(n, vhalf, p, cq, ctq)
            if fhalf not in fmaps:
                fmaps[fhalf] = _half_map(n, fhalf, q, 1, 1)
            vmap, fmap = vmaps[vhalf], fmaps[fhalf]
            if not (vmap and fmap):
                continue
            if vhalf[3] != tp - p or fhalf[3] != tq - q:
                # name what `_leibniz` meets first: first column, first term
                strays.append((vmap[0][0] + fmap[0][0], len(strays), g, mask))
                continue
            for cv, rv, sv in vmap:
                a, b = (neg, c) if sv else (c, neg)
                for cf, rf, sf in fmap:
                    col, row, x = cols[cv + cf], rv + rf, b if sf else a
                    # inline, not `_axpy`: this is the hot loop of assembly
                    s = col.get(row)
                    if s is None:
                        col[row] = x
                    elif s := s + x:
                        col[row] = s
                    else:
                        del col[row]
    if strays:
        j, _, g, mask = min(strays)
        src = subset_masks(n, p)[j // cq] | subset_masks(n, q)[j % cq] << n
        mono = mono_str(mask_mono(mask | src ^ g, n))
        raise InternalInvariantError(f"{where}: monomial {mono} outside basis")
    return ExactMatrix(cols, len(subset_masks(n, tp)) * ctq)


def dbar_cell(table: list[tuple], n: int, p: int,
              q: int) -> tuple[CellBasis, ExactMatrix | None]:
    """The basis of cell (p, q), decoded only where read, and the matrix of
    dbar with this compiled table out of it; None, the zero map, at q = n
    and when the table is empty (the tori): only this decides it."""
    mat = (derivation_matrix(table, n, (p, q), (p, q + 1), "dbar")
           if table and q < n else None)
    return CellBasis(n, [(p, q)]), mat


def dbar(ctx: CalculusContext, e: MixedElement) -> MixedElement:
    return apply_table(ctx.dbar_table, ctx.n, e)


def ad_images(ctx: CalculusContext, a: MixedElement) -> dict[int, MixedElement]:
    """The nonzero generator images [a, h] = -[h, a] of [a, .]."""
    images = {}
    for h, table in ctx.bracket_tables.items():
        val = apply_table(table, ctx.n, a)
        if val:
            images[h] = -val
    return images


def schouten(ctx: CalculusContext, a: MixedElement, b: MixedElement) -> MixedElement:
    return apply_table(derivation_table(ad_images(ctx, a), ctx.n), ctx.n, b)
