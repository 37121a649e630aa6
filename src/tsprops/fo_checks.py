"""Local property tests evaluated directly on the generators.

Each check quantifies over generator pairs and points only — no closure is
ever computed.  Commutativity of all generator pairs extends to the whole
semigroup because products of generators inherit it letter by letter; the
group test rests on the shared-kernel / shared-image characterization.
"""

from __future__ import annotations

from .core import GeneratorSet, compose, image, is_idempotent, kernel
from .report import PropertyReport, ReportBuilder, remembered


@remembered
def is_commutative(gens: GeneratorSet) -> PropertyReport:
    """True iff every pair of generators commutes pointwise."""
    rb = ReportBuilder("commutative", gens, "structural")
    k = len(gens)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = gens[i], gens[j]
            ab = compose(a, b)
            ba = compose(b, a)
            if ab.map != ba.map:
                q = next(p for p in range(1, gens.degree + 1)
                         if ab.apply(p) != ba.apply(p))
                return rb.false({
                    "kind": "non-commuting",
                    "first": i + 1,
                    "second": j + 1,
                    "point": q,
                    "point_images": [ab.apply(q), ba.apply(q)],
                })
    return rb.true()


def is_semilattice(gens: GeneratorSet) -> PropertyReport:
    """True iff every generator is idempotent and the generators commute."""
    rb = ReportBuilder("semilattice", gens, "structural")
    for i, g in enumerate(gens):
        if not is_idempotent(g):
            return rb.false({"kind": "non-idempotent-generator",
                             "generator": i + 1,
                             "square": list(compose(g, g).map)})
    inner = is_commutative(gens)
    if not inner.verdict:
        return rb.false(inner.witness)
    return rb.true()


def is_group(gens: GeneratorSet) -> PropertyReport:
    """Shared image, bijective on that image, shared kernel.

    Together these force every generator to permute a common set that every
    element then also permutes, which yields inverses inside the semigroup.
    """
    rb = ReportBuilder("group", gens, "structural")
    base_image = image(gens[0])
    for i, g in enumerate(gens):
        if image(g) != base_image:
            return rb.false({
                "kind": "group-condition",
                "condition": "common-image",
                "generator": i + 1,
                "images": [sorted(base_image), sorted(image(g))],
            })
    for i, g in enumerate(gens):
        restricted = {g.apply(q) for q in base_image}
        if restricted != base_image:
            return rb.false({
                "kind": "group-condition",
                "condition": "permutes-image",
                "generator": i + 1,
                "image": sorted(base_image),
            })
    base_kernel = kernel([gens[0]])
    for i, g in enumerate(gens):
        if kernel([g]).classes != base_kernel.classes:
            return rb.false({
                "kind": "group-condition",
                "condition": "common-kernel",
                "generator": i + 1,
                "kernels": [[list(c) for c in base_kernel.classes],
                            [list(c) for c in kernel([g]).classes]],
            })
    return rb.true()
