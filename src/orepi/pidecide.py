"""The PI decision and the engine check of its NotPI witnesses.

Each family's criterion is one decider, a record of ``center._CRITERIA``;
this module is the entry point that builds a spec's presentation and
hands it to the decider, which builds a PI verdict's central set in that
presentation, and the check that a NotPI verdict's quantum-plane witness
holds in the algebra.
"""

from .center import _CRITERIA, irreducible_words
from .errors import FamilyMismatch
from .linalg import SpanTracker
from .presentations import build_family
from .rewrite import NCPoly, multiply, product_memo, q_commutator, word_poly


def pi_decide(spec):
    """The verdict on spec, decided in its one built presentation; the
    products of the decision share one product memo."""
    decide = _CRITERIA.get(spec.family)
    if decide is None:
        raise FamilyMismatch(f"no PI decider for family {spec.family}")
    p = build_family(spec)
    with product_memo():
        return decide(p)


def verify_witness(spec, w):
    """Engine-check a NotPI witness's defining relations e f = s f e, and
    a quotient witness's parameter: r = y x - param x y lies in theta A,
    theta the normal factored element, when it is in the span of the
    rows theta * m, m each irreducible word up to deg r - deg theta.
    Sound; complete where deg(theta a) = deg theta + deg a, as in Hpq,
    whose associated graded ring is a domain.  Its products share one
    product memo."""
    p = build_family(spec)
    with product_memo():
        if w.kind == "subalgebra":
            return q_commutator(p, w.y_elem, w.x_elem, w.param).is_zero()
        if w.kind != "quotient":
            raise FamilyMismatch(f"unknown witness kind {w.kind!r}")
        th = w.factored
        if not all(q_commutator(p, th, word_poly(p, g), s).is_zero()
                   for g, s in w.normality):
            return False
        x, y = (word_poly(p, g) for g in w.plane_gens)
        r = q_commutator(p, y, x, w.param).vals
        span = SpanTracker(p.order_key, p.ctx)
        for m in irreducible_words(p, max(map(len, r), default=0)
                                   - max(map(len, th.vals))):
            span.insert(multiply(p, th, NCPoly.monomial(p.one, m)).vals)
        return span.contains(r)
