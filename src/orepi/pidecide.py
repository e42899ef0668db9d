"""The PI decision and the engine check of its NotPI witnesses.

Each family's criterion is one decider, a record of ``center._CRITERIA``;
this module is the entry point that builds a spec's presentation and
hands it to the decider, which builds a PI verdict's central set in that
presentation, and the check that a NotPI verdict's quantum-plane witness
holds in the algebra.
"""

from .center import _CRITERIA
from .errors import FamilyMismatch
from .presentations import build_family
from .rewrite import product_memo, q_commutator


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
    """Engine-check a NotPI witness's defining relation: y x - param x y
    normalizes to 0, its products sharing one product memo."""
    p = build_family(spec)
    with product_memo():
        return q_commutator(p, w.y_elem, w.x_elem, w.param).is_zero()
