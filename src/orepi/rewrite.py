"""PBW normal forms and diamond-lemma confluence checking.

normal_form straightens a word one letter at a time from the right: each
generator is inserted into an irreducible word, where the only possible
redex is at the front, and the products that rewrite are memoized.  The
strategy is fixed, so outputs are deterministic, and the strictly
decreasing term order guarantees termination.  On a confluent
presentation every strategy gives the same normal form; on a
non-confluent one the result is one irreducible representative.
overlap_check enumerates every word with two distinct one-step
reductions (proper overlaps and containments) and reports the residual
of each critical pair; by the diamond lemma all residuals vanish
exactly when the presentation is confluent, whatever the strategy.
"""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import CtxMismatch


class NCPoly:
    """Finitely supported map from irreducible words to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, coeff, word):
        if coeff.is_zero():
            return cls({})
        return cls({tuple(word): coeff})

    def is_zero(self):
        return not self.terms

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def coeff(self, word):
        return self.terms.get(tuple(word))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            if w in out:
                s = out[w] + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
            else:
                out[w] = c
        return NCPoly(out)

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if coeff.is_zero():
            return NCPoly({})
        return NCPoly({w: c * coeff for w, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[w] == c for w, c in self.terms.items())

    def as_formal(self):
        return [(c, w) for w, c in self.terms.items()]

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def pretty(self, p):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=p.order_key):
            bits.append(f"({self.terms[w]!r})*{p.word_str(w)}")
        return " + ".join(bits)

    def __repr__(self):
        return f"NCPoly({len(self.terms)} terms)"


def _formal_terms(input_poly):
    if isinstance(input_poly, NCPoly):
        return input_poly.as_formal()
    return list(input_poly)


# ---------------------------------------------------------------------------
# the straightener
# ---------------------------------------------------------------------------
# A word enters its normal form one letter at a time, from the right.  When
# a generator g meets an irreducible word u, every redex of g*u starts at
# position 0, so g*u is either irreducible or rewritten there by the first
# matching rule (in rule order).  The products g*u that do rewrite are
# memoized as normal forms; a memo lives for one call, or for a whole
# product_memo() scope.  Missing products are computed on an explicit stack
# of generators, so long words never deepen the Python stack.

_SCOPE = ContextVar("orepi_product_memo", default=None)


def rule_table(rules, one):
    """The straightener's rules-by-first-letter table, built once for
    each presentation.

    Maps a generator to ((len(lhs) - 1, lhs[1:], rhs), ...) in rule order.
    rhs[n] holds the (word, coefficient) pairs of the right side whose
    words have length n, with like words merged.  A coefficient with the
    representation of 1 becomes the object one, which the straightener
    never multiplies by.
    """
    table = {}
    for rule in rules:
        merged = {}
        for c, w in rule.rhs:
            merged[w] = merged[w] + c if w in merged else c
        rhs = [[] for _ in range(max(map(len, merged), default=0) + 1)]
        for w, c in merged.items():
            if not c.is_zero():
                rhs[len(w)].append((w, one if c.val == one.val else c))
        table.setdefault(rule.lhs[0], []).append(
            (len(rule.lhs) - 1, rule.lhs[1:], tuple(map(tuple, rhs))))
    return {g: tuple(entries) for g, entries in table.items()}


@contextmanager
def product_memo():
    """Share memoized products among every rewrite call made inside.

    The memo is dropped when the outermost scope exits; nested scopes
    reuse it.  Nothing is stored on the presentations involved.
    """
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _memo(p):
    """The product memo of p in the current scope, or a fresh one."""
    scope = _SCOPE.get()
    if scope is None:
        return {}
    # keyed by id; the entry holds p, so the id stays unique in the scope
    entry = scope.get(id(p))
    if entry is None:
        entry = scope[id(p)] = (p, {})
    return entry[1]


def _add(acc, word, c):
    if word in acc:
        s = acc[word] + c
        if s.is_zero():
            del acc[word]
        else:
            acc[word] = s
    else:
        acc[word] = c


def _straighten(p, levels, memo):
    """Generator returning the normal form of a sum of prefix * poly.

    levels[n] maps each prefix of length n to its poly, a dict from
    irreducible words to coefficients.  Prefixes give up their last
    letter longest first, so like terms merge before the next letter goes
    in.  A product g*u missing from the memo is requested by yielding
    (g*u, the rest of u after the redex, the rule's rhs levels); the
    driver (_run) sends back its normal form.
    """
    one, by_first = p.one, p.by_first
    for n in range(len(levels) - 1, 0, -1):
        shorter = levels[n - 1]
        for prefix, poly in levels[n].items():
            g, key = prefix[-1], prefix[:-1]
            rules = by_first.get(g, ())
            out = shorter.get(key)
            if out is None:
                if not rules:
                    shorter[key] = {(g,) + u: c for u, c in poly.items()}
                    continue
                out = shorter[key] = {}
            for u, c in poly.items():
                gu = (g,) + u
                for k, tail, rhs in rules:
                    if u[:k] == tail:
                        prod = memo.get(gu)
                        if prod is None:
                            prod = yield gu, u[k:], rhs
                        for w, pc in prod.items():
                            _add(out, w, pc if c is one else
                                 c if pc is one else c * pc)
                        break
                else:
                    _add(out, gu, c)
        levels[n] = None
    return levels[0].get((), {})


def _run(p, levels, memo):
    """Normal form (a dict) of the straightener input levels.  Missing
    products are computed, and memoized, on an explicit stack."""
    if len(levels) == 1:
        return levels[0].get((), {})
    stack = [(None, _straighten(p, levels, memo))]
    value = None
    while True:
        try:
            word, rest, rhs = stack[-1][1].send(value)
        except StopIteration as done:
            word = stack.pop()[0]
            if not stack:
                return done.value
            value = memo[word] = done.value
        else:
            levels = [{rw: {rest: rc} for rw, rc in bucket} for bucket in rhs]
            stack.append((word, _straighten(p, levels, memo)))
            value = None


def _split(p, word):
    """(prefix, irreducible suffix) of word, cut after its rightmost redex start."""
    for i in range(len(word) - 2, -1, -1):
        for k, tail, _ in p.by_first.get(word[i], ()):
            if word[i + 1:i + 1 + k] == tail:
                return word[:i + 1], word[i + 1:]
    return (), word


def _levels(p, terms):
    """Straightener input for the formal sum of (coefficient, word) terms."""
    ctx = p.ctx
    levels = [{}]
    for c, w in terms:
        cctx = getattr(c, "ctx", ctx)
        if cctx is not ctx and cctx != ctx:
            raise CtxMismatch("coefficient from a different field")
        if not c.is_zero():
            prefix, suffix = _split(p, tuple(w))
            while len(levels) <= len(prefix):
                levels.append({})
            _add(levels[len(prefix)].setdefault(prefix, {}), suffix, c)
    return levels


def normal_form(p, input_poly):
    """Rewrite a formal polynomial (or NCPoly) to its normal form."""
    levels = _levels(p, _formal_terms(input_poly))
    return NCPoly(_run(p, levels, _memo(p)))


def multiply(p, a, b):
    """Normal form of the concatenation product of two polynomials."""
    formal = []
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            formal.append((ca * cb, wa + wb))
    return normal_form(p, formal)


def multiply_assoc(p, a, b):
    # kept as a name: the benchmark tracer resolves rewrite.multiply_assoc
    return multiply(p, a, b)


def q_commutator(p, a, b, lam):
    """normal_form(a*b - lam * b*a); lam = 1 gives the plain commutator."""
    formal = []
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            formal.append((ca * cb, wa + wb))
            formal.append((-(lam * cb * ca), wb + wa))
    return normal_form(p, formal)


def gen_poly(p, name):
    return NCPoly.monomial(p.ctx.one(), (p.gen(name),))


def word_poly(p, *names):
    return NCPoly.monomial(p.ctx.one(), p.word(*names))


class CriticalPair:
    """One ambiguously reducible word and the outcome of both reductions."""

    __slots__ = ("word", "kind", "rule_a", "rule_b", "pos_b",
                 "reduct_a", "reduct_b", "nf_a", "nf_b", "residual")

    def __init__(self, word, kind, rule_a, rule_b, pos_b,
                 reduct_a, reduct_b, nf_a, nf_b, residual):
        self.word = word
        self.kind = kind  # "overlap" or "containment"
        self.rule_a = rule_a
        self.rule_b = rule_b
        self.pos_b = pos_b
        self.reduct_a = reduct_a
        self.reduct_b = reduct_b
        self.nf_a = nf_a
        self.nf_b = nf_b
        self.residual = residual

    @property
    def resolves(self):
        return self.residual.is_zero()


class ConfluenceReport:
    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = list(pairs)

    @property
    def confluent(self):
        return all(cp.resolves for cp in self.pairs)

    def failing(self):
        return [cp for cp in self.pairs if not cp.resolves]

    def __repr__(self):
        state = "confluent" if self.confluent else \
            f"non-confluent ({len(self.failing())} bad pairs)"
        return f"<ConfluenceReport {len(self.pairs)} pairs, {state}>"


def _apply_at(p, word, rule, pos):
    pre, suf = word[:pos], word[pos + len(rule.lhs):]
    return [(c, pre + rw + suf) for c, rw in rule.rhs]


def overlap_check(p):
    """Enumerate critical pairs (overlaps and containments) and reduce both sides."""
    pairs = []
    rules = p.rules
    seen = set()
    for ia, ra in enumerate(rules):
        la = ra.lhs
        for ib, rb in enumerate(rules):
            lb = rb.lhs
            # proper overlap: a suffix of la equals a prefix of lb
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] == lb[:k]:
                    word = la + lb[k:]
                    pos_b = len(la) - k
                    sig = (word, ia, 0, ib, pos_b)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    pairs.append(_make_pair(p, word, "overlap",
                                            ia, ra, ib, rb, pos_b))
            # containment: lb occurs strictly inside la
            if ia != ib and len(lb) < len(la):
                for t in range(len(la) - len(lb) + 1):
                    if la[t:t + len(lb)] == lb:
                        sig = (la, ia, 0, ib, t)
                        if sig in seen:
                            continue
                        seen.add(sig)
                        pairs.append(_make_pair(p, la, "containment",
                                                ia, ra, ib, rb, t))
    return ConfluenceReport(pairs)


def _make_pair(p, word, kind, ia, ra, ib, rb, pos_b):
    reduct_a = _apply_at(p, word, ra, 0)
    reduct_b = _apply_at(p, word, rb, pos_b)
    nf_a = normal_form(p, reduct_a)
    nf_b = normal_form(p, reduct_b)
    return CriticalPair(word, kind, ia, ib, pos_b, reduct_a, reduct_b,
                        nf_a, nf_b, nf_a - nf_b)


def specialize_poly(poly, assignment, target_ctx):
    """Apply a parameter specialization to every coefficient."""
    out = {}
    for w, c in poly.terms.items():
        v = c.specialize(assignment, target_ctx)
        if not v.is_zero():
            out[w] = v
    return NCPoly(out)
