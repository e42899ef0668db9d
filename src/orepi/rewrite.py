"""PBW normal forms and diamond-lemma confluence checking.

The straightener (its section below) has one fixed strategy, so outputs
are deterministic, and the strictly decreasing term order guarantees
termination.  On a confluent presentation every strategy gives the same
normal form; on a non-confluent one the result is one irreducible
representative.  Everything inside computes on bare payloads of the presentation's field
with the field's own add, mul and is_zero, bound once per presentation
(Presentation.field_ops): the rule table, the input, the product memo,
the NCPoly results (ctx and a dict word -> payload, the straightener's
dict held as it is) and product_terms, which writes out the (word,
payload) terms of c*a*b for multiply and q_commutator to straighten.
normal_form checks and unwraps a (Coeff, word) list as it enters.  1 is
the payload p.one.val, which is never multiplied by; an input
coefficient equal to 1 enters as it.  One loop, _straighten, pushes
every generator into a normal form: the letters of normal_form's input,
and the generators of left_multiply's batch of (generator, row) pairs,
whose rows are payload dicts, the row format of linalg.SpanTracker; the
batch is straightened once, and stops with each generator pushed onto
its own row, so a row costs a memo lookup per term once its products
are memoized.
overlap_check enumerates every word with two distinct one-step
reductions (proper overlaps and containments) and reports the residual
of each critical pair; by the diamond lemma all residuals vanish
exactly when the presentation is confluent, whatever the strategy.

A call made outside every product_memo() scope shares its presentation's
product memo (Presentation.memo), which lives as long as the
presentation, so each call reads the products earlier ones stored.  A
scope opens a private memo for the calls made inside it and drops it at
exit, so a verdict's products are not kept.  An entry is the normal form
of its word under the one fixed strategy, stored only once finished, so
a warm memo gives the same dicts, payloads and key order as a cold one,
on a confluent presentation or not.

A trailing run of inert letters (Presentation.inert: letters in no left
side past that side's first letter, and no one-letter left side) takes
part in no rewrite, so a product is straightened once for its core, the
word without that run, and the run is appended to every word of the
core's normal form: the same rewrite steps, in the same order.

A product g*u missing from the memo (rest: u past the left side) needs
no straightener frame when the rule's plan, compiled once per
presentation, applies.  When every right-side word rw is irreducible and
rest starts with none of the plan's prefixes, the rest prefixes that
would start a redex inside some rw, g*u is the sum of c*rw*rest.  A
one-term right side c*a*b, with no rule starting at a, is also c*a times
the memoized normal form of b*rest.  Either way the product is the
straightener's own dict, and is memoized as any other.

A left side may have one letter: a rule g -> rhs rewrites every
occurrence of g, the last letter of a word too.  The input's words are
cut after their rightmost redex start, which no left side lets begin in
the last Presentation.min_lhs - 1 letters, so words are scanned from
their last letter only when some left side has one.
"""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import CtxMismatch
from .fields import Coeff


def _field(ctx, other):
    """The one field of two operands, None standing for a zero with none."""
    if ctx is None or other is None or ctx is other:
        return ctx or other
    if ctx != other:
        raise CtxMismatch(f"{ctx!r} vs {other!r}")
    return ctx


class NCPoly:
    """Finitely supported map from words to nonzero coefficients: its field
    ctx and vals, a dict word -> payload.  The public edge speaks Coeff
    (NCPoly(terms), monomial, scale, coeff, iteration, as_formal, the fresh
    dict terms, pretty) and checks the field once per call.  NCPoly() and
    NCPoly.zero() have no field (ctx None): they take the operand's."""

    __slots__ = ("ctx", "vals")

    def __init__(self, terms=None):
        self.ctx, self.vals = None, {}
        for w, c in dict(terms or {}).items():
            self.ctx = _field(self.ctx, c.ctx)
            if not c.is_zero():
                self.vals[w] = c.val

    @classmethod
    def from_payloads(cls, ctx, vals):
        """The polynomial of ctx holding vals, nonzero payloads, as it is."""
        poly = cls.__new__(cls)
        poly.ctx, poly.vals = ctx, vals
        return poly

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, coeff, word):
        return cls.from_payloads(coeff.ctx, {} if coeff.is_zero()
                                 else {tuple(word): coeff.val})

    @property
    def terms(self):
        return {w: Coeff(self.ctx, c) for w, c in self.vals.items()}

    def is_zero(self):
        return not self.vals

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __len__(self):
        return len(self.vals)

    def coeff(self, word):
        c = self.vals.get(tuple(word))
        return None if c is None else Coeff(self.ctx, c)

    def __add__(self, other):
        ctx = _field(self.ctx, other.ctx)
        out = dict(self.vals)
        for w, c in other.vals.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            elif ctx.is_zero(s := ctx.add(s, c)):
                del out[w]
            else:
                out[w] = s
        return type(self).from_payloads(ctx, out)

    def __neg__(self):
        return type(self).from_payloads(self.ctx, {
            w: self.ctx.neg(c) for w, c in self.vals.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, coeff):
        ctx, k = _field(self.ctx, coeff.ctx), coeff.val
        return NCPoly.from_payloads(ctx, {} if ctx.is_zero(k) else {
            w: ctx.mul(c, k) for w, c in self.vals.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        ctx = _field(self.ctx, other.ctx)
        a, b = self.vals, other.vals
        # equal payloads are equal values in every field; ctx.eq decides
        # the rest (a Q(params) value has several payloads)
        if a == b:
            return True
        return a.keys() == b.keys() and all(ctx.eq(b[w], c) for w, c in a.items())

    def as_formal(self):
        return [(Coeff(self.ctx, c), w) for w, c in self.vals.items()]

    def pretty(self, p):
        return " + ".join(f"({self.ctx.to_str(self.vals[w])})*{p.word_str(w)}"
                          for w in sorted(self.vals, key=p.order_key)) or "0"

    def __repr__(self):
        return f"NCPoly({len(self.vals)} terms)"


# ---------------------------------------------------------------------------
# the straightener
# ---------------------------------------------------------------------------
# A word enters its normal form one letter at a time, from the right.  When
# a generator g meets an irreducible word u, every redex of g*u starts at
# position 0, so g*u is either irreducible or rewritten there by the first
# matching rule (in rule order).  The products g*u that do rewrite are
# memoized as normal forms: in the presentation's own memo, shared by the
# calls made outside every scope, or in a product_memo() scope's private
# one (see the module docstring).  Missing products are computed on an
# explicit stack of generators, so long words never deepen the Python stack.
# This is the one loop that pushes a generator: left_multiply's rows go
# through it too, each behind an int tag of its own that is never pushed.
#
# No left side holds an inert letter past its first position or is one, so
# no redex reaches into a trailing run s of inert letters: every rewrite
# step of g*core*s is a step of g*core with s appended.  A product whose
# rest ends in s is memoized as its core's normal form and as that dict
# with s appended to every word; a later miss with that core copies it.

_SCOPE = ContextVar("orepi_product_memo", default=None)


def rule_table(rules, one):
    """The straightener's rules-by-first-letter table, built once for
    each presentation.

    Maps a generator to ((len(lhs) - 1, lhs[1:], rhs, plan), ...) in
    rule order.  rhs[n] holds the (word, payload) pairs of the right side
    whose words have length n, with like words merged; a payload is the
    bare value of a coefficient in the field of one (a coefficient of
    another field raises CtxMismatch).  A coefficient equal to 1 becomes
    the payload one.val itself, which the straightener never multiplies
    by.  plan is the rule's missing product without a frame (_plan), or
    None.
    """
    table = {}
    for rule in rules:
        merged = {}
        for c, w in rule.rhs:
            merged[w] = merged[w] + c if w in merged else c
        rhs = [[] for _ in range(max(map(len, merged), default=0) + 1)]
        for w, c in merged.items():
            if not c.is_zero():
                rhs[len(w)].append((w, one.val if c == one else c.val))
        table.setdefault(rule.lhs[0], []).append(
            (len(rule.lhs) - 1, rule.lhs[1:], tuple(map(tuple, rhs))))
    return {g: tuple((k, tail, rhs, _plan(rhs, table))
                     for k, tail, rhs in entries)
            for g, entries in table.items()}


def _plan(rhs, table):
    """(terms, lengths, heads, prepend) for a rule's right side rhs, or
    None.

    terms are its (rw, payload) pairs in the key order the straightener
    gives the words rw*rest when none of them rewrites.  heads holds the
    rest prefixes that complete a left side begun inside some rw, and
    lengths their lengths, ascending; the empty prefix stands for a left
    side inside rw.  When rest starts with none of them, every rw*rest is
    irreducible, and g*u is {rw + rest: payload}.  prepend is (c, a, b)
    for a right side c*a*b whose a starts no rule, else None: then g*u is
    c*a times the normal form of b*rest, read from the memo, since a*w is
    irreducible for every irreducible w.  A rule with neither is None.
    """
    terms = [term for bucket in rhs for term in bucket]
    if len(terms) > 1:
        # the straightener merges the words by prefix, longest first
        levels = [{rw: [rw] for rw, _ in bucket} for bucket in rhs]
        for n in range(len(levels) - 1, 0, -1):
            for prefix, words in levels[n].items():
                levels[n - 1].setdefault(prefix[:-1], []).extend(words)
        payload = dict(terms)
        terms = [(rw, payload[rw]) for rw in levels[0][()]]
    heads = set()
    for rw, _ in terms:
        for i, a in enumerate(rw, 1):
            # a left side a*tail at a, with j letters of rw after a
            j = len(rw) - i
            for k, tail, _ in table.get(a, ()):
                if tail[:j] == rw[i:i + k]:
                    heads.add(tail[j:])
    prepend = None
    if len(terms) == 1:
        [(rw, c)] = terms
        if len(rw) == 2 and rw[0] not in table:
            prepend = c, rw[0], rw[1]
    if () in heads and prepend is None:
        return None
    return (tuple(terms), tuple(sorted(set(map(len, heads)))),
            frozenset(heads), prepend)


@contextmanager
def product_memo():
    """Share one private product memo among every rewrite call made
    inside, in place of the presentations' own.

    The memo is dropped when the outermost scope exits; nested scopes
    reuse it.  Nothing is stored on the presentations involved: a
    verdict's products, however many, go with its scope.
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
    """The product memo of p in the current scope, or p's own outside
    every scope."""
    scope = _SCOPE.get()
    if scope is None:
        return p.memo
    # keyed by id; the entry holds p, so the id stays unique in the scope
    entry = scope.get(id(p))
    if entry is None:
        entry = scope[id(p)] = (p, {})
    return entry[1]


def _straighten(p, levels, memo, stop=0):
    """Generator straightening a sum of prefix * poly down to its
    prefixes of length stop, and returning levels[stop].

    levels[n] maps each prefix of length n to its poly, a dict from
    irreducible words to payloads.  Prefixes give up their last letter
    longest first, so like terms merge before the next letter goes in.
    With stop 0 the result holds the normal form at the prefix (), if any
    term is left; left_multiply stops at 1.  A product g*u missing from
    the memo is requested by yielding (g*u, the rest of u after the
    redex, the rule's rhs levels and plan); the driver (_run) sends back
    its normal form.
    """
    one, by_first = p.one.val, p.by_first
    add, mul, is_zero = p.field_ops
    for n in range(len(levels) - 1, stop, -1):
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
                for k, tail, rhs, plan in rules:
                    if u[:k] == tail:
                        prod = memo.get(gu)
                        if prod is None:
                            prod = yield gu, u[k:], rhs, plan
                        # the accumulation is inlined here, below and in
                        # _levels: it runs once per term, and a helper call
                        # would cost about as much as the field's add
                        for w, pc in prod.items():
                            if c is not one:
                                pc = c if pc is one else mul(c, pc)
                            s = out.get(w)
                            if s is None:
                                out[w] = pc
                            elif is_zero(s := add(s, pc)):
                                del out[w]
                            else:
                                out[w] = s
                        break
                else:
                    s = out.get(gu)
                    if s is None:
                        out[gu] = c
                    elif is_zero(s := add(s, c)):
                        del out[gu]
                    else:
                        out[gu] = s
        levels[n] = None
    return levels[stop]


def _run(p, frame, memo):
    """What the _straighten frame returns.  The products it asks for are
    computed, and memoized, on an explicit stack, each in a _straighten
    frame of its own.

    A product whose rule's plan applies needs no frame of its own: it is
    the planned terms followed by rest, or a prepended to the memoized
    normal form of b*rest (see _plan).
    """
    one, inert, mul = p.one.val, p.inert, p.field_ops[1]
    stack = [(None, (), frame)]
    value = None
    while True:
        try:
            word, rest, rhs, plan = stack[-1][2].send(value)
        except StopIteration as done:
            word, run, _ = stack.pop()
            if not stack:
                return done.value
            value = _store(memo, word, run, done.value.get((), {}), one)
            continue
        run = ()
        if rest and rest[-1] in inert:
            n = len(rest) - 1
            while n and rest[n - 1] in inert:
                n -= 1
            run, rest = rest[n:], rest[:n]
            word = word[:len(word) - len(run)]
            core = memo.get(word)
            if core is not None:
                value = memo[word + run] = {w + run: c
                                            for w, c in core.items()}
                continue
        if plan is not None:
            terms, lengths, heads, prepend = plan
            for n in lengths:
                if rest[:n] in heads:
                    break
            else:
                value = _store(memo, word, run,
                               {rw + rest: c for rw, c in terms}, one)
                continue
            if prepend is not None:
                c, a, b = prepend
                prod = memo.get((b,) + rest)
                if prod is not None:
                    value = _store(memo, word, run, {
                        (a,) + w: pc if c is one else c if pc is one
                        else mul(c, pc) for w, pc in prod.items()}, one)
                    continue
        levels = [{rw: {rest: rc} for rw, rc in bucket} for bucket in rhs]
        stack.append((word, run, _straighten(p, levels, memo)))
        value = None


def _store(memo, word, run, value, one):
    """Memoize value, the normal form of word, and return that of word +
    run, the same dict when run is empty.  Each entry is inserted
    finished, since another thread may read a presentation's memo: the
    payloads of value equal to 1 are rewritten first, and the copy with
    run is built before it is inserted."""
    # a product is reused at every hit: store its coefficients equal to 1
    # as the payload one, which is never multiplied by (equal payloads are
    # equal values, and much cheaper to test)
    for w, c in value.items():
        if c is not one and c == one:
            value[w] = one
    memo[word] = value
    if run:
        value = memo[word + run] = {w + run: c for w, c in value.items()}
    return value


def _split(p, word):
    """(prefix, irreducible suffix) of word, cut after its rightmost redex
    start, which leaves at least p.min_lhs letters from it to the end."""
    for i in range(len(word) - p.min_lhs, -1, -1):
        for k, tail, _, _ in p.by_first.get(word[i], ()):
            if word[i + 1:i + 1 + k] == tail:
                return word[:i + 1], word[i + 1:]
    return (), word


def _levels(p, terms):
    """Straightener input for the sum of (word, payload) terms."""
    one, (add, _, is_zero) = p.one.val, p.field_ops
    levels = [{}]
    for w, c in terms:
        if is_zero(c):
            continue
        if c is not one and c == one:
            c = one
        prefix, suffix = _split(p, tuple(w))
        while len(levels) <= len(prefix):
            levels.append({})
        acc = levels[len(prefix)].setdefault(prefix, {})
        s = acc.get(suffix)
        if s is None:
            acc[suffix] = c
        elif is_zero(s := add(s, c)):
            del acc[suffix]
        else:
            acc[suffix] = s
    return levels


def _normal(p, terms):
    """The NCPoly normal form of (word, payload) terms: the straightener's dict."""
    levels = _levels(p, terms)
    vals = levels[0].get((), {})
    if len(levels) > 1:
        memo = _memo(p)
        vals = _run(p, _straighten(p, levels, memo), memo).get((), {})
    return NCPoly.from_payloads(p.ctx, vals)


def normal_form(p, input_poly):
    """Rewrite a formal polynomial, a list of (Coeff, word) terms, or an
    NCPoly to its normal form.  A formal list is checked against p's
    field and unwrapped term by term as it enters, an NCPoly once."""
    ctx = p.ctx
    if isinstance(input_poly, NCPoly):
        _field(ctx, input_poly.ctx)
        return _normal(p, input_poly.vals.items())
    return _normal(p, [(w, c.val) for c, w in input_poly
                       if c.ctx is ctx or _field(ctx, c.ctx)])


def product_terms(p, a, b, c=None):
    """The (word, payload) terms of c*a*b, the straightener's input, for
    polynomials a, b over p and a Coeff c (None for 1).  No product with
    the payload p.one.val is formed."""
    one, mul = p.one.val, p.field_ops[1]
    _field(_field(p.ctx, a.ctx), b.ctx)
    if c is not None:
        _field(p.ctx, c.ctx)
        c = c.val
    formal = []
    for wa, ca in a.vals.items():
        if c is not None and c is not one:
            ca = c if ca is one else mul(c, ca)
        for wb, cb in b.vals.items():
            formal.append((wa + wb, cb if ca is one else ca if cb is one
                           else mul(ca, cb)))
    return formal


def multiply(p, a, b):
    """Normal form of the concatenation product of two polynomials."""
    return _normal(p, product_terms(p, a, b))


def left_multiply(p, pairs):
    """The normal forms of g*terms, for each pair (g, terms) of a
    generator and a normal form over p, as a list in pair order.  A
    normal form is a payload dict (irreducible word -> nonzero payload of
    p.ctx, the format the straightener returns); terms are left as they
    are.

    One straightening does the batch: pair i enters as the prefix (i, g)
    of its terms, and the straightener stops once g is pushed, at the
    prefixes (i,), so the rows never merge.  Every word u of terms is
    irreducible, so every redex of g*u starts at g and no word is
    searched for one: g*u is copied when no rule starts there, and read
    from the product memo, or straightened and memoized, when one does.
    """
    memo = _memo(p)
    levels = [{}, {}, {(i, g): terms for i, (g, terms) in enumerate(pairs)}]
    # the prefixes (i,) are made in pair order
    return list(_run(p, _straighten(p, levels, memo, 1), memo).values())


def power(p, a, k):
    """Normal form of a^k for k >= 0; a^0 = 1.  The k products share one
    product memo."""
    out = NCPoly.monomial(p.one, ())
    with product_memo():
        for _ in range(k):
            out = multiply(p, out, a)
    return out


def multiply_assoc(p, a, b):
    # kept as a name: the benchmark tracer resolves rewrite.multiply_assoc
    return multiply(p, a, b)


def q_commutator(p, a, b, lam):
    """normal_form(a*b - lam * b*a); lam = 1 gives the plain commutator."""
    return _normal(p, product_terms(p, a, b) + product_terms(p, b, a, -lam))


def word_poly(p, *names):
    return NCPoly.monomial(p.one, p.word(*names))


class CriticalPair:
    """One ambiguously reducible word and the outcome of both reductions."""

    __slots__ = ("word", "kind", "nf_a", "nf_b", "residual")

    def __init__(self, word, kind, nf_a, nf_b, residual):
        self.word = word
        self.kind = kind  # "overlap" or "containment"
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


def _apply_at(word, rule, pos):
    pre, suf = word[:pos], word[pos + len(rule.lhs):]
    return [(c, pre + rw + suf) for c, rw in rule.rhs]


def overlap_check(p):
    """Enumerate critical pairs (overlaps and containments) and reduce both sides."""
    pairs = []
    rules = p.rules
    for ia, ra in enumerate(rules):
        la = ra.lhs
        for ib, rb in enumerate(rules):
            lb = rb.lhs
            # proper overlap: a suffix of la equals a prefix of lb
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] == lb[:k]:
                    pairs.append(_make_pair(p, la + lb[k:], "overlap",
                                            ra, rb, len(la) - k))
            # containment: lb occurs strictly inside la
            if ia != ib and len(lb) < len(la):
                for t in range(len(la) - len(lb) + 1):
                    if la[t:t + len(lb)] == lb:
                        pairs.append(_make_pair(p, la, "containment",
                                                ra, rb, t))
    return ConfluenceReport(pairs)


def _make_pair(p, word, kind, ra, rb, pos_b):
    """The critical pair of word reduced by ra at 0 and by rb at pos_b."""
    nf_a = normal_form(p, _apply_at(word, ra, 0))
    nf_b = normal_form(p, _apply_at(word, rb, pos_b))
    return CriticalPair(word, kind, nf_a, nf_b, nf_a - nf_b)


def specialize_poly(poly, assignment, target_ctx):
    """Specialize every coefficient through one payload map, the field's specializer."""
    if not poly.vals:
        return NCPoly()
    at, is_zero = poly.ctx.specializer(assignment, target_ctx), target_ctx.is_zero
    out = {w: v for w, c in poly.vals.items() if not is_zero(v := at(c))}
    return NCPoly.from_payloads(target_ctx, out)
