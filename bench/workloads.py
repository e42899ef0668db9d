"""Seeded task lists, with known answers, for the four benchmark workloads.

A task is one call a user makes and then waits on: an identity check, a
centrality test, a PI decision, one CLI invocation.  Each task carries
the verdict that the paper (as restated by the acceptance criteria)
promises for its input; no expected value is read back from the engine.
Every instance is a known-answer instance moved by an operation that
provably keeps the verdict: scaling a symbolic parameter by a nonzero
integer (an automorphism of Q(params)), renaming parameters, taking a
Galois conjugate of a root of unity, extending scalars to a larger
cyclotomic or Galois field, or multiplying the element under test by a
nonzero scalar.

A workload is a ``Workload`` object; ``next_pass()`` returns the next
list of fresh tasks.  All randomness comes from one ``random.Random``
seeded by the workload name and the ``--seed`` value, so a seed fixes
the whole sequence of passes.  No task's input description repeats
within one object's lifetime: ``next_pass`` raises if one would.

Functions under test are looked up through their module at call time
(``O.check_paper_identity`` rather than a name bound at import), so the
tracer's wrappers see every call.
"""

import random
from fractions import Fraction
from math import gcd

import orepi as O
from orepi import cli, coeff_to_str, identities, matrep
from orepi.fields import Coeff, _gf_irreducible


class Task:
    """One timed call; ``run()`` returns the verdict to compare."""

    __slots__ = ("tid", "desc", "run", "expected")

    def __init__(self, tid, desc, run, expected):
        self.tid = tid
        self.desc = desc
        self.run = run
        self.expected = expected


# index bounds and counts per size; "smoke" is for the self-tests
SIZES = {
    "full": {
        "corpus_symbolic_n": 4,
        "corpus_numeric_n": 4,
        "z7_n": 4,
        "cli_identity_n": 8,
        "span_degree": {"Hpq": 11, "Bh": 7, "M2": 9},
        "downup_span_degree": 5,
        "search_degree": 4,
        "hygiene_cases": 24,
        "assoc_triples": 24,
        "specialize_cases": 32,
        "biquad_batch": 6,
    },
    "smoke": {
        "corpus_symbolic_n": 2,
        "corpus_numeric_n": 2,
        "z7_n": 2,
        "cli_identity_n": 2,
        "span_degree": {"Hpq": 4, "Bh": 4, "M2": 4},
        "downup_span_degree": 4,
        "search_degree": 3,
        "hygiene_cases": 1,
        "assoc_triples": 1,
        "specialize_cases": 2,
        "biquad_batch": 1,
    },
}

# the identity corpus of acceptance criterion 1: family, parameter names,
# lemma ids; the three Bqf entries are the three choices of f
BQF_LEMMAS = ("Bqf.delta_uk", "Bqf.delta_vk", "Bqf.wuk", "Bqf.wvk",
              "Bqf.wku")
CORPUS = (
    ("Hpq", ("p", "q"), ("H.yxn", "H.ynx")),
    ("M2", ("alpha", "beta"), ("M2.k1", "M2.k2", "M2.power_table")),
    ("UqB2", ("q",), ("UqB2.i", "UqB2.ii", "UqB2.iii", "UqB2.iv")),
    ("WeylMalt", ("q1", "q2", "l12"), ("Weyl.xky", "Weyl.xyk")),
    ("ThreeCyclic", ("q", "alpha", "beta", "gamma"),
     ("Cyc3.i", "Cyc3.ii", "Cyc3.iii", "Cyc3.iv", "Cyc3.v", "Cyc3.vi")),
    ("Bqf[f=t]", ("q",), BQF_LEMMAS),
    ("Bqf[f=t^2]", ("q",), BQF_LEMMAS),
    ("Bqf[f=t+t^5]", ("q",), BQF_LEMMAS),
    ("Bh", ("h",), ("Bh.commute",)),
)
# exponents of f, with one random nonzero coefficient each
BQF_SHAPES = {"Bqf[f=t]": (1,), "Bqf[f=t^2]": (2,), "Bqf[f=t+t^5]": (1, 5)}

NUMERIC_RANGE = 61   # |value| in [2, 61]: integers that are not roots of unity
SCALE_RANGE = 3      # |c| bound for scalars that multiply a parameter

# the BiQuad3 instance of the acceptance suite's nine-family list
BIQUAD_SEED = 0xACCE97

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
          71, 73, 79, 83, 89, 97, 101)


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _f_poly(ctx, exps, coeffs):
    out = [ctx.zero()] * (max(exps) + 1)
    for e, c in zip(exps, coeffs):
        out[e] = ctx.from_int(c)
    return tuple(out)


def _spec(family, ctx, v, f=None):
    """FamilySpec of a corpus family from a name -> Coeff dict."""
    if family == "Hpq":
        return O.spec_hpq(ctx, v["p"], v["q"])
    if family == "M2":
        return O.spec_m2(ctx, v["alpha"], v["beta"])
    if family == "UqB2":
        return O.spec_uqb2(ctx, v["q"])
    if family == "WeylMalt":
        one = ctx.one()
        lam = ((one, v["l12"]), (v["l12"].inv(), one))
        return O.spec_weyl(ctx, (v["q1"], v["q2"]), lam)
    if family == "ThreeCyclic":
        return O.spec_three_cyclic(ctx, v["q"], v["alpha"], v["beta"],
                                   v["gamma"])
    if family.startswith("Bqf"):
        return O.spec_bqf(ctx, v["q"], f)
    return O.spec_bh(ctx, v["h"])


def _identity_verdict(lemma, p, n):
    return O.check_paper_identity(lemma, p, n).all_pass


def _mismatch_verdict(lemma, p_oracle, p_engine, n):
    """Oracle sides built in one presentation, evaluated in another."""
    for _, lhs, rhs in identities.oracle_rhs(lemma, p_oracle, n):
        if not (identities.nf_eval(p_engine, lhs) - rhs).is_zero():
            return False
    return True


class Workload:
    """Base: seeded generator of passes with a replay guard."""

    name = None

    def __init__(self, seed, size="full"):
        self.size = SIZES[size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.index = 0
        self.seen = set()
        self.used = set()
        self.decks = {}        # key -> conjugates left in this round

    def next_pass(self):
        tasks = self.generate(self.index)
        for t in tasks:
            if t.desc in self.seen:
                raise RuntimeError(f"task input replayed: {t.desc}")
            self.seen.add(t.desc)
        self.index += 1
        return tasks

    def generate(self, index):
        raise NotImplementedError

    # -- fresh draws ---------------------------------------------------------

    def fresh(self, key, draw, tries=200):
        """draw() until its description, under key, is new in this run."""
        for _ in range(tries):
            value, desc = draw()
            if (key, desc) not in self.used:
                self.used.add((key, desc))
                return value, desc
        raise RuntimeError(f"no fresh instance left for {key}")

    def nonzero_int(self, bound):
        return self.rng.choice((-1, 1)) * self.rng.randint(1, bound)

    def big_int(self):
        """A nonzero integer that is not a root of unity."""
        return self.rng.choice((-1, 1)) * self.rng.randint(2, NUMERIC_RANGE)

    def root(self, key, n, base_only=False):
        """A primitive n-th root of unity in a cyclotomic field.

        Candidates are (level m, exponent k): zeta_n = z_m^(k m / n) with
        k a unit mod n.  With base_only the draw is a conjugate in
        Q(zeta_n) itself, the task must then get its freshness elsewhere.
        The conjugates differ in cost (zeta_n^-1 is a dense element of
        the power basis), so they are dealt from a deck per key, each once
        per round in a seeded order: every run draws each conjugate about
        equally often, and the cost of its passes does not depend on how
        often the seed happened to draw the dear one.  (Conjugates are not
        also drawn in Q(zeta_2n), where the spread in cost is larger.)
        Otherwise the draw is fresh for key: small fields are used first,
        and larger ones only once those are used up.
        """
        units = [k for k in range(1, n) if gcd(k, n) == 1] or [1]
        levels = sorted((_euler_phi(n * j), n * j) for j in range(1, 13))
        if base_only:
            m = n
            deck = self.decks.setdefault(key, [])
            if not deck:
                deck += self.rng.sample(units, len(units))
            k = deck.pop()
        else:
            free = [(m, k) for _, m in levels for k in units
                    if (key, (m, k)) not in self.used]
            if not free:
                raise RuntimeError(f"no fresh root left for {key}")
            m0 = free[0][0]
            m, k = self.rng.choice([c for c in free if c[0] == m0])
            self.used.add((key, (m, k)))
        ctx = O.FieldCtx.cyclotomic(m)
        return ctx, ctx.root_of_unity(n) ** k, f"Q(z{m}):z{n}^{k}"

    def scalar(self, ctx):
        """A random nonzero scalar of ctx (rational for char 0 fields)."""
        if ctx.kind == "galois":
            while True:
                vec = tuple(self.rng.randrange(ctx.char)
                            for _ in range(len(ctx.modulus) - 1))
                if any(vec):
                    return Coeff(ctx, vec)
        num = self.nonzero_int(9)
        return ctx.from_fraction(Fraction(num, self.rng.randint(1, 9)))

    def gf3(self):
        """GF(3^k), k in 1..4, with a random irreducible modulus."""
        k = self.rng.randint(1, 4)
        if k == 1:
            return O.FieldCtx.galois_prime(3)
        while True:
            mod = [self.rng.randrange(3) for _ in range(k)] + [1]
            if mod[0] and _gf_irreducible(mod, 3):
                return O.FieldCtx.galois(3, mod)


# ---------------------------------------------------------------------------
# corpus_symbolic and corpus_numeric
# ---------------------------------------------------------------------------


class Corpus(Workload):
    """Criterion 1's lemma x instance list, one task per check_paper_identity.

    Symbolic: each parameter is +-(a parameter name new in this pass) over
    Q(params); the sign and the name change the input, not its cost.
    Numeric: each parameter is an integer with 2 <= |value| <= 61 over Q,
    the tuple fresh for the family within the run.  The coefficients of f
    are random, 1 <= |c| <= 3.  The identities hold for every instance.
    One negative per pass: the H.yxn oracle sides of one Hpq instance
    evaluated in an Hpq instance with a different q must not match.
    """

    symbolic = None

    def n_max(self):
        raise NotImplementedError

    def instance(self, family, names, index):
        if self.symbolic:
            ctx = O.FieldCtx.rational_functions(
                tuple(f"{nm}_{index}" for nm in names))
            scales = [self.rng.choice((1, -1)) for _ in names]
            values = {nm: ctx.param(f"{nm}_{index}") * c
                      for nm, c in zip(names, scales)}
        else:
            ctx = O.FieldCtx.rational()

            def draw():
                ints = tuple(self.big_int() for _ in names)
                return ints, repr(ints)
            ints, _ = self.fresh(family, draw)
            values = {nm: ctx.from_int(c) for nm, c in zip(names, ints)}
        f = None
        if family in BQF_SHAPES:
            exps = BQF_SHAPES[family]
            f = _f_poly(ctx, exps, [self.nonzero_int(3) for _ in exps])
        p = O.build_family(_spec(family, ctx, values, f))
        desc = ",".join(f"{k}={coeff_to_str(v)}" for k, v in values.items())
        if f is not None:
            desc += ";f=" + ",".join(coeff_to_str(c) for c in f)
        return ctx, values, p, desc

    def generate(self, index):
        n = self.n_max()
        tasks = []
        for family, names, lemmas in CORPUS:
            ctx, values, p, desc = self.instance(family, names, index)
            for lemma in lemmas:
                tasks.append(Task(
                    f"{lemma}@{family}", f"{lemma} {family} {desc} n<={n}",
                    lambda lemma=lemma, p=p: _identity_verdict(lemma, p, n),
                    True))
            if family == "Hpq":
                other = dict(values, q=-values["q"])
                p_other = O.build_family(_spec(family, ctx, other))
                tasks.append(Task(
                    "H.yxn@Hpq[q->-q]", f"H.yxn mismatch {desc} n<={n}",
                    lambda p=p, po=p_other:
                        _mismatch_verdict("H.yxn", p, po, n),
                    False))
        return tasks


class CorpusSymbolic(Corpus):
    name = "corpus_symbolic"
    symbolic = True

    def n_max(self):
        return self.size["corpus_symbolic_n"]


class CorpusNumeric(Corpus):
    name = "corpus_numeric"
    symbolic = False

    def n_max(self):
        return self.size["corpus_numeric_n"]


# ---------------------------------------------------------------------------
# roots_of_unity
# ---------------------------------------------------------------------------


def _central_verdict(spec, want_names, scales):
    """Every promised candidate is produced, and is central after scaling."""
    cs = O.central_candidates(spec)
    if not set(want_names) <= set(cs.names()):
        return False
    p = O.build_family(spec)
    for (name, el), c in zip(cs, scales):
        if not O.is_central(p, el.scale(c))[0]:
            return False
    return True


def _not_central_verdict(p, el):
    return O.is_central(p, el)[0]


def _spanning_verdict(spec, caps, degree, scales):
    cs = O.central_candidates(spec)
    scaled = O.CentralSet([(nm, el.scale(c)) for (nm, el), c
                           in zip(cs, scales)], cs.condition)
    return O.spanning_check(O.build_family(spec), scaled, caps,
                            degree=degree).ok


def _downup_spanning_verdict(spec, caps, degree):
    cs = O.downup_center_generators(spec)
    return O.spanning_check(O.build_family(spec), cs, caps,
                            degree=degree).ok


def _pi_verdict(spec):
    """(verdict, witness check) as criterion 6 checks them."""
    v = O.pi_decide(spec)
    if v.verdict != "NotPI":
        return v.verdict, None
    if spec.family == "DownUp":
        return v.verdict, not v.details["automorphism_order"].finite
    ok = (v.witness is not None and O.verify_witness(spec, v.witness)
          and v.witness.param.multiplicative_order() is None)
    return v.verdict, ok


def _gwa_verdict(ctx, a, b, g):
    r = O.gwa_auto_order(ctx, a, b, g)
    return r.finite, r.order


def _downup_center_verdict(spec, roots):
    cs = O.downup_center_generators(spec, roots=roots)
    p = O.build_family(spec)
    return len(cs) > 0 and all(O.is_central(p, el)[0] for _, el in cs)


def _search_verdict(alg, degree):
    """(any identity, s_degree among them): (False, False) below degree 4
    and (True, True) at degree 4, by the Amitsur-Levitzki theorem."""
    space = O.multilinear_identity_search(alg, degree)
    return space.dim > 0, space.dim > 0 and space.contains_standard()


def _cli_verdict(argv):
    """Exit code and the sorted set of check statuses of one invocation."""
    code, doc = cli.run_command(argv)
    return code, tuple(sorted({c["status"] for c in doc["checks"]}))


def _cli_fail_verdict(argv):
    code, doc = cli.run_command(argv)
    return code, any(c["status"] == "fail" for c in doc["checks"])


def _cli_pi_verdict(argv):
    code, doc = cli.run_command(argv)
    detail = doc["checks"][0]["detail"]
    return code, detail.split(":", 1)[0]


def _units(ctx, a):
    """The four matrix units conjugated by diag(a, 1): a e12, e21 / a."""
    z, o = ctx.zero(), ctx.one()
    a = ctx.from_fraction(a)
    return {"e11": ((o, z), (z, z)), "e12": ((z, a), (z, z)),
            "e21": ((z, z), (a.inv(), z)), "e22": ((z, z), (z, o))}


class RootsOfUnity(Workload):
    """The centre / PI pipeline at root-of-unity instances.

    Centrality (criterion 3), spanning above the acceptance degrees
    (criterion 4), the PI table (criterion 6), the down-up case table
    (criterion 7), the degree-4 identity search on M_2 (criterion 8),
    Bqf.wku at q = zeta_7, and the README command lines.
    """

    name = "roots_of_unity"

    def generate(self, index):
        s = self.size
        tasks = []
        tasks += self.centrality()
        tasks += self.spanning(s["span_degree"], s["downup_span_degree"])
        tasks += self.pi_table()
        tasks += self.downup_cases()
        tasks += self.search(s["search_degree"])
        tasks += self.z7_identity(s["z7_n"])
        tasks += self.readme_cli(s["cli_identity_n"])
        return tasks

    def _scales(self, ctx, k=8):
        return [self.scalar(ctx) for _ in range(k)]

    def _scales_desc(self, scales):
        return ",".join(coeff_to_str(c) for c in scales)

    def _fresh_scales(self, ctx):
        sc = self._scales(ctx)
        return sc, self._scales_desc(sc)

    def centrality(self):
        QQ = O.FieldCtx.rational()
        out = []

        def add(tid, spec, names, desc):
            sc, _ = self.fresh(tid, lambda: self._fresh_scales(spec.ctx))
            out.append(Task(f"central:{tid}", f"central {tid} {desc} "
                            f"scales {self._scales_desc(sc)}",
                            lambda: _central_verdict(spec, names, sc), True))

        ctx, z, d = self.root("uqb2", 5, base_only=True)
        add("UqB2", O.spec_uqb2(ctx, z), ["z", "e1^5", "e2^5", "e3^5"], d)
        ctx, z, d = self.root("m2", 3, base_only=True)
        add("M2", O.spec_m2(ctx, z, z), ["X11^3", "X12^3", "X21^3", "X22^3"],
            d)
        ctx, z, d = self.root("cyc3", 6, base_only=True)
        abg = [self.nonzero_int(5) for _ in range(3)]
        add("ThreeCyclic", O.spec_three_cyclic(
            ctx, z, *(ctx.from_int(v) for v in abg)), ["x^3", "y^3", "z^3"],
            f"{d} abg={abg}")
        ctx, z, d = self.root("bh", 3, base_only=True)
        add("Bh", O.spec_bh(ctx, z), ["u^6", "s^3", "v^6", "t^3"], d)
        add("Bh[h=-1]", O.spec_bh(QQ, QQ.from_int(-1)),
            ["u^4", "s^2", "v^4", "t^2"], "Q")
        ctx, z, d = self.root("hpq", 3, base_only=True)
        add("Hpq", O.spec_hpq(ctx, ctx.from_int(-1), z), ["x^6", "y^6", "t^2"],
            d)
        m1 = QQ.from_int(-1)
        add("WeylMalt", O.spec_weyl(QQ, (m1, m1),
                                    ((QQ.one(), m1), (m1, QQ.one()))),
            ["x1^2", "y1^2", "x2^2", "y2^2"], "Q")
        ctx, z, d = self.root("bqf_t", 3, base_only=True)
        a = self.nonzero_int(5)
        add("Bqf[f=t]", O.spec_bqf(ctx, z, _f_poly(ctx, (1,), (a,))),
            ["u^3", "v^3"], f"{d} a={a}")
        ctx, z, d = self.root("bqf_t3", 3, base_only=True)
        a = self.nonzero_int(5)
        add("Bqf[f=t^3]", O.spec_bqf(ctx, z, _f_poly(ctx, (3,), (a,))),
            ["f(u)", "f(v)", "w^3"], f"{d} a={a}")
        g3 = self.gf3()
        m1 = g3.from_int(-1)
        add("Bqf[f=t^2]@GF(3^k)",
            O.spec_bqf(g3, m1, (g3.zero(), g3.zero(), g3.one())),
            ["u^2", "v^2"], f"GF(3^{len(g3.modulus) - 1}) {g3.modulus}")
        # negative: with f = t over GF(3), n = 2 divides j + 1 = 2 and u^2
        # is not central
        def draw():
            g3 = self.gf3()
            c = self.scalar(g3)
            return (g3, c), f"{g3.modulus} c={coeff_to_str(c)}"
        (g3, c), _ = self.fresh("not_central", draw)
        m1 = g3.from_int(-1)
        pb = O.build_family(O.spec_bqf(g3, m1, (g3.zero(), g3.one())))
        u2 = O.NCPoly.monomial(c, (pb.gen("u"),) * 2)
        out.append(Task("not_central:Bqf[f=t]@GF(3^k):u^2",
                        f"u^2 GF(3) {g3.modulus} c={coeff_to_str(c)}",
                        lambda: _not_central_verdict(pb, u2), False))
        return out

    def spanning(self, degrees, downup_degree):
        QQ = O.FieldCtx.rational()
        out = []
        ctx, z, d = self.root("span_hpq", 3, base_only=True)
        spec = O.spec_hpq(ctx, ctx.from_int(-1), z)
        sc, _ = self.fresh("span_hpq", lambda: self._fresh_scales(ctx))
        out.append(Task(
            "spanning:Hpq", f"spanning Hpq {d} {self._scales_desc(sc)}",
            lambda spec=spec, sc=sc: _spanning_verdict(
                spec, {"x": 6, "y": 6, "t": 2}, degrees["Hpq"], sc), True))
        spec_b = O.spec_bh(QQ, QQ.from_int(-1))
        sc_b, _ = self.fresh("span_bh", lambda: self._fresh_scales(QQ))
        out.append(Task(
            "spanning:Bh", f"spanning Bh[-1] {self._scales_desc(sc_b)}",
            lambda: _spanning_verdict(
                spec_b, {"x1": 8, "x2": 4, "y1": 8, "y2": 4}, degrees["Bh"],
                sc_b), True))
        ctx, z, d = self.root("span_m2", 3, base_only=True)
        spec_m = O.spec_m2(ctx, z, z)
        sc_m, _ = self.fresh("span_m2", lambda: self._fresh_scales(ctx))
        out.append(Task(
            "spanning:M2", f"spanning M2 {d} {self._scales_desc(sc_m)}",
            lambda: _spanning_verdict(
                spec_m, {n: 3 for n in ("X11", "X12", "X21", "X22")},
                degrees["M2"], sc_m), True))
        # negative: A(2, -1, gamma), gamma != 0, is U(sl2) up to scaling and
        # never finite over a central subalgebra
        def draw():
            v = (self.nonzero_int(50), self.rng.randint(2, 4))
            return v, repr(v)
        (gamma, cap), _ = self.fresh("span_downup", draw)
        spec_d = O.spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                               QQ.from_int(gamma))
        out.append(Task(
            "spanning:DownUp[infinite]",
            f"spanning DownUp(2,-1,{gamma}) cap {cap}",
            lambda: _downup_spanning_verdict(
                spec_d, {"u": cap, "d": cap}, downup_degree), False))
        return out

    def pi_table(self):
        QQ = O.FieldCtx.rational()
        i = QQ.from_int
        rows = []

        def row(tid, make, want):
            spec, desc = make()
            rows.append(Task(f"pi:{tid}", f"pi {tid} {desc}",
                             lambda: _pi_verdict(spec), want))

        def at_root(key, n, build):
            def make():
                ctx, z, d = self.root(key, n)
                return build(ctx, z), d
            return make

        def at_int(key, build, k=1):
            def make():
                def draw():
                    v = tuple(self.big_int() for _ in range(k))
                    return v, repr(v)
                v, d = self.fresh(key, draw)
                return build(*v), d
            return make

        row("Bh@root", at_root("pi_bh", 5, lambda c, z: O.spec_bh(c, z)),
            ("PI", None))
        row("Bh@int", at_int("pi_bh_int", lambda h: O.spec_bh(QQ, i(h))),
            ("NotPI", True))
        def hpq_root():
            # p, q among the roots of orders 2, 3, 6 of Q(zeta_3), pq != 1
            def draw():
                ctx, z, d = self.root("pi_hpq", 3, base_only=True)
                while True:
                    e = (self.rng.randrange(1, 6), self.rng.randrange(1, 6))
                    if sum(e) % 6:
                        break
                zeta6 = -(z ** 2)
                return (ctx, zeta6 ** e[0], zeta6 ** e[1]), f"{d} {e}"
            (ctx, p, q), d = self.fresh("pi_hpq", draw)
            return O.spec_hpq(ctx, p, q), d
        row("Hpq@root", hpq_root, ("PI", None))

        def hpq_int():
            def draw():
                ctx, z, d = self.root("pi_hpq_int", 3, base_only=True)
                p = self.big_int()
                return (ctx, z, p), f"{d} p={p}"
            (ctx, z, p), d = self.fresh("pi_hpq_int", draw)
            return O.spec_hpq(ctx, ctx.from_int(p), z), d
        row("Hpq@int", hpq_int, ("NotPI", True))

        def m2_root():
            def draw():
                ctx, z, d = self.root("pi_m2", 12, base_only=True)
                a, b = self.rng.choice((1, 3)), self.rng.choice((1, 2))
                return (ctx, z ** (3 * a), z ** (4 * b)), f"{d} {a},{b}"
            (ctx, alpha, beta), d = self.fresh("pi_m2", draw)
            return O.spec_m2(ctx, alpha, beta), d
        row("M2@root", m2_root, ("PI", None))

        def m2_int():
            def draw():
                ctx, z, d = self.root("pi_m2_int", 3, base_only=True)
                a = self.big_int()
                return (ctx, z, a), f"{d} alpha={a}"
            (ctx, z, a), d = self.fresh("pi_m2_int", draw)
            return O.spec_m2(ctx, ctx.from_int(a), z), d
        row("M2@int", m2_int, ("NotPI", True))
        row("UqB2@root", at_root("pi_uqb2", 5,
                                 lambda c, z: O.spec_uqb2(c, z)), ("PI", None))

        def uqb2_sym():
            nm = f"q_{self.index}"
            rq = O.FieldCtx.rational_functions((nm,))
            c = self.nonzero_int(SCALE_RANGE)
            return O.spec_uqb2(rq, rq.param(nm) * c), f"{nm} c={c}"
        row("UqB2@symbolic", uqb2_sym, ("NotPI", True))

        def cyc3_root():
            def draw():
                ctx, z, d = self.root("pi_cyc3", 6, base_only=True)
                abg = [self.nonzero_int(5) for _ in range(3)]
                return (ctx, z, abg), f"{d} {abg}"
            (ctx, z, abg), d = self.fresh("pi_cyc3", draw)
            return O.spec_three_cyclic(ctx, z, *(ctx.from_int(v)
                                                 for v in abg)), d
        row("ThreeCyclic@root", cyc3_root, ("PI", None))
        row("ThreeCyclic@int", at_int(
            "pi_cyc3_int", lambda q, a: O.spec_three_cyclic(
                QQ, i(q), i(a), QQ.one(), QQ.one()), k=2), ("NotPI", True))

        def downup(key, alpha, beta, gamma_nonzero, want):
            def make():
                def draw():
                    g = self.nonzero_int(50) if gamma_nonzero else 0
                    return g, repr(g)
                if gamma_nonzero:
                    g, _ = self.fresh(key, draw)
                    ctx, d = QQ, "Q"
                else:
                    # gamma = 0 is a single point; extend scalars instead
                    g = 0
                    ctx, _, d = self.root(key, 2)
                return (O.spec_downup(ctx, ctx.from_int(alpha),
                                      ctx.from_int(beta), ctx.from_int(g)),
                        f"{d} gamma={g}")
            row(f"DownUp({alpha},{beta},{'g' if gamma_nonzero else 0})",
                make, want)
        downup("pi_du_pi", 0, 1, False, ("PI", None))
        downup("pi_du_heis", 2, -1, False, ("NotPI", True))
        downup("pi_du_sl2", 2, -1, True, ("NotPI", True))
        downup("pi_du_l1", 0, 1, True, ("NotPI", True))

        def bqf_root(exp, key):
            def make():
                def draw():
                    ctx, z, d = self.root(key, 3, base_only=True)
                    a = self.nonzero_int(9)
                    return (ctx, z, a), f"{d} a={a}"
                (ctx, z, a), d = self.fresh(key, draw)
                return O.spec_bqf(ctx, z, _f_poly(ctx, (exp,), (a,))), d
            return make
        row("Bqf[f=t]@root", bqf_root(1, "pi_bqf"), ("PI", None))

        def bqf_int():
            def draw():
                v = (self.big_int(), self.nonzero_int(9))
                return v, repr(v)
            (q, a), d = self.fresh("pi_bqf_int", draw)
            return O.spec_bqf(QQ, i(q), _f_poly(QQ, (1,), (a,))), d
        row("Bqf[f=t]@int", bqf_int, ("NotPI", True))
        row("Bqf[f=t^8]@root", bqf_root(8, "pi_bqf8"), ("Unknown", None))

        def weyl_root():
            def draw():
                ctx, _, d = self.root("pi_weyl", 4, base_only=True)
                ch = [self.rng.choice((2, 1, 3)) for _ in range(3)]
                return (ctx, ch), f"{d} {ch}"
            (ctx, ch), d = self.fresh("pi_weyl", draw)
            r = [ctx.root_of_unity(4) ** e for e in ch]
            one = ctx.one()
            return O.spec_weyl(ctx, (r[0], r[1]),
                               ((one, r[2]), (r[2].inv(), one))), d
        row("WeylMalt@root", weyl_root, ("PI", None))

        def weyl_sym():
            nm = f"s_{self.index}"
            rs = O.FieldCtx.rational_functions((nm,))
            c = self.nonzero_int(SCALE_RANGE)
            m1 = rs.from_int(-1)
            return O.spec_weyl(rs, (rs.param(nm) * c, m1),
                               ((rs.one(), m1), (m1, rs.one()))), \
                f"{nm} c={c}"
        row("WeylMalt@symbolic", weyl_sym, ("NotPI", True))
        return rows

    def downup_cases(self):
        QQ = O.FieldCtx.rational()
        out = []

        def gwa(tid, alpha, beta, gamma_kind, want):
            if gamma_kind == "zero":
                ctx, _, d = self.root(f"gwa_{tid}", 2)
                g = 0
            else:
                def draw():
                    v = self.nonzero_int(50)
                    return v, repr(v)
                g, d = self.fresh(f"gwa_{tid}", draw)
                ctx = QQ
            args = (ctx, ctx.from_int(alpha), ctx.from_int(beta),
                    ctx.from_int(g))
            out.append(Task(f"gwa:{tid}", f"gwa {tid} {d} gamma={g}",
                            lambda: _gwa_verdict(*args), want))
        gwa("RepeatedRoot1", 2, -1, "nonzero", (False, None))
        gwa("finite2", 0, 1, "zero", (True, 2))
        gwa("JordanBlock", -2, -1, "zero", (False, None))
        gwa("Lambda1GammaNonzero", 0, 1, "nonzero", (False, None))

        def draw():
            ctx, z, d = self.root("du_c3", 3, base_only=True)
            g = self.nonzero_int(9)
            return (ctx, z, g), f"{d} gamma={g}"
        (ctx, z, g), d = self.fresh("du_c3", draw)
        spec = O.spec_downup(ctx, ctx.one() + z, -z, ctx.from_int(g))
        roots = (ctx.one(), z)
        out.append(Task("downup_center:(1+z3,-z3,g)",
                        f"downup center {d}",
                        lambda: _downup_center_verdict(spec, roots), True))

        def draw():
            v = self.nonzero_int(50)
            return v, repr(v)
        g2, _ = self.fresh("du_sl2", draw)
        spec2 = O.spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                              QQ.from_int(g2))
        out.append(Task("downup_center:(2,-1,g)",
                        f"downup center (2,-1,{g2})",
                        lambda: _downup_center_verdict(spec2, None), True))
        ctx0, _, d0 = self.root("du_pi", 2)
        spec3 = O.spec_downup(ctx0, ctx0.zero(), ctx0.one(), ctx0.zero())
        out.append(Task("downup_center:(0,1,0)", f"downup center (0,1,0) {d0}",
                        lambda: _downup_center_verdict(spec3, None), True))
        return out

    def search(self, degree):
        QQ = O.FieldCtx.rational()

        def draw():
            a = Fraction(self.nonzero_int(9), self.rng.randint(1, 9))
            return a, str(a)
        a, d = self.fresh("search", draw)
        alg = matrep.MatAlgebra(2, QQ, _units(QQ, a))
        return [Task(f"identity_search:M2[d={degree}]",
                     f"search M2 a={d} d={degree}",
                     lambda: _search_verdict(alg, degree),
                     (degree >= 4, degree >= 4))]

    def z7_identity(self, n):
        def draw():
            ctx, z, d = self.root("z7", 7, base_only=True)
            ab = (self.nonzero_int(3), self.nonzero_int(3))
            return (ctx, z, ab), f"{d} f={ab}"
        (ctx, z, ab), d = self.fresh("z7", draw)
        p = O.build_family(O.spec_bqf(ctx, z, _f_poly(ctx, (1, 5), ab)))
        return [Task("Bqf.wku@Bqf[f=t+t^5]@Q(z7)", f"wku {d} n<={n}",
                     lambda: _identity_verdict("Bqf.wku", p, n), True)]

    def readme_cli(self, n_ident):
        out = []

        def add(tid, argv, check, want):
            out.append(Task(f"cli:{tid}", "cli " + " ".join(argv),
                            lambda: check(argv), want))

        def scales(key, k):
            def draw():
                v = tuple(self.nonzero_int(9) for _ in range(k))
                return v, repr(v)
            return self.fresh(key, draw)[0]
        a, b = scales("cli_ident", 2)
        add("identity-check", ["identity-check", "--family", "Hpq", "--lemma",
                               "H.yxn", "--n-max", str(n_ident), "--params",
                               f"p={a}*p,q={b}*q"],
            _cli_verdict, (0, ("pass",)))
        (c,) = scales("cli_pi", 1)
        _, _, d = self.root("cli_pi_root", 3, base_only=True)
        k = d.rsplit("^", 1)[1]
        add("pi-decide", ["pi-decide", "--family", "Bqf", f"--f={c}*t^8",
                          "--q", f"z3^{k}"], _cli_pi_verdict, (0, "Unknown"))

        def draw_bq():
            v = tuple(self.rng.randint(2, 9) for _ in range(3)) + \
                (self.nonzero_int(9),)
            return v, repr(v)
        (q1, q2, q3, la), _ = self.fresh("cli_confluence", draw_bq)
        add("confluence", ["confluence", "--family", "BiQuad3", "--params",
                           f"q1={q1},q2={q2},q3={q3},la={la}"],
            _cli_fail_verdict, (1, True))
        ctx, _, d = self.root("cli_central", 5)
        k = d.rsplit("^", 1)[1]
        add("central-check", ["central-check", "--family", "UqB2", "--field",
                              f"cyclo:{ctx.level}", "--q", f"z5^{k}"],
            _cli_verdict, (0, ("pass",)))
        # caps at or above the central degrees (6, 6, 2) keep the verdict
        def draw_span():
            ctx, _, d = self.root("cli_spanning", 3, base_only=True)
            caps = (self.rng.choice((6, 7, 8)), self.rng.choice((6, 7, 8)))
            return (ctx.level, d.rsplit("^", 1)[1], caps), f"{d} {caps}"
        (level, k, (cx, cy)), _ = self.fresh("cli_spanning", draw_span)
        add("spanning", ["spanning", "--family", "Hpq", "--field",
                         f"cyclo:{level}", "--params", f"p=-1,q=z3^{k}",
                         "--caps", f"x={cx},y={cy},t=2", "--degree", "8"],
            _cli_verdict, (0, ("pass",)))
        a, b = scales("cli_build", 2)
        add("build", ["build", "--family", "M2", "--params",
                      f"alpha={a}*a,beta={b}*b"], _cli_verdict, (0, ("pass",)))
        a, b = scales("cli_normalize", 2)
        add("normalize", ["normalize", "--family", "M2", "--params",
                          f"alpha={a}*a,beta={b}*b", "--poly", "X22*X11^3"],
            _cli_verdict, (0, ("pass",)))
        ctx, _, d = self.root("cli_matrep", 4)
        k = d.rsplit("^", 1)[1]
        add("matrep", ["matrep", "--order", "4", "--field",
                       f"cyclo:{ctx.level}", "--q", f"z4^{k}"],
            _cli_verdict, (0, ("pass",)))

        def draw_p():
            p = self.rng.choice(PRIMES)
            return p, repr(p)
        p, _ = self.fresh("cli_search", draw_p)
        # degree 3: the degree-4 search is the library task above
        add("identity-search", ["identity-search", "--algebra", "m2",
                                "--field", f"gf:{p}:0,1", "--degree", "3"],
            _cli_verdict, (0, ("pass",)))
        return out


# ---------------------------------------------------------------------------
# random_hygiene
# ---------------------------------------------------------------------------


def _hygiene_presentations(index):
    """Criterion 5/9's eleven presentations, one per family, built fresh."""
    def sym(*names):
        return O.FieldCtx.rational_functions(tuple(f"{n}_{index}"
                                                   for n in names))
    rpq = sym("p", "q")
    rq = sym("q")
    p_, q_ = rpq.param(f"p_{index}"), rpq.param(f"q_{index}")
    qq = rq.param(f"q_{index}")
    QQ = O.FieldCtx.rational()
    c12 = O.FieldCtx.cyclotomic(12)
    lam = ((rpq.one(), p_), (p_.inv(), rpq.one()))
    return [
        O.build_family(O.spec_bh(rq, qq)),
        O.build_family(O.spec_hpq(rpq, p_, q_)),
        O.build_family(O.spec_m2(rpq, p_, q_)),
        O.build_family(O.spec_uqb2(rq, qq)),
        O.build_family(O.spec_weyl(rpq, (q_, q_), lam)),
        O.build_family(O.spec_weyl(rpq, (q_, q_), lam, variant="aj")),
        O.build_family(identities.biquad3_consistent_instance(
            c12, random.Random(BIQUAD_SEED))),
        O.build_family(O.spec_three_cyclic(rq, qq, rq.one(), rq.from_int(2),
                                           rq.from_int(3))),
        O.build_family(O.spec_downup(QQ, QQ.from_int(2), QQ.from_int(-1),
                                     QQ.one())),
        O.build_family(O.spec_bqf(rq, qq, (rq.zero(), rq.one(), rq.one()))),
        O.build_family(O.spec_quantum_plane(rq, qq)),
    ]


def _idempotent_linear(p, fa, fb):
    nfa = O.normal_form(p, fa)
    return (O.normal_form(p, nfa.as_formal()) == nfa
            and O.normal_form(p, fa + fb) == nfa + O.normal_form(p, fb))


def _associative(p, fa, fb, fc):
    a, b, c = (O.normal_form(p, f) for f in (fa, fb, fc))
    return O.multiply(p, O.multiply(p, a, b), c) == \
        O.multiply(p, a, O.multiply(p, b, c))


def _specialization_commutes(H, Hs, fa, assign, target):
    from orepi.rewrite import specialize_poly
    lhs = specialize_poly(O.normal_form(H, fa), assign, target)
    fa_spec = [(c.specialize(assign, target), w) for c, w in fa]
    return lhs == O.normal_form(Hs, fa_spec)


def _biquad_verdict(spec):
    pres = O.build_family(spec)
    rep = O.overlap_check(pres)
    if rep.confluent:
        return True, None
    bad = rep.failing()[0]
    return False, (pres.word_str(bad.word), bad.residual.is_zero())


class RandomHygiene(Workload):
    """Criterion 9's engine properties on fresh random inputs, and
    criterion 5's BiQuad3 instances, half consistent and half violating."""

    name = "random_hygiene"

    def coeff(self, ctx):
        """A random element, as in the acceptance suite's generator."""
        rng = self.rng
        if ctx.kind == "rational":
            return ctx.from_fraction(Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 9)))
        if ctx.kind == "cyclotomic":
            return Coeff(ctx, tuple(Fraction(rng.randint(-4, 4))
                                    for _ in range(len(ctx._phi) - 1)))
        nparams = len(ctx.params)
        num = {}
        for _ in range(rng.randint(1, 2)):
            key = tuple(rng.randint(0, 2) for _ in range(nparams))
            num[key] = num.get(key, 0) + rng.randint(-4, 4)
        num = {k: v for k, v in num.items() if v}
        if not num:
            num = {(0,) * nparams: rng.randint(1, 3)}
        den = {tuple(rng.randint(0, 1) for _ in range(nparams)):
               rng.choice((1, 1, 2, -1))}
        from orepi.fields import _ratfunc_normalize
        return Coeff(ctx, _ratfunc_normalize(num, den))

    def formal(self, p, terms=3, max_len=4):
        out = []
        for _ in range(self.rng.randint(1, terms)):
            w = tuple(self.rng.randrange(len(p.names))
                      for _ in range(self.rng.randint(0, max_len)))
            out.append((self.coeff(p.ctx), w))
        return out

    def fresh_formals(self, key, p, k, **kw):
        def draw():
            fs = [self.formal(p, **kw) for _ in range(k)]
            return fs, repr([[(c.val, w) for c, w in f] for f in fs])
        return self.fresh(key, draw)

    def generate(self, index):
        s = self.size
        tasks = []
        for p in _hygiene_presentations(index):
            fam = p.family
            for _ in range(s["hygiene_cases"]):
                (fa, fb), d = self.fresh_formals(("nf", fam), p, 2)
                tasks.append(Task(f"nf_idempotent_linear:{fam}",
                                  f"nf {fam} {index} {d}",
                                  lambda p=p, fa=fa, fb=fb:
                                      _idempotent_linear(p, fa, fb), True))
            for _ in range(s["assoc_triples"]):
                fs, d = self.fresh_formals(("assoc", fam), p, 3, terms=1,
                                           max_len=2)
                tasks.append(Task(f"assoc:{fam}", f"assoc {fam} {index} {d}",
                                  lambda p=p, fs=fs: _associative(p, *fs),
                                  True))
        rpq = O.FieldCtx.rational_functions((f"p_{index}", f"q_{index}"))
        H = O.build_family(O.spec_hpq(rpq, rpq.param(f"p_{index}"),
                                      rpq.param(f"q_{index}")))
        c3 = O.FieldCtx.cyclotomic(3)
        assign = {f"p_{index}": c3.from_int(-1),
                  f"q_{index}": c3.generator()}
        Hs = O.build_family(O.spec_hpq(c3, c3.from_int(-1), c3.generator()))
        # one batch: the heaviest task of a pass, and of near-constant
        # cost, so verdict_tail_ms reads a stable class
        fs, d = self.fresh_formals("specialize", H, s["specialize_cases"])
        tasks.append(Task(f"specialize_commutes:Hpq(-1,z3)x{len(fs)}",
                          f"specialize {index} {d}",
                          lambda: all(_specialization_commutes(
                              H, Hs, fa, assign, c3) for fa in fs), True))
        c12 = O.FieldCtx.cyclotomic(12)
        for kind, make, want in (
                ("consistent", identities.biquad3_consistent_instance,
                 (True, None)),
                ("violating", identities.biquad3_violating_instance,
                 (False, ("x3*x2*x1", False)))):
            def draw():
                spec = make(c12, self.rng)
                return spec, repr([c.val for c in spec.q_list]
                                  + [c.val for row in spec.tails for c in row]
                                  + [c.val for c in spec.consts])
            batch = [self.fresh(("biquad", kind), draw)
                     for _ in range(s["biquad_batch"])]
            specs = [spec for spec, _ in batch]
            tasks.append(Task(
                f"overlap_check:BiQuad3[{kind}]x{len(specs)}",
                f"biquad {kind} " + " ".join(d for _, d in batch),
                lambda specs=specs, want=want: all(
                    _biquad_verdict(spec) == want for spec in specs),
                True))
        return tasks


WORKLOADS = {w.name: w for w in (CorpusSymbolic, CorpusNumeric, RootsOfUnity,
                                 RandomHygiene)}
