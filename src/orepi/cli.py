"""Command-line front end: build presentations, run checks, emit JSON reports.

The report on standard output is the only machine-readable channel:
{"command": [...], "checks": [{"name", "status", "detail", "witness"?}],
"elapsed_ms": int}.  Exit code 0 iff no check has status fail or error;
2 on usage errors.

`--params`, `--q`, `--f` and `--poly` are read by one grammar, the
coefficient grammar of `fields`.  For `--f` and `--poly` its values are
sums of words in the generators (the single generator t for `--f`),
with two extra rules: division only by a coefficient, and generators
only to non-negative powers.
"""

import argparse
import json
import sys
import time
from functools import lru_cache
from math import lcm

from .center import CentralSet, central_candidates, is_central, spanning_check
from .errors import OrepiError, ParametersRequired, ParseError
from .fields import (
    FieldCtx,
    _CoeffParser,
    _tokenize,
    coeff_to_str,
    int_literal,
    parse_coeff,
)
from .identities import check_paper_identity
from .matrep import multilinear_identity_search, quantum_plane_rep
from .pidecide import pi_decide, verify_witness
from .presentations import (
    FAMILIES,
    _FAMILIES,
    FamilySpec,
    Presentation,
    RewriteRule,
    _require_units,
    build_family,
    require_oriented,
    require_parameters,
    spec_biquad3,
    spec_bqf,
    spec_weyl,
)
from .rewrite import NCPoly, normal_form, overlap_check

_WEYL_PARAMS = ("n", "q1..qn", "l12..")
# the Weyl families read n(n+1)/2 parameter names; a larger n is refused
# before they are listed
MAX_WEYL_N = 100
# the builders' parameter table, under the command-line names where the
# builders read structured data
FAMILY_PARAMS = dict(
    {family: rec.parameters for family, rec in _FAMILIES.items()},
    WeylMalt=_WEYL_PARAMS, WeylAJ=_WEYL_PARAMS,
    BiQuad3=("q1", "q2", "q3", "a", "b", "c", "al", "be", "ga",
             "la", "mu", "nu", "b1", "b2", "b3"),
    Bqf=("q", "f (via --f)"))


# ---------------------------------------------------------------------------
# field / parameter / polynomial parsing
# ---------------------------------------------------------------------------


def _spec_int(spec, part, what):
    try:
        return int(part)
    except ValueError:
        raise ParseError(f"field spec {spec!r}: the {what} {part!r} is "
                         "not an integer") from None


def parse_field(text):
    if text in ("Q", "q", "rational"):
        return FieldCtx.rational()
    if text.startswith("cyclo:"):
        return FieldCtx.cyclotomic(
            _spec_int(text, text.split(":", 1)[1], "cyclotomic level"))
    if text.startswith("ratfunc:"):
        names = [s for s in text.split(":", 1)[1].split(",") if s]
        return FieldCtx.rational_functions(names)
    if text.startswith("gf:"):
        parts = text.split(":")
        p = _spec_int(text, parts[1], "characteristic")
        if len(parts) > 2 and parts[2]:
            modulus = [_spec_int(text, c, "modulus coefficient")
                       for c in parts[2].split(",")]
        else:
            modulus = [0, 1]
        return FieldCtx.galois(p, modulus)
    raise ParseError(f"unknown field spec {text!r}")


def parse_params(text, ctx):
    out = {}
    if not text:
        return out
    for pair in text.split(","):
        if not pair.strip():
            continue
        if "=" not in pair:
            raise ParseError(f"expected name=expr, got {pair!r}")
        name, expr = (part.strip() for part in pair.split("=", 1))
        if name in out:
            raise ParseError(f"parameter {name!r} given twice")
        out[name] = parse_coeff(expr, ctx)
    return out


def parse_caps(text):
    """`name=bound` pairs with non-negative integer bounds, as a dict."""
    caps = {}
    for pair in text.split(","):
        name, sep, val = (part.strip() for part in pair.partition("="))
        if not (sep and name and val.isascii() and val.isdigit()):
            raise ParseError("expected name=bound with a non-negative integer "
                             f"bound, got {pair!r}")
        if name in caps:
            raise ParseError(f"cap for {name!r} given twice")
        caps[name] = int_literal(val, "cap")
    return caps


MAX_EXPANDED_TERMS = 4096
MAX_WORD_LENGTH = 4096


class _Words(NCPoly):
    """Formal sum of words, never straightened; words are tuples of
    indices into the parser's generator names.  A product that could have
    more than MAX_EXPANDED_TERMS terms, or a word longer than
    MAX_WORD_LENGTH letters, is refused before it is built."""

    __slots__ = ()

    def constant(self):
        """The value as a coefficient, or None if some word has a letter."""
        if self.vals.keys() - {()}:
            return None
        return self.coeff(()) or self.ctx.zero()

    def __mul__(self, o):
        if len(self.vals) * len(o.vals) > MAX_EXPANDED_TERMS:
            raise ParseError(f"expression expands to more than "
                             f"{MAX_EXPANDED_TERMS} terms")
        ctx, out = self.ctx, {}
        for wa, ca in self.vals.items():
            for wb, cb in o.vals.items():
                if len(wa) + len(wb) > MAX_WORD_LENGTH:
                    raise ParseError(f"a word has more than "
                                     f"{MAX_WORD_LENGTH} letters")
                w, c = wa + wb, ctx.mul(ca, cb)
                out[w] = ctx.add(out[w], c) if w in out else c
        return _Words.from_payloads(
            ctx, {w: c for w, c in out.items() if not ctx.is_zero(c)})

    def __truediv__(self, o):
        c = o.constant()
        if c is None:
            raise ParseError("can only divide by a coefficient")
        return self * _Words.monomial(c.inv(), ())

    def __pow__(self, e):
        c = self.constant()
        if c is not None:
            return _Words.monomial(c ** e, ())
        if e < 0:
            raise ParseError("generators take only non-negative powers")
        out = _Words.monomial(self.ctx.one(), ())
        for _ in range(e):
            out = out * self
        return out


class _WordParser(_CoeffParser):
    """The coefficient grammar, with the given generator names as letters."""

    def __init__(self, text, ctx, names):
        super().__init__(text, ctx)
        self.names = names

    def atom(self):
        v = super().atom()
        return v if isinstance(v, _Words) else _Words.monomial(v, ())

    def ident_value(self, name):
        if name not in self.names:
            return super().ident_value(name)
        return _Words.monomial(self.ctx.one(), (self.names.index(name),))


def parse_f(text, ctx):
    """Coefficients, by degree, of a polynomial in t, e.g. 't + 2*t^5'."""
    terms = _WordParser(text, ctx, ("t",)).parse().terms
    degree = max(map(len, terms), default=-1)
    return tuple(terms.get((0,) * k, ctx.zero()) for k in range(degree + 1))


def parse_ncpoly(text, p):
    """(coefficient, word) terms of an expression in p's generators, e.g.
    'y*x^2 - 2*t'."""
    return _WordParser(text, p.ctx, p.names).parse().as_formal()


def build_spec(family, ctx, params, f_text=None):
    """The FamilySpec of a family from its named parameter values.  A name
    the family needs and params lacks is a ParametersRequired; after that,
    a name the family does not read, or an f_text for a family other than
    Bqf, is a ParseError."""
    if family not in FAMILIES:
        raise ParseError(f"unknown family {family!r}; see `orepi families`")
    weyl = family in ("WeylMalt", "WeylAJ")
    if weyl:
        if "n" in params:
            n = params["n"].as_fraction()
            if n is None or n.denominator != 1 or n < 1:
                raise ParseError("n must be a positive integer")
            n = int(n)
        else:
            n = max((int_literal(k[1:], "parameter index")
                     for k in params if k[:1] == "q" and k[1:].isdecimal()),
                    default=1)
        if n > MAX_WEYL_N:
            raise ParseError(f"{family} takes at most {MAX_WEYL_N} generator "
                             "pairs (n)")
        required = [f"q{i + 1}" for i in range(n)]
        names = ["n", *required, *(f"l{i + 1}{j + 1}" for i in range(n)
                                   for j in range(i + 1, n))]
    else:
        names = ("q",) if family == "Bqf" else FAMILY_PARAMS[family]
        required = names[:3] if family == "BiQuad3" else names
    f = parse_f(f_text, ctx) if family == "Bqf" and f_text else ()
    require_parameters(family, [k for k in required if k not in params])
    unknown = [k for k in params if k not in names]
    if unknown:
        raise ParseError(f"{family} reads no parameter {', '.join(unknown)}; "
                         f"its parameters: {', '.join(names)}")
    if f_text and family != "Bqf":
        raise ParseError(f"{family} reads no --f; only Bqf takes a "
                         "polynomial f")
    if weyl:
        # a zero l_ij is refused before it is inverted below
        _require_units({k: params[k] for k in names
                        if k != "n" and k in params})
        qs = [params[k] for k in required]
        one = ctx.one()
        lam = [[one for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lij = params.get(f"l{i + 1}{j + 1}", one)
                lam[i][j] = lij
                lam[j][i] = lij.inv()
        variant = "maltsiniotis" if family == "WeylMalt" else "aj"
        return spec_weyl(ctx, qs, lam, variant=variant)
    if family == "BiQuad3":
        v = [params.get(k, ctx.zero()) for k in names]
        return spec_biquad3(ctx, v[:3], (v[3:6], v[6:9], v[9:12]), v[12:])
    if family == "Bqf":
        return spec_bqf(ctx, params["q"], f)
    return FamilySpec(family, ctx, **params)


# ---------------------------------------------------------------------------
# presentation JSON
# ---------------------------------------------------------------------------


def field_to_json(ctx):
    if ctx.kind == "rational":
        return {"kind": "rational"}
    if ctx.kind == "cyclotomic":
        return {"kind": "cyclotomic", "n": ctx.level}
    if ctx.kind == "ratfunc":
        return {"kind": "ratfunc", "params": list(ctx.params)}
    return {"kind": "galois", "p": ctx.char, "modulus": list(ctx.modulus)}


def _json_get(doc, key, kind, where, each=None):
    """doc[key] of type kind (a list of each, if given); a presentation
    file of any other shape is a ParseError naming where."""
    if type(doc) is not dict:
        raise ParseError(f"{where} must be dict")
    val = doc.get(key)
    if type(val) is not kind or each and any(type(x) is not each
                                             for x in val):
        want = kind.__name__ + (f" of {each.__name__}" if each else "")
        raise ParseError(f"{where}: {key!r} must be {want}")
    return val


def field_from_json(doc):
    kind = _json_get(doc, "kind", str, "field")
    if kind == "rational":
        return FieldCtx.rational()
    if kind == "cyclotomic":
        return FieldCtx.cyclotomic(_json_get(doc, "n", int, "field"))
    if kind == "ratfunc":
        return FieldCtx.rational_functions(
            _json_get(doc, "params", list, "field", str))
    if kind == "galois":
        return FieldCtx.galois(_json_get(doc, "p", int, "field"),
                               _json_get(doc, "modulus", list, "field", int))
    raise ParseError(f"field: unknown kind {kind!r}")


def presentation_to_json(p):
    doc = {
        "field": field_to_json(p.ctx),
        "generators": list(p.names),
        "weights": list(p.weights),
        "precedence": list(p.precedence),
        "rules": [],
    }
    if p.family:
        doc["family"] = p.family
    for rule in p.rules:
        doc["rules"].append({
            "lhs": [p.names[g] for g in rule.lhs],
            "rhs": [{"coeff": coeff_to_str(c),
                     "word": [p.names[g] for g in w]}
                    for c, w in sorted(rule.rhs, key=lambda t: t[1])],
        })
    return doc


def presentation_from_json(doc):
    """The Presentation a presentation file's JSON document holds; a
    rule not oriented is an OrientationFailure, as for a family."""
    top = "presentation"
    ctx = field_from_json(_json_get(doc, "field", dict, top))
    names = _json_get(doc, "generators", list, top, str)
    index = {n: i for i, n in enumerate(names)}

    def word(doc, key, where):
        letters = _json_get(doc, key, list, where, str)
        for n in letters:
            if n not in index:
                raise ParseError(f"{where}: unknown generator {n!r}")
        return tuple(index[n] for n in letters)
    rules = []
    for i, r in enumerate(_json_get(doc, "rules", list, top), 1):
        where, term = f"rule {i}", f"rule {i}, a right-side term"
        rhs = [(parse_coeff(_json_get(t, "coeff", str, term), ctx),
                word(t, "word", term))
               for t in _json_get(r, "rhs", list, where)]
        rules.append(RewriteRule(word(r, "lhs", where), rhs))
    return require_oriented(Presentation(
        ctx, names, _json_get(doc, "weights", list, top, int),
        _json_get(doc, "precedence", list, top, str), rules,
        family=doc.get("family")))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class Report:
    def __init__(self, argv):
        self.command = list(argv)
        self.checks = []
        self.t0 = time.monotonic()

    def add(self, name, status, detail="", witness=None):
        rec = {"name": name, "status": status, "detail": detail}
        if witness is not None:
            rec["witness"] = witness
        self.checks.append(rec)

    def finish(self):
        doc = {
            "command": self.command,
            "checks": self.checks,
            "elapsed_ms": int((time.monotonic() - self.t0) * 1000),
        }
        code = 0 if all(c["status"] == "pass" for c in self.checks) else 1
        return code, doc


def validate_report(doc):
    """Schema check for the report JSON; raises ValueError on violations."""
    if set(doc) != {"command", "checks", "elapsed_ms"}:
        raise ValueError("report keys must be command/checks/elapsed_ms")
    if not isinstance(doc["command"], list) or \
            not all(isinstance(s, str) for s in doc["command"]):
        raise ValueError("command must be a list of strings")
    if not isinstance(doc["elapsed_ms"], int):
        raise ValueError("elapsed_ms must be an integer")
    for rec in doc["checks"]:
        if not {"name", "status", "detail"} <= set(rec):
            raise ValueError("check must have name/status/detail")
        if set(rec) - {"name", "status", "detail", "witness"}:
            raise ValueError("unexpected check keys")
        if rec["status"] not in ("pass", "fail", "error"):
            raise ValueError("status must be pass/fail/error")
    return True


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, CentralSet):
        return {"kind": "central-set", "elements": w.names(),
                "condition": w.condition}
    return {"kind": "subalgebra", "parameter": coeff_to_str(w.param),
            "label": w.label}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _inferred_field(*texts):
    """The field --field Q stands for, from the identifiers of texts:
    Q(names) for bare names, the cyclotomic field of the lcm of the levels
    of the roots of unity zN if some N > 2, and Q otherwise.  "t" stays
    reserved for the f-polynomial variable."""
    names, levels = [], []
    for text in filter(None, texts):
        for tok in _tokenize(text):
            name = tok.text
            if tok.kind != "ident" or name == "t":
                continue
            if name[0] == "z" and name[1:].isdigit():
                levels.append(int_literal(name[1:],
                                          "root-of-unity level"))
            elif name not in names:
                names.append(name)
    roots = any(n > 2 for n in levels)
    if names and roots:
        raise ParseError("mixing parameters and roots of unity needs "
                         "an explicit --field")
    if names:
        return FieldCtx.rational_functions(names)
    if roots:
        return FieldCtx.cyclotomic(lcm(*levels))
    return FieldCtx.rational()


def _get_presentation(args):
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:  # not JSON, or not UTF-8
                raise ParseError(f"{args.file} holds no JSON: {e}") from None
        return presentation_from_json(doc), None
    if args.field == "Q":
        ctx = _inferred_field(*[pair.split("=", 1)[1]
                                for pair in args.params.split(",")
                                if "=" in pair], args.q, args.f)
    else:
        ctx = parse_field(args.field)
    params = parse_params(args.params, ctx)
    if args.q:
        if "q" in params:
            raise ParseError("parameter 'q' given twice")
        params["q"] = parse_coeff(args.q, ctx)
    spec = build_spec(args.family, ctx, params, f_text=args.f)
    return build_family(spec), spec


def _get_family(args):
    """(presentation, spec) of a --family algebra; a --file presentation
    has no parameter values, which these commands need."""
    p, spec = _get_presentation(args)
    if spec is None:
        raise ParametersRequired(f"{args.cmd} needs --family and its "
                                 "parameters; a presentation file has none")
    return p, spec


def cmd_families(args, report):
    for fam in FAMILIES:
        report.add(f"family:{fam}", "pass",
                   "parameters: " + ", ".join(FAMILY_PARAMS[fam]))


def cmd_build(args, report):
    p, _ = _get_presentation(args)
    doc = presentation_to_json(p)
    report.add("build", "pass",
               f"{len(p.names)} generators, {len(p.rules)} rules",
               witness=doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


def cmd_normalize(args, report):
    p, _ = _get_presentation(args)
    nf = normal_form(p, parse_ncpoly(args.poly, p))
    report.add("normalize", "pass", nf.pretty(p))


def cmd_identity_check(args, report):
    p, _ = _get_family(args)
    rep = check_paper_identity(args.lemma, p, args.n_max)
    for c in rep.checks:
        status = "pass" if c.ok else "fail"
        detail = f"n={c.n} {c.label}"
        if not c.ok:
            detail += f"; residual {c.residual.pretty(p)}"
        report.add(f"{args.lemma}[{c.n}]{c.label}", status, detail)


def cmd_central_check(args, report):
    p, spec = _get_family(args)
    cs = central_candidates(spec)
    for name, el in cs:
        ok, witness = is_central(p, el)
        if ok:
            report.add(f"central:{name}", "pass", cs.condition)
        else:
            report.add(f"central:{name}", "fail",
                       f"fails at generator {witness[0]}")


def cmd_pi_decide(args, report):
    _, spec = _get_family(args)
    v = pi_decide(spec)
    report.add("pi-decide", "pass", f"{v.verdict}: {v.reason}",
               witness=_witness_json(v.witness))
    if v.verdict == "NotPI" and v.witness is not None:
        ok = verify_witness(spec, v.witness)
        report.add("witness-verify", "pass" if ok else "fail", v.witness.label)


def cmd_confluence(args, report):
    p, _ = _get_presentation(args)
    rep = overlap_check(p)
    for cp in rep.pairs:
        name = f"{cp.kind}:{p.word_str(cp.word)}"
        if cp.resolves:
            report.add(name, "pass", "both reductions agree")
        else:
            report.add(name, "fail",
                       f"residual {cp.residual.pretty(p)}")
    if not rep.pairs:
        report.add("overlaps", "pass", "no critical pairs")


def cmd_spanning(args, report):
    p, spec = _get_family(args)
    caps = parse_caps(args.caps)
    cs = central_candidates(spec)
    result = spanning_check(p, cs, caps, degree=args.degree)
    if result.ok:
        report.add("spanning", "pass",
                   f"rank {result.rank}, degree <= {result.degree}")
    else:
        miss = ", ".join(p.word_str(w) for w in result.missing[:5])
        report.add("spanning", "fail", f"missing monomials: {miss}")


def cmd_matrep(args, report):
    ctx = parse_field(args.field)
    alg = quantum_plane_rep(ctx, args.order, parse_coeff(args.q, ctx))
    report.add("matrep", "pass",
               f"shift/diagonal model at order {args.order}; relation "
               f"y x = q x y verified; algebra dimension {alg.dim}")


def cmd_identity_search(args, report):
    ctx = parse_field(args.field)
    if args.algebra == "m2":
        z, o = ctx.zero(), ctx.one()
        gens = {"e11": ((o, z), (z, z)), "e12": ((z, o), (z, z)),
                "e21": ((z, z), (o, z)), "e22": ((z, z), (z, o))}
        from .matrep import MatAlgebra
        alg = MatAlgebra(2, ctx, gens)
    else:
        q = ctx.root_of_unity(args.order) if args.q is None \
            else parse_coeff(args.q, ctx)
        alg = quantum_plane_rep(ctx, args.order, q)
    space = multilinear_identity_search(alg, args.degree)
    detail = f"kernel dimension {space.dim}"
    if space.dim:
        detail += f"; contains standard s_{args.degree}: " \
            f"{space.contains_standard()}"
    report.add("identity-search", "pass", detail)


@lru_cache(maxsize=None)
def make_parser():
    """The argument parser, built once per process (parse_args keeps no
    state between calls)."""
    ap = argparse.ArgumentParser(
        prog="orepi",
        description="Exact checks for PBW presentations, straightening "
                    "identities, central elements, and PI criteria.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--field", default="Q",
                        help="Q | cyclo:N | ratfunc:a,b | gf:p:c0,c1,..")
        sp.add_argument("--params", default="",
                        help="comma-separated name=expr pairs")
        sp.add_argument("--q", default=None, help="shorthand for q=expr")
        sp.add_argument("--f", default=None,
                        help="polynomial in t (Bqf family)")
        sp.add_argument("--family", default=None)
        sp.add_argument("--file", default=None,
                        help="presentation JSON instead of --family")

    sub.add_parser("families", help="list supported algebra families")

    sp = sub.add_parser("build", help="emit a presentation as JSON")
    common(sp)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("normalize", help="normal form of a polynomial")
    common(sp)
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("identity-check", help="check a named identity corpus")
    common(sp)
    sp.add_argument("--lemma", required=True)
    sp.add_argument("--n-max", type=int, default=8, dest="n_max")

    sp = sub.add_parser("central-check",
                        help="central candidates and their verification")
    common(sp)

    sp = sub.add_parser("pi-decide", help="PI / NotPI / Unknown with witness")
    common(sp)

    sp = sub.add_parser("confluence", help="critical pair analysis")
    common(sp)

    sp = sub.add_parser("spanning", help="finite-over-center spanning check")
    common(sp)
    sp.add_argument("--caps", required=True, help="name=bound pairs")
    sp.add_argument("--degree", type=int, default=None)

    sp = sub.add_parser("matrep", help="quantum plane matrix model")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--q", required=True)

    sp = sub.add_parser("identity-search",
                        help="multilinear identities on a matrix algebra")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--algebra", choices=("m2", "qplane"), default="m2")
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--q", default=None,
                    help="default: a primitive root of order --order")
    sp.add_argument("--degree", type=int, required=True)

    return ap


_HANDLERS = {
    "families": cmd_families,
    "build": cmd_build,
    "normalize": cmd_normalize,
    "identity-check": cmd_identity_check,
    "central-check": cmd_central_check,
    "pi-decide": cmd_pi_decide,
    "confluence": cmd_confluence,
    "spanning": cmd_spanning,
    "matrep": cmd_matrep,
    "identity-search": cmd_identity_search,
}


def run_command(argv):
    """Execute one invocation; returns (exit code, report dict)."""
    parser = make_parser()
    args = parser.parse_args(argv)
    report = Report(argv)
    try:
        _HANDLERS[args.cmd](args, report)
    except (OrepiError, OSError) as e:
        report.add("error", "error", f"{type(e).__name__}: {e}")
    return report.finish()


def main():
    code, doc = run_command(sys.argv[1:])
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
