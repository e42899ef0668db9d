"""CLI contract: subcommands, JSON report schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orepi.cli import (
    FAMILY_PARAMS,
    MAX_WEYL_N,
    make_parser,
    parse_f,
    parse_field,
    parse_ncpoly,
    presentation_from_json,
    presentation_to_json,
    run_command,
    validate_report,
)
from orepi import (
    FamilySpec,
    FieldCtx,
    build_family,
    central_candidates,
    downup_center_generators,
    errors,
    is_central,
    normal_form,
    pi_decide,
    presentations,
    spec_hpq,
)
from orepi.identities import LEMMA_IDS
from orepi.errors import (
    DownUpNotNoetherian,
    OrepiError,
    ParseError,
    PreconditionViolation,
    ZeroParameter,
)

from test_rewrite import ZOO, random_formal


def run(args):
    code, doc = run_command(args)
    validate_report(doc)
    return code, doc


def test_families_lists_all():
    code, doc = run(["families"])
    assert code == 0
    assert len(doc["checks"]) == 11


@pytest.mark.parametrize("f_args", [[], ["--f", "0"]], ids=["no-f", "f0"])
@pytest.mark.parametrize("lemma", [lem for lem in LEMMA_IDS
                                   if lem.startswith("Bqf.")])
def test_identity_check_bqf_at_f_zero(lemma, f_args):
    # without --f, f = 0: every Bqf lemma still reports n_max passing checks
    code, doc = run(["identity-check", "--family", "Bqf", "--params", "q=2",
                     "--lemma", lemma, "--n-max", "4"] + f_args)
    assert code == 0
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 4


def test_identity_check_hpq():
    code, doc = run(["identity-check", "--family", "Hpq",
                     "--field", "ratfunc:p,q", "--params", "p=p,q=q",
                     "--lemma", "H.yxn", "--n-max", "8"])
    assert code == 0
    assert len(doc["checks"]) == 8
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_unknown_lemma_is_a_family_mismatch():
    # reported as every other command-line error is, naming the known ids
    from orepi import LEMMA_IDS
    code, doc = run(["identity-check", "--family", "Hpq", "--params",
                     "p=2,q=3", "--lemma", "H.nope"])
    assert code == 1
    [check] = doc["checks"]
    assert (check["name"], check["status"]) == ("error", "error")
    assert check["detail"] == ("FamilyMismatch: unknown lemma id 'H.nope'; "
                               "known: " + ", ".join(LEMMA_IDS))


def test_pi_decide_bqf_unknown():
    code, doc = run(["pi-decide", "--family", "Bqf", "--field", "cyclo:3",
                     "--f", "t^8", "--q", "z3"])
    assert code == 0
    assert "Unknown" in doc["checks"][0]["detail"]


def test_field_autopromotion():
    # bare parameter identifiers promote Q to a rational-function field
    code, doc = run(["identity-check", "--family", "Hpq",
                     "--params", "p=p,q=q", "--lemma", "H.yxn",
                     "--n-max", "3"])
    assert code == 0 and len(doc["checks"]) == 3
    # zN promotes Q to the cyclotomic field containing it
    code, doc = run(["pi-decide", "--family", "Bqf", "--f", "t^8",
                     "--q", "z3"])
    assert code == 0
    assert "Unknown" in doc["checks"][0]["detail"]


def test_pi_decide_witness_record():
    code, doc = run(["pi-decide", "--family", "Hpq", "--field", "cyclo:3",
                     "--params", "p=2,q=z3"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "witness-verify" in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_confluence_exit_one_on_violation(tmp_path):
    # a biquadratic instance violating (1 - q1 q2) lambda = 0
    code, doc = run(["confluence", "--family", "BiQuad3", "--field", "Q",
                     "--params", "q1=2,q2=3,q3=5,la=1"])
    assert code == 1
    failing = [c for c in doc["checks"] if c["status"] == "fail"]
    assert failing and "residual" in failing[0]["detail"]


def test_confluence_from_file(tmp_path):
    code, doc = run(["build", "--family", "Hpq", "--field", "ratfunc:p,q",
                     "--params", "p=p,q=q",
                     "--out", str(tmp_path / "h.json")])
    assert code == 0
    code2, doc2 = run(["confluence", "--file", str(tmp_path / "h.json")])
    assert code2 == 0
    assert all(c["status"] == "pass" for c in doc2["checks"])


def test_normalize():
    code, doc = run(["normalize", "--family", "Hpq", "--field", "ratfunc:p,q",
                     "--params", "p=p,q=q", "--poly", "y*x^2"])
    assert code == 0
    assert "x*x*y" in doc["checks"][0]["detail"]


def test_normalize_matches_engine(rat_pq):
    H = build_family(spec_hpq(rat_pq, rat_pq.param("p"), rat_pq.param("q")))
    terms = parse_ncpoly("(p^2-1)*y*x - 3*t^2 + x*y", H)
    nf = normal_form(H, terms)
    direct = normal_form(H, [
        (rat_pq.param("p") ** 2 - 1, H.word("y", "x")),
        (rat_pq.from_int(-3), H.word("t", "t")),
        (rat_pq.one(), H.word("x", "y")),
    ])
    assert nf == direct
    # division by a coefficient, signed factors, a sum in brackets
    one, half = rat_pq.one(), rat_pq.from_fraction(Fraction(1, 2))
    x, y, xx, xy = H.word("x"), H.word("y"), H.word("x", "x"), H.word("x", "y")
    cases = {
        "x/2": [(half, x)],
        "2/3*x": [(rat_pq.from_fraction(Fraction(2, 3)), x)],
        "x/2*y": [(half, xy)],
        "x*-2": [(rat_pq.from_int(-2), x)],
        "-x - -y": [(-one, x), (one, y)],
        "x*(x+y)": [(one, xx), (one, xy)],
    }
    for text, terms in cases.items():
        assert normal_form(H, parse_ncpoly(text, H)) == \
            normal_form(H, terms), text
    with pytest.raises(ParseError):
        parse_ncpoly("x^-1", H)


HPQ_SYMBOLIC = FieldCtx.rational_functions(("p", "q"))
PRETTY_CASES = ZOO + [pytest.param(
    build_family(spec_hpq(HPQ_SYMBOLIC, HPQ_SYMBOLIC.param("p"),
                          HPQ_SYMBOLIC.param("q"))), id="Hpq-Q(p,q)")]


@pytest.mark.parametrize("p", PRETTY_CASES)
def test_normalize_parses_its_own_output(p, rng):
    for _ in range(8):
        nf = normal_form(p, random_formal(p, rng, terms=3, max_len=5))
        assert normal_form(p, parse_ncpoly(nf.pretty(p), p)) == nf


def test_central_check():
    code, doc = run(["central-check", "--family", "UqB2", "--field",
                     "cyclo:5", "--q", "z5"])
    assert code == 0
    assert {c["name"] for c in doc["checks"]} == \
        {"central:z", "central:e1^5", "central:e2^5", "central:e3^5"}


def test_central_check_hypothesis_error():
    code, doc = run(["central-check", "--family", "UqB2", "--field",
                     "cyclo:3", "--q", "z3"])
    assert code == 1
    assert doc["checks"][0]["status"] == "error"


def test_spanning_subcommand():
    code, doc = run(["spanning", "--family", "Hpq", "--field", "cyclo:3",
                     "--params", "p=-1,q=z3", "--caps", "x=6,y=6,t=2",
                     "--degree", "8"])
    assert code == 0


def test_matrep_and_identity_search():
    code, doc = run(["matrep", "--order", "3", "--field", "cyclo:3",
                     "--q", "z3"])
    assert code == 0
    # its errors are typed like every other command's
    code, doc = run(["matrep", "--order", "3", "--q", "2"])
    assert code == 1
    assert doc["checks"] == [{
        "name": "error", "status": "error",
        "detail": "NotPrimitiveRoot: q is not a primitive 3-th root of unity"}]
    code, doc = run(["identity-search", "--algebra", "m2", "--degree", "3"])
    assert code == 0
    assert "dimension 0" in doc["checks"][0]["detail"]
    code, doc = run(["identity-search", "--algebra", "m2", "--degree", "4"])
    assert "contains standard s_4: True" in doc["checks"][0]["detail"]


def test_identity_search_default_q_is_a_primitive_root():
    # without --q the quantum plane model takes a primitive root of order
    # --order from the field: -1 at order 2, z3 over Q(z3) at order 3
    def search(*extra):
        code, doc = run(["identity-search", "--algebra", "qplane",
                         "--degree", "3", *extra])
        doc.pop("elapsed_ms")
        return code, doc["checks"]

    assert search("--order", "2") == search("--order", "2", "--q", "-1")
    assert search("--order", "3", "--field", "cyclo:3") == \
        search("--order", "3", "--field", "cyclo:3", "--q", "z3") == \
        (0, [{"name": "identity-search", "status": "pass",
              "detail": "kernel dimension 0"}])
    code, checks = search("--order", "3", "--field", "gf:2:1,1,1")
    assert code == 0 and checks[0]["status"] == "pass"
    # a field without such a root is a typed error, as --q z2 over GF(4) is
    for field in ("Q", "gf:7"):
        code, checks = search("--order", "5", "--field", field)
        assert code == 1
        assert checks[0]["detail"].startswith("ZeroInput: ")


def test_reports_deterministic():
    args = ["identity-check", "--family", "Hpq", "--field", "ratfunc:p,q",
            "--params", "p=p,q=q", "--lemma", "H.ynx", "--n-max", "3"]
    _, a = run(args)
    _, b = run(args)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_reused_parser_reports_as_a_fresh_process():
    # make_parser builds the parser once per process; a run that ends in
    # an error, or any earlier run, must leave nothing behind in it
    import orepi
    src = os.path.dirname(os.path.dirname(orepi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    commands = [
        ["normalize", "--family", "Hpq", "--params", "p=2,q=3",
         "--poly", "x/2*y"],
        ["spanning", "--family", "QuantumPlane", "--q", "z3", "--caps", "x"],
        ["spanning", "--family", "QuantumPlane", "--q", "z3",
         "--caps", "x=3,y=3", "--degree", "4"],
        ["identity-search", "--algebra", "qplane", "--degree", "3"],
        ["pi-decide", "--family", "Bqf", "--f", "t^8", "--q", "z3"],
        ["normalize", "--family", "Hpq", "--params", "p=2,q=3",
         "--poly", "x/2*y"],
    ]
    for argv in commands:
        code, doc = run(argv)
        fresh = subprocess.run([sys.executable, "-m", "orepi.cli", *argv],
                               capture_output=True, text=True, env=env)
        want = json.loads(fresh.stdout)
        assert code == fresh.returncode
        doc.pop("elapsed_ms")
        want.pop("elapsed_ms")
        assert doc == want
    assert "ParseError" in json.dumps(run(commands[1])[1])
    assert make_parser() is make_parser()


@pytest.mark.parametrize("field,params,case", [
    ("gf:7", "alpha=2,beta=-1,gamma=0", "RepeatedRoot1"),
    ("gf:5", "alpha=4,beta=-4,gamma=0", "RepeatedRootJordanBlock"),
    ("gf:7", "alpha=0,beta=1,gamma=1", "Lambda1GammaNonzero"),
])
def test_pi_decide_downup_over_galois_is_typed(field, params, case):
    # A(2, -1, 0) over GF(7) is the enveloping algebra of the Heisenberg
    # Lie algebra, PI in characteristic p: no NotPI verdict may come out
    code, doc = run(["pi-decide", "--family", "DownUp", "--field", field,
                     "--params", params])
    assert code == 1
    (check,) = doc["checks"]
    assert check["status"] == "error"
    assert check["detail"].startswith(f"PreconditionViolation: {case} ")


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_command(["no-such-command"])
    assert exc.value.code == 2


def test_internal_error_reported():
    code, doc = run(["build", "--family", "Hpq", "--field", "Q",
                     "--params", "p=0,q=1"])
    assert code == 1
    assert doc["checks"][0]["status"] == "error"
    assert "ZeroParameter" in doc["checks"][0]["detail"]


def test_parse_f_polynomials():
    ctx = FieldCtx.cyclotomic(3)
    f = parse_f("t + t^5", ctx)
    assert len(f) == 6
    assert f[1].is_one() and f[5].is_one() and f[0].is_zero()
    f2 = parse_f("(z3+1)*t^2 - 2", ctx)
    assert f2[2] == ctx.generator() + 1
    assert f2[0] == ctx.from_int(-2)
    # a coefficient takes any integer power, t only non-negative ones
    assert parse_f("2^-1*t", ctx) == (ctx.zero(),
                                      ctx.from_fraction(Fraction(1, 2)))
    for text in ("t^-1", "1/t"):
        with pytest.raises(ParseError):
            parse_f(text, ctx)


def test_parse_field_variants():
    assert parse_field("Q").kind == "rational"
    assert parse_field("cyclo:6").level == 6
    assert parse_field("ratfunc:p,q").params == ("p", "q")
    g = parse_field("gf:3:1,0,1")
    assert g.char == 3 and len(g.modulus) == 3


def test_presentation_json_schema_fields():
    ctx = FieldCtx.rational_functions(("p", "q"))
    p = build_family(spec_hpq(ctx, ctx.param("p"), ctx.param("q")))
    doc = presentation_to_json(p)
    assert set(doc) == {"field", "generators", "weights", "precedence",
                        "rules", "family"}
    rule = doc["rules"][0]
    assert set(rule) == {"lhs", "rhs"}
    assert all(set(t) == {"coeff", "word"} for t in rule["rhs"])
    assert presentation_from_json(json.loads(json.dumps(doc))) == p


def test_ncpoly_expansion_ceiling():
    from orepi import spec_m2
    from orepi.cli import MAX_EXPANDED_TERMS
    QQ = FieldCtx.rational()
    p = build_family(spec_hpq(QQ, QQ.from_int(2), QQ.from_int(3)))
    with pytest.raises(ParseError, match=str(MAX_EXPANDED_TERMS)):
        parse_ncpoly("(x+y)^20", p)
    ix, iy = p.names.index("x"), p.names.index("y")
    cube = parse_ncpoly("(x+y)^3", p)
    assert len(cube) == 8
    assert {w for _, w in cube} == {(a, b, c) for a in (ix, iy)
                                    for b in (ix, iy) for c in (ix, iy)}
    assert all(c == QQ.one() for c, _ in cube)
    m2 = build_family(spec_m2(QQ, QQ.from_int(2), QQ.from_int(3)))
    i22, i11 = m2.names.index("X22"), m2.names.index("X11")
    assert parse_ncpoly("X22*X11^3", m2) == [(QQ.one(), (i22, i11, i11, i11))]


def test_ncpoly_word_length_ceiling():
    # parsing x^k builds k words of growing length, so a long power used to
    # run for minutes before any check saw it
    from orepi.cli import MAX_WORD_LENGTH
    base = ["normalize", "--family", "QuantumPlane", "--q", "2", "--poly"]
    t0 = time.perf_counter()
    code, doc = run(base + ["y*x^200000"])
    assert time.perf_counter() - t0 < 2
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"].startswith("ParseError: ")
    assert str(MAX_WORD_LENGTH) in doc["checks"][0]["detail"]
    code, doc = run(base + [f"x^{MAX_WORD_LENGTH}"])
    assert code == 0 and doc["checks"][0]["status"] == "pass"
    code, doc = run(base + [f"x^{MAX_WORD_LENGTH + 1}"])
    assert code == 1
    assert doc["checks"][0]["detail"].startswith("ParseError: ")
    with pytest.raises(ParseError, match=str(MAX_WORD_LENGTH)):
        parse_f(f"t^{MAX_WORD_LENGTH + 1}", FieldCtx.rational())


@pytest.mark.parametrize("argv", [
    ["pi-decide"],
    ["central-check"],
    ["spanning", "--caps", "X11=2,X12=2,X21=2,X22=2"],
    ["identity-check", "--lemma", "M2.k1"],
])
def test_family_commands_reject_presentation_files(tmp_path, argv):
    # a presentation file carries no parameter values
    path = tmp_path / "m2.json"
    code, _ = run(["build", "--family", "M2", "--params", "alpha=a,beta=b",
                   "--out", str(path)])
    assert code == 0
    code, doc = run(argv + ["--file", str(path)])
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"].startswith("ParametersRequired: ")


@pytest.mark.parametrize("argv,missing", [
    (["normalize", "--family", "Bh", "--poly", "x1"], "h"),
    (["identity-check", "--family", "Hpq", "--lemma", "H.yxn",
      "--n-max", "3"], "p, q"),
    (["normalize", "--family", "M2", "--poly", "X11"], "alpha, beta"),
    (["normalize", "--family", "UqB2", "--poly", "z"], "q"),
    (["pi-decide", "--family", "WeylMalt", "--params", "l12=2"], "q1"),
    (["normalize", "--family", "WeylAJ", "--params", "n=3,q2=2",
      "--poly", "x1"], "q1, q3"),
    (["confluence", "--family", "BiQuad3", "--params", "q1=2,la=1"],
     "q2, q3"),
    (["normalize", "--family", "ThreeCyclic", "--params", "q=2,beta=3",
      "--poly", "x"], "alpha, gamma"),
    (["pi-decide", "--family", "DownUp", "--params", "alpha=2"],
     "beta, gamma"),
    (["identity-check", "--family", "Bqf", "--lemma", "Bqf.wku",
      "--n-max", "3", "--f", "t+t^5"], "q"),
    (["normalize", "--family", "QuantumPlane", "--poly", "x"], "q"),
])
def test_missing_family_parameters_are_named(argv, missing):
    code, doc = run(argv)
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"] == \
        f"ParametersRequired: {argv[2]} needs a value for {missing}"


@pytest.mark.parametrize("field,qs", [("cyclo:3", "q1=z3,q2=z3"),
                                      ("Q", "q1=p,q2=q")])
def test_weyl_n_parameter_outside_q(field, qs):
    # n is read as a number in every coefficient field, not only over Q
    base = ["pi-decide", "--family", "WeylMalt", "--field", field]
    code, doc = run(base + ["--params", f"n=2,{qs},l12=1"])
    assert code == 0
    code, inferred = run(base + ["--params", f"{qs},l12=1"])
    assert code == 0
    assert doc["checks"] == inferred["checks"]


@pytest.mark.parametrize("n", ["0", "-1", "1/2", "z3"])
def test_weyl_n_parameter_must_be_positive_integer(n):
    code, doc = run(["pi-decide", "--family", "WeylMalt", "--field",
                     "cyclo:3", "--params", f"n={n},q1=z3,l12=1"])
    assert code == 1
    assert doc["checks"][0]["status"] == "error"
    assert doc["checks"][0]["detail"].startswith("ParseError: ")


@pytest.mark.parametrize("params", ["n=10^30,q1=2", "n=101,q1=2",
                                    "q1000000=2"])
def test_weyl_n_above_the_ceiling_is_a_parse_error(params):
    # n(n+1)/2 parameter names are listed for n generator pairs: a larger
    # n than MAX_WEYL_N is refused before that
    code, doc = run(["build", "--family", "WeylAJ", "--params", params])
    assert code == 1
    assert doc["checks"][0]["detail"] == \
        f"ParseError: WeylAJ takes at most {MAX_WEYL_N} generator pairs (n)"


def test_spanning_missing_cap_is_typed():
    code, doc = run(["spanning", "--family", "QuantumPlane", "--q", "z3",
                     "--caps", "x=3"])
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    detail = doc["checks"][0]["detail"]
    assert detail.startswith("PreconditionViolation: ") and "y" in detail


@pytest.mark.parametrize("caps", ["x", "x=a,y=3", "x=-1,y=3", "x=3,,y=3",
                                  "=3,y=3", "x=3,x=4,y=3"])
def test_spanning_malformed_caps_are_parse_errors(caps):
    code, doc = run(["spanning", "--family", "QuantumPlane", "--q", "z3",
                     "--caps", caps])
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"].startswith("ParseError: ")


_ONES = "1" * 5000
_QP = ["build", "--family", "QuantumPlane"]


@pytest.mark.parametrize("argv,error", [
    (_QP + ["--q", "z99999999999999999999"], "InvalidField"),
    (_QP + ["--field", "cyclo:100000", "--q", "1"], "InvalidField"),
    (_QP + ["--q", _ONES], "ParseError"),
    (_QP + ["--q", "z" + _ONES], "ParseError"),
    (_QP + ["--field", "cyclo:3", "--q", "z" + _ONES], "ParseError"),
    (_QP + ["--q", "2^" + _ONES], "ParseError"),
    (["spanning", "--family", "QuantumPlane", "--q", "z3",
      "--caps", f"x={_ONES},y=2"], "ParseError"),
    (["build", "--family", "WeylMalt", "--params", f"q{_ONES}=2"],
     "ParseError"),
    (_QP + ["--q", "2^20000"], "NumberTooLarge"),
    (["pi-decide", "--family", "QuantumPlane", "--q", "2^20000"],
     "NumberTooLarge"),
    (["normalize", "--family", "QuantumPlane", "--q", "2",
      "--poly", "10^5000*x"], "NumberTooLarge"),
], ids=["level 10^20", "cyclo:100000", "integer", "zN inferred",
        "zN in cyclo:3", "exponent", "cap", "Weyl index", "printed rule",
        "printed witness", "printed normal form"])
def test_very_large_numbers_end_in_typed_reports(argv, error):
    # a cyclotomic level above fields.MAX_CYCLOTOMIC_LEVEL is refused
    # before Phi_N is built, a literal with more digits than int() reads
    # is a ParseError, and a value with more digits than str() writes,
    # from a short literal, is a NumberTooLarge as the report is written:
    # not a traceback or a MemoryError
    t0 = time.monotonic()
    code, doc = run(argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    [check] = doc["checks"]
    assert check["status"] == "error"
    assert check["detail"].startswith(f"{error}: ")


def test_spanning_cap_for_no_generator_is_typed():
    # the unused cap z=9 used to set the default degree to 20 and pass
    code, doc = run(["spanning", "--family", "QuantumPlane", "--q", "z3",
                     "--caps", "x=3,y=3,z=9"])
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    detail = doc["checks"][0]["detail"]
    assert detail.startswith("PreconditionViolation: ") and "z" in detail
    code, doc = run(["spanning", "--family", "QuantumPlane", "--q", "z3",
                     "--caps", " x = 3 , y=3"])
    assert code == 0
    assert doc["checks"][0]["detail"].endswith("degree <= 8")


def _recorded_reports():
    path = os.path.join(os.path.dirname(__file__), "data", "cli_reports.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_examples_match_recorded_reports(tmp_path, monkeypatch):
    # the CI command-line examples and the twisted-power identity checks,
    # in CI order: build --out m2.json runs before normalize --file m2.json
    monkeypatch.chdir(tmp_path)
    for rec in _recorded_reports():
        code, doc = run(rec["report"]["command"])
        del doc["elapsed_ms"]
        assert (code, json.loads(json.dumps(doc))) == \
            (rec["exit"], rec["report"]), rec["report"]["command"]


def test_main_writes_one_json_document_per_run(tmp_path):
    # python -m orepi.cli, as the CI command-line step runs each record: a
    # passing and a failing record, each one JSON document and a newline
    import orepi
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(orepi.__file__)))
    records = _recorded_reports()
    for rec in (records[0], next(r for r in records if r["exit"])):
        out = subprocess.run([sys.executable, "-m", "orepi.cli",
                              *rec["report"]["command"]], cwd=tmp_path,
                             capture_output=True, text=True, env=env)
        assert out.returncode == rec["exit"]
        doc, end = json.JSONDecoder().raw_decode(out.stdout)
        assert out.stdout[end:] == "\n"
        del doc["elapsed_ms"]
        assert doc == rec["report"]


# inputs whose report differs from the one recorded in field_inference.json
# before the field was inferred ahead of the one parse, with the new exit
# code, first detail and field: a --f naming a parameter or a root of unity
# that no --params/--q value names now sets the field too, and z0 no longer
# reaches a cyclotomic field of level 0
INFERENCE_CHANGED = {
    ("build", "--family", "QuantumPlane", "--q", "z0"):
        (1, "ZeroInput: no primitive 0-th root in Q", None),
    ("build", "--family", "Bqf", "--q", "2", "--f", "a*t"):
        (0, "3 generators, 3 rules", {"kind": "ratfunc", "params": ["a"]}),
    ("build", "--family", "Bqf", "--q", "2", "--f", "z3*t"):
        (0, "3 generators, 3 rules", {"kind": "cyclotomic", "n": 3}),
}


def _inference_records():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "field_inference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("rec", _inference_records(),
                         ids=lambda rec: " ".join(rec["report"]["command"]))
def test_field_inference_matches_recorded_reports(rec):
    # names, zN with N <= 2 and N > 2, both mixed, syntax errors, inputs
    # with no identifier and an explicit --field, each parsed once
    argv = rec["report"]["command"]
    code, doc = run(argv)
    del doc["elapsed_ms"]
    changed = INFERENCE_CHANGED.get(tuple(argv))
    if changed is None:
        assert (code, doc) == (rec["exit"], rec["report"])
    else:
        check = doc["checks"][0]
        assert (code, check["detail"],
                check.get("witness", {}).get("field")) == changed
        assert (code, doc) != (rec["exit"], rec["report"])


@pytest.mark.parametrize("argv,unknown,known", [
    (["build", "--family", "Bh", "--params", "h=2,hh=3"], "hh", "h"),
    (["build", "--family", "Hpq", "--params", "p=2,q=3,t=1"], "t", "p, q"),
    (["build", "--family", "M2", "--params", "alpha=2,beta=3,gamma=7"],
     "gamma", "alpha, beta"),
    (["build", "--family", "UqB2", "--q", "2", "--params", "p=3"], "p", "q"),
    (["build", "--family", "WeylMalt", "--params", "q1=2,l12=3"], "l12",
     "n, q1"),
    (["build", "--family", "WeylMalt", "--params", "n=2,q1=2,q2=3,q3=5"],
     "q3", "n, q1, q2, l12"),
    (["build", "--family", "WeylAJ", "--params", "qx=3,q1=2"], "qx",
     "n, q1"),
    (["build", "--family", "WeylAJ", "--params", "q1=2,q2=3,l21=2"], "l21",
     "n, q1, q2, l12"),
    (["confluence", "--family", "BiQuad3", "--params",
      "q1=2,q2=3,q3=5,gama=1"], "gama",
     "q1, q2, q3, a, b, c, al, be, ga, la, mu, nu, b1, b2, b3"),
    (["build", "--family", "ThreeCyclic", "--params",
      "q=2,alpha=1,beta=1,gamma=1,delta=1,eps=2"], "delta, eps",
     "q, alpha, beta, gamma"),
    (["build", "--family", "DownUp", "--params",
      "alpha=2,beta=-1,gamma=0", "--q", "3"], "q", "alpha, beta, gamma"),
    (["build", "--family", "Bqf", "--q", "2", "--params", "f=1"], "f", "q"),
    (["build", "--family", "QuantumPlane", "--q", "2", "--params", "p=2"],
     "p", "q"),
])
def test_names_a_family_does_not_read_are_parse_errors(argv, unknown, known):
    code, doc = run(argv)
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"] == (
        f"ParseError: {argv[2]} reads no parameter {unknown}; "
        f"its parameters: {known}")


@pytest.mark.parametrize("argv,name", [
    (["build", "--family", "QuantumPlane", "--params", "q=2,q=3"], "q"),
    (["build", "--family", "QuantumPlane", "--params", "q=2", "--q", "3"],
     "q"),
    (["pi-decide", "--family", "DownUp", "--params",
      "alpha=0,beta=1, beta =1,gamma=0"], "beta"),
])
def test_a_parameter_given_twice_is_a_parse_error(argv, name):
    # like a cap given twice, a repeated parameter is refused, not
    # overwritten by its second value
    code, doc = run(argv)
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"] == \
        f"ParseError: parameter {name!r} given twice"


@pytest.mark.parametrize("field,name", [("cyclo:3", "Q(z3)"),
                                        ("gf:7", "GF(7^1)"),
                                        ("gf:2:1,1,1", "GF(2^2)")])
def test_z0_is_zero_input_over_every_field(field, name):
    code, doc = run(["build", "--family", "QuantumPlane", "--field", field,
                     "--q", "z0"])
    assert code == 1
    assert doc["checks"][0]["detail"].startswith("ZeroInput: no ")
    assert doc["checks"][0]["detail"].endswith(f" 0-th root in {name}")


@pytest.mark.parametrize("argv", [
    ["build", "--family", "Hpq", "--params", "p=2,q=3", "--f", "a*t"],
    ["build", "--family", "QuantumPlane", "--q", "2", "--f", "t"],
    ["pi-decide", "--family", "DownUp", "--field", "cyclo:3", "--params",
     "alpha=-1,beta=-1,gamma=0", "--f", "t^2"],
    ["normalize", "--family", "WeylMalt", "--params", "n=1,q1=2", "--f",
     "t", "--poly", "x1"],
])
def test_f_on_a_family_without_f_is_a_parse_error(argv):
    code, doc = run(argv)
    assert code == 1
    assert [c["status"] for c in doc["checks"]] == ["error"]
    assert doc["checks"][0]["detail"] == (
        f"ParseError: {argv[2]} reads no --f; only Bqf takes a polynomial f")


def test_weyl_q_names_without_an_index_are_not_read():
    # qx is no q_i, so it sets no n: q1 is missing, not int("x")
    code, doc = run(["build", "--family", "WeylMalt", "--params", "qx=3"])
    assert code == 1
    assert doc["checks"][0]["detail"] == \
        "ParametersRequired: WeylMalt needs a value for q1"


def test_normalize_file_with_a_one_letter_left_side(tmp_path):
    # t -> 3 applies to every t, the last letter of the word too
    doc = {"field": {"kind": "rational"}, "generators": ["x", "y", "t"],
           "weights": [1, 1, 1], "precedence": ["x", "y", "t"],
           "rules": [{"lhs": ["y", "x"],
                      "rhs": [{"coeff": "2", "word": ["x", "y"]}]},
                     {"lhs": ["t"], "rhs": [{"coeff": "3", "word": []}]}]}
    path = tmp_path / "one_letter.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for poly, nf in (("t", "(3)*1"), ("y*x*t*t", "(18)*x*y"),
                     ("t*y*t*x + t", "(3)*1 + (18)*x*y")):
        code, out = run(["normalize", "--file", str(path), "--poly", poly])
        assert code == 0
        assert out["checks"][0]["detail"] == nf


@pytest.mark.parametrize("change,message", [
    ({"generators": ["x", "y", "x"], "weights": [1, 1, 1],
      "precedence": ["x", "y", "x"]}, "generator names must be unique"),
    ({"weights": [1, 0]}, "weights must be positive"),
    ({"precedence": ["x"]}, "precedence must list every generator once"),
])
def test_a_malformed_presentation_file_is_a_precondition_violation(
        tmp_path, change, message):
    doc = {"field": {"kind": "rational"}, "generators": ["x", "y"],
           "weights": [1, 1], "precedence": ["x", "y"],
           "rules": [{"lhs": ["y", "x"],
                      "rhs": [{"coeff": "2", "word": ["x", "y"]}]}]}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(dict(doc, **change)), encoding="utf-8")
    code, out = run(["normalize", "--file", str(path), "--poly", "y*x"])
    assert code == 1
    assert [c["detail"] for c in out["checks"]] == \
        [f"PreconditionViolation: {message}"]


_GOOD_FILE = {"field": {"kind": "rational"}, "generators": ["x", "y"],
              "weights": [1, 1], "precedence": ["x", "y"],
              "rules": [{"lhs": ["y", "x"],
                         "rhs": [{"coeff": "2", "word": ["x", "y"]}]}]}


@pytest.mark.parametrize("doc,error", [
    ([1], "ParseError: presentation must be dict"),
    ({}, "ParseError: presentation: 'field' must be dict"),
    (dict(_GOOD_FILE, field={"kind": "cyclotomic", "n": "x"}),
     "ParseError: field: 'n' must be int"),
    (dict(_GOOD_FILE, field={"kind": "galois", "n": 7}),
     "ParseError: field: 'p' must be int"),
    (dict(_GOOD_FILE, field={"kind": "finite", "p": 7}),
     "ParseError: field: unknown kind 'finite'"),
    (dict(_GOOD_FILE, field={"kind": "cyclotomic", "n": 0}),
     "InvalidField: cyclotomic level must be >= 1"),
    (dict(_GOOD_FILE, generators=["x", 2]),
     "ParseError: presentation: 'generators' must be list of str"),
    (dict(_GOOD_FILE, rules=[{"lhs": ["y", "z"], "rhs": []}]),
     "ParseError: rule 1: unknown generator 'z'"),
    (dict(_GOOD_FILE, rules=[{"lhs": ["y", "x"], "rhs": [["2", ["x"]]]}]),
     "ParseError: rule 1, a right-side term must be dict"),
    (dict(_GOOD_FILE, rules=[{"lhs": [], "rhs": []}]),
     "PreconditionViolation: a left side must be nonempty"),
    (dict(_GOOD_FILE, weights=[1]),
     "PreconditionViolation: one weight per generator"),
    ("{", "ParseError: f.json holds no JSON: Expecting property name "
          "enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_a_malformed_presentation_file_is_typed(tmp_path, monkeypatch, doc,
                                               error):
    # a file of the wrong shape is an OrepiError report, not a traceback
    monkeypatch.chdir(tmp_path)
    text = doc if isinstance(doc, str) else json.dumps(doc)
    (tmp_path / "f.json").write_text(text, encoding="utf-8")
    code, out = run(["normalize", "--file", "f.json", "--poly", "y*x"])
    assert code == 1
    assert [c["detail"] for c in out["checks"]] == [error]
    assert issubclass(getattr(errors, error.split(":")[0]), OrepiError)


@pytest.mark.parametrize("field,part", [
    ("cyclo:abc", "cyclotomic level 'abc'"), ("cyclo:", "cyclotomic level ''"),
    ("gf:x", "characteristic 'x'"), ("gf:", "characteristic ''"),
    ("gf:7:a,b", "modulus coefficient 'a'"),
])
def test_a_malformed_field_spec_is_a_parse_error(field, part):
    code, doc = run(["build", "--family", "QuantumPlane", "--field", field,
                     "--q", "1"])
    assert code == 1
    assert [c["detail"] for c in doc["checks"]] == \
        [f"ParseError: field spec {field!r}: the {part} is not an integer"]
    with pytest.raises(ParseError):
        parse_field(field)


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of the family builders and of overlap_check, counted."""
    counts = Counter()
    for family, rec in list(presentations._FAMILIES.items()):
        def build(spec, builder=rec.build):
            counts["builds"] += 1
            return builder(spec)
        monkeypatch.setitem(presentations._FAMILIES, family,
                            rec._replace(build=build))
    overlap_check = presentations.overlap_check

    def overlap(p):
        counts["overlap_checks"] += 1
        return overlap_check(p)
    monkeypatch.setattr(presentations, "overlap_check", overlap)
    return counts


def test_one_build_per_command(build_counts):
    # each recorded pi-decide (with its witness-verify), central-check,
    # spanning and identity-check command runs one family builder, or none
    # when its input fails to parse, and at most one overlap_check
    commands = [rec["report"]["command"] for rec in _recorded_reports()
                if rec["report"]["command"][0] in
                ("pi-decide", "central-check", "spanning", "identity-check")]
    assert len(commands) >= 20
    for argv in commands:
        build_counts.clear()
        code, _ = run(argv)
        assert build_counts["builds"] == 1 or \
            (code == 1 and not build_counts["builds"]), argv
        assert build_counts["overlap_checks"] <= 1, argv


def test_candidates_then_build_builds_once(build_counts):
    c3 = FieldCtx.cyclotomic(3)
    spec = spec_hpq(c3, c3.from_int(-1), c3.generator())
    cs = central_candidates(spec)
    p = build_family(spec)
    assert all(is_central(p, el)[0] for _, el in cs)
    assert build_counts == {"builds": 1, "overlap_checks": 1}


@pytest.mark.parametrize("family,params,error", [
    ("DownUp", "alpha=1,beta=0,gamma=1", DownUpNotNoetherian),
    ("Bh", "h=0", ZeroParameter),
])
def test_a_refused_parameter_is_one_error_everywhere(family, params, error):
    # the family builder is the one check, whichever entry point builds
    assert issubclass(error, PreconditionViolation)
    for cmd in ("pi-decide", "central-check"):
        code, doc = run([cmd, "--family", family, "--params", params])
        assert code == 1
        assert doc["checks"][0]["detail"].startswith(f"{error.__name__}: ")
    QQ = FieldCtx.rational()
    values = {k: QQ.from_int(int(v))
              for k, v in (pair.split("=") for pair in params.split(","))}
    entries = [pi_decide, central_candidates]
    if family == "DownUp":
        entries.append(downup_center_generators)
    for entry in entries:
        with pytest.raises(error):
            entry(FamilySpec(family, QQ, **values))


@pytest.mark.parametrize("family", ["WeylMalt", "WeylAJ"])
@pytest.mark.parametrize("params,name", [
    ("q1=2,q2=3,l12=0", "l12"),
    ("n=3,q1=2,q2=3,q3=5,l12=2,l23=0", "l23"),
    ("q1=0,q2=3,l12=0", "q1"),
])
def test_a_zero_weyl_parameter_is_named(family, params, name):
    # a zero l_ij is refused before it is inverted, as the q_i are: first
    # by name, q_i before l_ij
    code, doc = run(["build", "--family", family, "--params", params])
    assert code == 1
    assert doc["checks"][0]["detail"] == \
        f"ZeroParameter: parameter {name} must be nonzero"


# ---------------------------------------------------------------------------
# every command line ends in a report: a fuzz test over all subcommands
# ---------------------------------------------------------------------------

# each field string with values it reads; the hostile values are 0, z0,
# large integers, unknown names and malformed text
_FUZZ_FIELDS = {
    "Q": ["2", "-1", "3", "1/2"],
    "cyclo:3": ["z3", "-1", "z3^2", "2"],
    "cyclo:4": ["z4", "-1", "z4+1"],
    "cyclo:6": ["z6", "-z6", "z6^2", "3"],
    "gf:7": ["2", "-1", "3"],
    "gf:7:3,1,1": ["2", "-1", "5"],
    "ratfunc:q": ["q", "q^2", "2", "q+1"],
    "ratfunc:p,q": ["p", "q", "p*q", "-1"],
}
_FUZZ_HOSTILE = ["0", "z0", "10^30", "-(10^40)", "2^-1",
                 "123456789012345678901234567890", "nope", "z5", "1/0", ""]
_FUZZ_BAD_FIELDS = ["cyclo:0", "cyclo:1001", "cyclo:x", "gf:4", "gf:7:0,1",
                    "gf:7:a", "gf:103", "ratfunc:q,q", "nope", ""]
_FUZZ_COMMANDS = ["families", "build", "normalize", "identity-check",
                  "central-check", "pi-decide", "confluence", "spanning",
                  "matrep", "identity-search"]
_FUZZ_WORDS = ["x*y", "y*x", "x^2*y", "x1*y1", "e1*e2", "u*d", "X12*X21",
               "2*x", "x+", "t*x"]


@st.composite
def _fuzz_argv(draw):
    """One command line: a subcommand and its options, values mostly ones
    the drawn field reads, each one hostile with probability 1/4."""
    def pick(choices):
        return draw(st.sampled_from(choices))

    field = pick(sorted(_FUZZ_FIELDS) + _FUZZ_BAD_FIELDS)
    good = _FUZZ_FIELDS.get(field, ["2"])

    def value():
        return pick(_FUZZ_HOSTILE if draw(st.integers(0, 3)) == 0 else good)

    cmd = pick(_FUZZ_COMMANDS)
    argv = [cmd]
    if cmd in ("matrep", "identity-search"):
        argv += ["--field", field] if draw(st.booleans()) else []
        argv += ["--order", pick(["1", "2", "3", "0", "-2", "10^3"])]
        argv += ["--q", value()] if draw(st.booleans()) else []
        if cmd == "identity-search":
            argv += ["--algebra", pick(["m2", "qplane"]),
                     "--degree", pick(["1", "2", "3", "4", "0", "99"])]
    elif cmd != "families":
        family = pick(sorted(FAMILY_PARAMS) + ["nope"])
        names = FAMILY_PARAMS.get(family, ())
        if family.startswith("Weyl"):
            names = ["n", "q1", "q2", "l12"]
        pairs = [f"{n}={value()}" for n in names
                 if "(" not in n and draw(st.integers(0, 7))]
        if draw(st.integers(0, 5)) == 0:
            pairs.append(f"{pick(['q', 'q9', 'nope', 'n'])}={value()}")
        argv += ["--family", family, "--params", ",".join(pairs)]
        argv += ["--field", field] if draw(st.booleans()) else []
        argv += ["--file", "no-such-dir/p.json"] \
            if draw(st.integers(0, 9)) == 0 else []
        argv += ["--f", pick(["t", "t^2+1", "2*t", "t^-1"])] \
            if family == "Bqf" and draw(st.booleans()) else []
        if cmd == "normalize":
            argv += ["--poly", pick(_FUZZ_WORDS)]
        if cmd == "identity-check":
            argv += ["--lemma", pick(list(LEMMA_IDS) + ["H.nope"]),
                     "--n-max", pick(["0", "1", "2", "-1"])]
        if cmd == "spanning":
            argv += ["--caps", pick(["x=2,y=2", "x=3,y=3", "u=2,d=2", "x=1",
                                     "x=a", ""]),
                     "--degree", pick(["-1", "0", "1", "2", "3", "x"])]
    if draw(st.integers(0, 9)) == 0:  # a required option left out
        argv = argv[:draw(st.integers(1, max(1, len(argv) - 1)))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
def test_every_command_line_ends_in_a_report(argv):
    # a JSON report exiting 0 or 1, or argparse's usage exit 2
    # (test_usage_error_exit_two); never an escaped exception
    try:
        code, doc = run(argv)
    except SystemExit as e:
        assert e.code == 2, argv
        return
    assert code == (0 if all(c["status"] == "pass" for c in doc["checks"])
                    else 1)
    json.dumps(doc)
