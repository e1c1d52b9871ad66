import errno
import hashlib
import io
import json
import os
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from translie import checks, cli, linalg, solver, tp
from translie.cli import COMMANDS, main, parse_config, run
from translie.errors import ConfigParseError, ConfigSchemaError
from translie.scalars import Scalar

from nullspace_reference import eliminate_before_last_cutting_row


def cfg_text(**kwargs):
    return json.dumps(kwargs)


def test_parse_check_laws_config():
    cfg = parse_config(
        cfg_text(
            command="check-laws",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-3, 3], "equation": [-2, 2]},
            mode="exhaustive",
        )
    )
    assert cfg.command == "check-laws"
    assert cfg.algebra.kind == "a-omega-delta"
    assert cfg.windows["domain"] == (-3, 3)


def test_parse_scalar_strings():
    cfg = parse_config(
        cfg_text(
            command="check-laws",
            algebra={"kind": "a-f-k", "k": 1, "f": {"0": "5", "2": "1/2+5i"}},
        )
    )
    assert cfg.algebra.f.by_index[0] == Scalar(5)
    assert cfg.algebra.f.by_index[2] == Scalar.parse("1/2+5i")


def test_parse_rejects_bad_window():
    with pytest.raises(ConfigSchemaError):
        parse_config(
            cfg_text(
                command="check-laws",
                algebra={"kind": "a-omega-delta"},
                windows={"domain": [3, -3]},
            )
        )


AFK_F0 = {"kind": "a-f-k", "f": {"0": "1"}}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            dict(command="check-laws", algebra={"kind": "a-omega-delta"}, zap=1),
            "config: check-laws does not read the key 'zap'",
        ),
        (
            dict(command="check-laws", algebra={"kind": "a-omega-delta"}, windows={"zap": [0, 0]}),
            "windows.zap: check-laws does not read this window",
        ),
        (
            dict(command="check-laws", algebra={"kind": "a-f-k", "K": 3, "f": {"0": "1"}}),
            "algebra: unknown key 'K'",
        ),
        (
            dict(command="check-laws", algebra={"kind": "a-omega-delta", "k": 1}),
            "algebra: unknown key 'k'",
        ),
        (
            dict(command="check-laws", algebra={"kind": "a-omega-delta", "f": {"0": "1"}}),
            "algebra: unknown key 'f'",
        ),
        (
            dict(command="generators", algebra={"kind": "a-omega-delta-omega-form", "k": 0}),
            "algebra: unknown key 'k'",
        ),
        (
            dict(
                command="build-tp",
                algebra=AFK_F0,
                tp_params={"example_family": {"d_seq": {"0": "1"}, "C": {"1": "2"}}},
            ),
            "tp_params.example_family: unknown key 'C'",
        ),
        (
            dict(
                command="verify-tp",
                algebra=AFK_F0,
                tp_params={"example_family": {"d_seq": {"0": "1"}}, "alpha": "1"},
            ),
            "tp_params with example_family: unknown key 'alpha'",
        ),
        (
            dict(
                command="verify-tp",
                algebra=AFK_F0,
                tp_params={"example_family": {}, "c": {"1": "2"}},
            ),
            "tp_params with example_family: unknown key 'c'",
        ),
        (
            dict(
                command="build-tp",
                algebra=AFK_F0,
                tp_params={"d": [[0, 0, 0, "1"]], "example_family": {}},
            ),
            "tp_params with example_family: unknown key 'd'",
        ),
        (
            dict(command="build-tp", algebra=AFK_F0, tp_params={"alpha": "0", "D": []}),
            "tp_params: unknown key 'D'",
        ),
    ],
    ids=[
        "root", "window", "afk-K", "aod-k", "aod-f", "omega-form-k", "example-C",
        "alpha-beside-example", "c-beside-example", "d-beside-example", "tp-D",
    ],
)
def test_parse_rejects_unknown_key(doc, message):
    """Unknown keys are rejected at every level, with the key's path."""
    with pytest.raises(ConfigSchemaError) as exc:
        parse_config(json.dumps(doc))
    assert str(exc.value) == message
    assert _main_on(doc["command"], doc) == (2, f"error: {message}\n")


# every anchor text as the reports have shown it
RECORDED_ANCHORS = {
    "skew-symmetry": "bracket changes sign under every transposition of its arguments",
    "fundamental-identity": "[x,y,[u,v,w]] = [[x,y,u],v,w] + [u,[x,y,v],w] + [u,v,[x,y,w]]",
    "one-third-derivation": "3 D([x,y,z]) = [D(x),y,z] + [x,D(y),z] + [x,y,D(z)]",
    "product-derivation-rule": "D(x*y) = D(x)*y + x*D(y)",
    "involutive-morphism": "W(W(x)) = x and W(x*y) = W(x)*W(y)",
    "relabel-intertwining": "relabel([x,y,z]) = [relabel(x),relabel(y),relabel(z)]",
    "transposed-leibniz": "3 u*[x,y,z] = [x*u,y,z] + [x,y*u,z] + [x,y,z*u]",
    "poisson-leibniz": "[x,y,u*v] = u*[x,y,v] + [x,y,u]*v",
    "commutative-associative": "x*y = y*x and (x*y)*z = x*(y*z)",
    "derivation-classification": "core solution space matches the closed-form derivation family",
    "tp-triviality": "commutativity forces every induced-product coefficient to vanish",
    "tp-params-valid": "symmetry, weighted-sum, and exchange constraints all hold",
    "tp-params-built": "rank-one array construction satisfies its constraints",
    "poisson-dichotomy": "classical Leibniz law holds exactly when alpha = 0 and c = 0",
    "generator-closure": "every window basis symbol lies in the bracket closure of the generators",
}


def test_every_anchor_is_the_recorded_text():
    """Each LawSpec's anchor and each anchor of an entry that is not a law
    check equal the recorded text, and together they are all of it, once."""
    specs = [v for v in vars(checks).values() if isinstance(v, checks.LawSpec)]
    assert sorted(specs) == sorted(checks.LAWS.values())
    assert all(name == spec.name for name, spec in checks.LAWS.items())
    anchors = {spec.name: spec.anchor for spec in specs}
    assert not anchors.keys() & cli.ANCHORS.keys()
    assert {**anchors, **cli.ANCHORS} == RECORDED_ANCHORS


def test_parse_rejects_command_mismatch():
    with pytest.raises(ConfigSchemaError):
        parse_config(cfg_text(command="generators"), command="check-laws")


def test_parse_error_reports_position():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("{not json")
    assert "line 1" in str(exc.value)


def test_run_check_laws_small():
    cfg = parse_config(
        cfg_text(
            command="check-laws",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-2, 2], "equation": [-1, 1]},
            mode="randomized",
            budget=200,
            seed=7,
        )
    )
    report = run(cfg)
    assert report.verdict == "pass"
    laws = [e["law"] for e in report.entries]
    assert "skew-symmetry" in laws
    assert laws.count("fundamental-identity") == 2  # exhaustive + randomized
    assert "relabel-intertwining" in laws
    assert "involutive-morphism" in laws


def test_run_solve_derivations():
    cfg = parse_config(
        cfg_text(
            command="solve-derivations",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-4, 4], "equation": [-4, 4], "core": [-2, 2]},
            degree=1,
        )
    )
    report = run(cfg)
    assert report.verdict == "pass"
    assert report.entries[0]["details"]["core_dimension"] == 1


@pytest.mark.parametrize(
    "domain, core",
    [((0, 20), (5, 15)), ((-11, 10), (-5, 5)), ((-10, 11), (-5, 5)), ((-10, 10), (-5, 5))],
)
def test_default_core_is_centred_on_the_domain(domain, core, monkeypatch):
    """The default core is the domain's middle index, rounded toward 0,
    +- |domain| // 4: off-centre domains are solved, and a domain with
    lo + hi in {-1, 0, 1} keeps the core centred on 0."""
    cores = []

    def solve(bdef, domain, eq_window, core, *args):
        cores.append((core.lo, core.hi))
        return solver.solve_and_classify(bdef, domain, eq_window, core, *args)

    monkeypatch.setattr(cli, "solve_and_classify", solve)
    cfg = parse_config(
        cfg_text(
            command="solve-derivations",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": list(domain)},
            degree=1,
        )
    )
    report = run(cfg)
    assert cores == [core]
    assert report.verdict == "pass"
    assert report.entries[0]["details"]["core_dimension"] == 1


def test_run_tp_triviality():
    cfg = parse_config(
        cfg_text(command="tp-triviality", windows={"domain": [-3, 3]})
    )
    report = run(cfg)
    assert report.verdict == "pass"
    assert report.entries[0]["details"]["dimension"] == 0


def test_run_build_tp():
    cfg = parse_config(
        cfg_text(
            command="build-tp",
            algebra={"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            tp_params={"example_family": {"d_seq": {"0": "5"}, "c": {"1": "1"}}},
        )
    )
    report = run(cfg)
    assert report.verdict == "pass"
    details = report.entries[0]["details"]
    assert details["params"]["alpha"] == "5"
    assert details["classification"] == "transposed-only"


def test_run_verify_tp_example_family():
    cfg = parse_config(
        cfg_text(
            command="verify-tp",
            algebra={"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            tp_params={"example_family": {"d_seq": {"0": "5"}, "c": {"1": "1"}}},
        )
    )
    report = run(cfg)
    assert report.verdict == "pass"
    by_law = {e["law"]: e for e in report.entries}
    assert by_law["tp-params-valid"]["passed"]
    assert by_law["commutative-associative"]["passed"]
    assert by_law["transposed-leibniz"]["passed"]
    dich = by_law["poisson-dichotomy"]
    assert dich["passed"]
    assert dich["details"]["classification"] == "transposed-only"
    assert dich["details"]["witness"] is not None


def test_run_verify_tp_explicit_invalid_params():
    cfg = parse_config(
        cfg_text(
            command="verify-tp",
            algebra={"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
            tp_params={"alpha": "4", "c": {"1": "1"}, "d": [[0, 0, 0, "5"]]},
        )
    )
    report = run(cfg)
    assert report.verdict == "fail"
    assert report.entries[0]["law"] == "tp-params-valid"
    assert not report.entries[0]["passed"]
    assert report.entries[0]["details"]["weighted_sum_violations"]


def test_run_generators_spanned_and_missing():
    base = dict(
        command="generators",
        algebra={"kind": "a-omega-delta"},
        windows={"domain": [-4, 4]},
    )
    report = run(parse_config(json.dumps(base)))
    assert report.verdict == "pass"

    base["generators"] = [["L", -1], ["L", 0], ["L", 1]]
    report = run(parse_config(json.dumps(base)))
    assert report.verdict == "fail"
    assert "M_0" in report.entries[0]["details"]["missing"]


def test_report_byte_identical_across_runs():
    text = cfg_text(
        command="check-laws",
        algebra={"kind": "a-f-k", "k": 0, "f": {"0": "1"}},
        windows={"domain": [-2, 2], "equation": [-1, 1]},
        mode="randomized",
        budget=100,
        seed=3,
    )
    a = run(parse_config(text)).to_json()
    b = run(parse_config(text)).to_json()
    assert a == b
    assert '"timing_ms": null' in a


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(
        cfg_text(
            command="tp-triviality",
            windows={"domain": [-2, 2]},
        )
    )
    out = tmp_path / "report.json"
    assert main(["tp-triviality", "--config", str(good), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["timing_ms"] is None

    failing = tmp_path / "failing.json"
    failing.write_text(
        cfg_text(
            command="generators",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-3, 3]},
            generators=[["L", 0]],
        )
    )
    assert main(["generators", "--config", str(failing), "--quiet"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["tp-triviality", "--config", str(bad)]) == 2

    missing = tmp_path / "nope.json"
    assert main(["tp-triviality", "--config", str(missing)]) == 2
    capsys.readouterr()


def test_a_config_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["tp-triviality", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read config: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "out, errno_name",
    [("missing/report.json", "ENOENT"), (".", "EISDIR"), ("cfg.json/report.json", "ENOTDIR")],
    ids=["missing-directory", "directory", "file-as-directory"],
)
def test_an_unwritable_report_path_exits_2_with_one_error_line(
    tmp_path, capsys, monkeypatch, out, errno_name
):
    """The report path is refused before anything runs: exit 2 with the
    OS error opening it would raise, not a traceback and exit 1, which
    would read as a violation; nothing is created."""

    def refuse(config):
        raise AssertionError("run was called")

    monkeypatch.setattr(cli, "run", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(command="tp-triviality", windows={"domain": [-2, 2]}))
    target = str(tmp_path / out)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["tp-triviality", "--config", str(path), "--out", target, "--quiet"]) == 2
    code = getattr(errno, errno_name)
    assert capsys.readouterr().err == (
        f"error: cannot write report: [Errno {code}] {os.strerror(code)}: {target!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_main_seed_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        cfg_text(
            command="check-laws",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-2, 2], "equation": [-1, 1]},
            mode="randomized",
            budget=50,
            seed=1,
        )
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["check-laws", "--config", str(cfg_file), "--out", str(out1), "--quiet"])
    main(["check-laws", "--config", str(cfg_file), "--seed", "9", "--out", str(out2), "--quiet"])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["config"]["seed"] == 1
    assert r2["config"]["seed"] == 9


CHECK_LAWS_AOD = dict(command="check-laws", algebra={"kind": "a-omega-delta"})
POSITIVE = "budget must be a positive integer"

# a document with one malformed field, and the exact message it exits 2 with
BOOLEAN_FIELDS = {
    "windows.domain": (dict(CHECK_LAWS_AOD, windows={"domain": [True, 2]}),
                       "windows.domain: a window is a two-element list [lo, hi]"),
    "budget": (dict(CHECK_LAWS_AOD, budget=True), POSITIVE),
    "budget=0": (dict(CHECK_LAWS_AOD, budget=0), POSITIVE),
    "budget=null": (dict(CHECK_LAWS_AOD, budget=None), POSITIVE),
    "seed": (dict(CHECK_LAWS_AOD, seed=True), "seed must be an integer"),
    "seed=1.5": (dict(CHECK_LAWS_AOD, seed=1.5), "seed must be an integer"),
    "degree": (dict(command="solve-derivations", algebra={"kind": "a-omega-delta"}, degree=True),
               "degree must be an integer"),
    "algebra.k": (dict(command="check-laws", algebra={"kind": "a-f-k", "k": True, "f": {"0": "1"}}),
                  "algebra.k must be an integer"),
    "algebra.f": (dict(command="check-laws", algebra={"kind": "a-f-k", "k": 0, "f": {"0": True}}),
                  "algebra.f[0]: scalars must be strings like '3/4' or '1+2i'"),
    "max_rounds": (dict(command="generators", algebra={"kind": "a-omega-delta"}, max_rounds=False),
                   "max_rounds must be a non-negative integer"),
    "max_rounds=-1": (dict(command="generators", algebra={"kind": "a-omega-delta"}, max_rounds=-1),
                      "max_rounds must be a non-negative integer"),
    "generators": (dict(command="generators", algebra={"kind": "a-omega-delta"},
                        generators=[["L", True]]),
                   'generators[0]: expected ["L"|"M", index]'),
    "tp_params.d": (dict(command="verify-tp", algebra={"kind": "a-f-k", "k": 2, "f": {"0": "1"}},
                         tp_params={"alpha": "0", "d": [[0, False, 0, "5"]]}),
                    "tp_params.d[0]: expected [i, j, q, scalar]"),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
def test_parse_rejects_boolean_for_integer(field, tmp_path, capsys):
    doc, message = BOOLEAN_FIELDS[field]
    text = json.dumps(doc)
    with pytest.raises(ConfigSchemaError) as exc:
        parse_config(text)
    assert str(exc.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main([doc["command"], "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _afk_f(f):
    return cfg_text(command="check-laws", algebra={"kind": "a-f-k", "f": f})


def _build_tp(tp_params):
    return cfg_text(command="build-tp", algebra={"kind": "a-f-k", "f": {"0": "1"}},
                    tp_params=tp_params)


@pytest.mark.parametrize(
    "text, message",
    [
        (_afk_f({"0": "1/0"}), "algebra.f[0]: zero denominator in scalar string: '1/0'"),
        (_build_tp({"alpha": "2/0"}), "tp_params.alpha: zero denominator in scalar string: '2/0'"),
        (_afk_f({"1": "2", "01": "3"}), "algebra.f: bad integer index '01'"),
        (_afk_f({"1_0": "2"}), "algebra.f: bad integer index '1_0'"),
        (_afk_f({" 2": "2"}), "algebra.f: bad integer index ' 2'"),
        (_afk_f({"-0": "2"}), "algebra.f: bad integer index '-0'"),
        (_build_tp({"example_family": {"d_seq": {"0": "1"}, "c": {"+1": "1"}}}),
         "tp_params.example_family.c: bad integer index '+1'"),
        (_build_tp({"d": [[0, 1, 0, "1"], [1, 0, 0, "1"], [0, 1, 0, "2"]]}),
         "tp_params.d[2]: repeated index triple [0, 1, 0]"),
        ('{"command": "check-laws", "algebra": {"kind": "a-f-k", "f": {"0": "1", "0": "2"}}}',
         "config repeats the key '0' in one object"),
    ],
    ids=["zero-denominator-f", "zero-denominator-alpha", "leading-zero", "underscore",
         "space", "minus-zero", "plus-sign", "repeated-d-triple", "repeated-json-key"],
)
def test_aliasing_keys_and_zero_denominators_exit_2(text, message, tmp_path, capsys):
    """Each index names one value and each scalar one number: a key that
    int() reads like another key, a repeated index or d triple, or a zero
    denominator is refused with its path, not dropped or left to crash."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main([json.loads(text)["command"], "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_failed_verification_exits_2_naming_the_row(tmp_path, capsys, monkeypatch):
    """A basis vector that misses a constraint is a typed error, not a
    traceback: the elimination stops before its last cutting row."""
    eliminate_before_last_cutting_row(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(
        cfg_text(
            command="solve-derivations",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-4, 4], "core": [-2, 2]},
            degree=1,
        )
    )
    assert main(["solve-derivations", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(
        r"error: nullspace verification failed: basis vector \d+ leaves row "
        r"(LLM|LMM|LLL|MMM)\(-?\d+,-?\d+,-?\d+\)@[LM]_-?\d+ nonzero",
        err,
    ), err


def test_run_solve_derivations_gaussian_functional():
    cfg = parse_config(
        cfg_text(
            command="solve-derivations",
            algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1+i", "1": "2"}},
            windows={"domain": [-3, 3], "core": [-1, 1]},
        )
    )
    report = run(cfg)
    assert report.verdict == "pass"
    details = report.entries[0]["details"]
    assert details["core_dimension"] == details["expected_core_dimension"] == 10


def test_check_laws_domain_over_budget_exits_2_before_enumerating(tmp_path, capsys, monkeypatch):
    from translie import checks

    def no_enumeration(*args):
        raise AssertionError("enumerated a window over budget")

    monkeypatch.setattr(checks, "_representatives", no_enumeration)
    path = tmp_path / "wide.json"
    path.write_text(
        cfg_text(command="check-laws", algebra={"kind": "a-omega-delta"}, windows={"domain": [-200, 200]})
    )
    assert main(["check-laws", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: exhaustive run needs 515849608 cases, budget is 2000000\n"


def test_randomized_budget_over_cap_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    """A randomized budget is a sample count, held to the exhaustive cap
    before the first sample is drawn."""

    def no_sampling(*args):
        raise AssertionError("sampled over budget")

    monkeypatch.setattr(checks, "_random_symbol", no_sampling)
    path = tmp_path / "many.json"
    path.write_text(
        cfg_text(
            command="check-laws",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-1, 1], "equation": [-1, 1]},
            mode="randomized",
            budget=2000001,
        )
    )
    assert main(["check-laws", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: randomized run needs 2000001 samples, budget is 2000000\n"


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "solve-derivations",
            dict(algebra={"kind": "a-omega-delta"}, windows={"domain": [-200, 200]}),
            "error: assembly needs 85653600 equation triples, budget is 2000000\n",
        ),
        (
            "tp-triviality",
            dict(windows={"index": [-200, 200], "basis": [-200, 200]}),
            "error: tp-triviality system needs 128962402 rows, budget is 2000000\n",
        ),
    ],
)
def test_solver_window_over_budget_exits_2_before_building(command, doc, message, tmp_path, capsys, monkeypatch):
    def no_system(*args, **kwargs):
        raise AssertionError("built a system over budget")

    monkeypatch.setattr(solver, "ConstraintSystem", no_system)
    path = tmp_path / "wide.json"
    path.write_text(cfg_text(command=command, **doc))
    assert main([command, "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == message


WIDE_WINDOW_CONFIGS = [
    (
        "generators",
        dict(algebra={"kind": "a-omega-delta"}, windows={"domain": [-2000000, 2000000]}),
        (checks, "window_symbols"),
        "error: generator closure needs 8000002 target symbols, budget is 2000000\n",
    ),
    (
        "solve-derivations",
        dict(
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-10000000, 10000000], "equation": [-1, 1], "core": [-1, 1]},
        ),
        (solver.Ansatz, "unknown_ids"),
        "error: ansatz needs 80000004 unknowns, budget is 2000000\n",
    ),
]


@pytest.mark.parametrize("command, doc, builder, message", WIDE_WINDOW_CONFIGS)
def test_window_sized_lists_over_budget_exit_2_before_building(
    command, doc, builder, message, tmp_path, capsys, monkeypatch
):
    """A window whose closure targets or ansatz unknowns outnumber the
    budget is refused before the list is built: within the equation-triple
    budget, domain [-10^7,10^7] would still make 8*10^7 unknowns."""

    def no_list(*args):
        raise AssertionError("built a window-sized list over budget")

    monkeypatch.setattr(*builder, no_list)
    path = tmp_path / "wide.json"
    path.write_text(cfg_text(command=command, **doc))
    start = time.monotonic()
    assert main([command, "--config", str(path), "--quiet"]) == 2
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "algebra, field, message",
    [
        (
            {"kind": "a-f-k", "k": 1, "f": {"0": "1"}},
            {"degree": 2},
            "error: a-f-k has a full-window ansatz, which takes no degree (got 2)\n",
        ),
        (
            {"kind": "a-omega-delta"},
            {"windows": {"domain": [-4, 4], "core": [-2, 2], "image": [-4, 4]}},
            "error: a-omega-delta has a graded ansatz, which takes no image window\n",
        ),
    ],
    ids=["degree-on-a-f-k", "image-on-a-omega-delta"],
)
def test_solve_derivations_refuses_a_field_its_ansatz_ignores(algebra, field, message):
    """A field the algebra's ansatz has no use for exits 2 naming it,
    rather than being echoed in a report and ignored; without it the same
    solve passes."""
    doc = {"algebra": algebra, "windows": {"domain": [-4, 4], "core": [-2, 2]}}
    assert _main_on("solve-derivations", {**doc, **field}) == (2, message)
    assert _main_on("solve-derivations", doc) == (0, "")


@pytest.mark.parametrize("mode", [{}, {"mode": "exhaustive"}], ids=["default", "exhaustive"])
def test_budget_without_randomized_mode_exits_2(mode):
    """A budget is the sample count of a randomized pass, so an exhaustive
    config with one exits 2 naming the field, rather than running every
    case and echoing a budget it did not read."""
    doc = {"algebra": {"kind": "a-omega-delta"}, "windows": {"domain": [-2, 2], "equation": [-1, 1]}}
    assert _main_on("check-laws", {**doc, **mode, "budget": 5}) == (
        2,
        'error: budget is the sample count of a randomized pass; it needs "mode": "randomized"\n',
    )
    assert _main_on("check-laws", {**doc, "mode": "randomized", "budget": 5}) == (0, "")


def test_solve_derivations_on_the_omega_form_exits_2(tmp_path, capsys):
    """The solver pairs an ansatz with a-omega-delta and a-f-k only."""
    path = tmp_path / "cfg.json"
    path.write_text(
        cfg_text(command="solve-derivations", algebra={"kind": "a-omega-delta-omega-form"})
    )
    assert main(["solve-derivations", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: no classification defined for bracket 'a-omega-delta-omega-form'\n"
    )


@pytest.mark.parametrize("command, calls", [("build-tp", 1), ("verify-tp", 2)])
def test_a_valid_family_is_validated_once_per_decision(command, calls, monkeypatch):
    """build-tp validates once; verify-tp validates for its report and once
    more in tp_product, the checked constructor; classify_poisson does not."""
    validate = tp.validate_params
    seen = []

    def counting(params):
        seen.append(params)
        return validate(params)

    monkeypatch.setattr(tp, "validate_params", counting)
    monkeypatch.setattr(cli, "validate_params", counting)
    doc = dict(
        command=command,
        algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1"}},
        tp_params={"example_family": {"d_seq": {"0": "3"}, "c": {"1": "2"}}},
    )
    assert _main_on(command, doc) == (0, "")
    assert len(seen) == calls


def _main_on(command, doc):
    """Exit code and stderr of the CLI on one config document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--config", path, "--quiet"])
    return code, err.getvalue()


FUZZ_ALGEBRAS = [
    {"kind": "a-omega-delta"},
    {"kind": "a-omega-delta-omega-form"},
    {"kind": "a-f-k", "k": 1, "f": {"0": "1/2", "1": "-2"}},
    {"kind": "a-f-k", "k": -1, "f": {"0": "1+i", "1": "2"}},
]
FUZZ_TP_PARAMS = [
    {"example_family": {"d_seq": {"1": "3"}}},
    {"example_family": {"d_seq": {"0": "3"}, "c": {"1": "2"}}},
    {"alpha": "0", "d": [[0, 0, 0, "5"]]},
    {"alpha": "1", "c": {"0": "1"}, "d": [[0, 1, 0, "1/2"]]},
]
# (field, value) pairs outside the schema, and one degree out of index range
FUZZ_CORRUPTIONS = [
    ("command", "other"),
    ("windows", {"domain": [2, -2]}),
    ("windows", {"core": [1, 0]}),
    ("windows", {"index": [True, 1]}),
    ("windows", {"equation": [0, False]}),
    ("windows", {"basis": [-1]}),
    ("windows", {"image": "[0,1]"}),
    ("windows", {"domain": [0.5, 1]}),
    ("budget", -1),
    ("budget", 0),
    ("budget", True),
    ("seed", False),
    ("degree", True),
    ("degree", 10**30),
    ("max_rounds", -1),
    ("max_rounds", True),
    ("algebra", {"kind": "a-f-k", "k": True, "f": {"0": "1"}}),
    ("algebra", {"kind": "a-f-k", "k": 0, "f": {}}),
    ("algebra", {"kind": "a-f-k", "k": 0, "f": {"x": "1"}}),
    ("algebra", {"kind": "a-f-k", "k": 0, "f": {"0": "1/0"}}),
    ("algebra", {"kind": "a-f-k", "k": 0, "f": {"01": "1"}}),
    ("algebra", {"kind": "nope"}),
    ("generators", [["N", 0]]),
    ("generators", []),
    ("tp_params", {"alpha": True}),
    ("tp_params", {"d": [[0, -1, 0]]}),
    ("tp_params", {"example_family": {"d_seq": {"0": "1"}}, "alpha": "1"}),
    ("algebra", {"kind": "a-f-k", "K": 3, "f": {"0": "1"}}),
    ("mode", "both"),
    (None, None),  # a key or window the command does not read, from UNREAD
]
# the windows and the optional keys beside mode and seed that each command
# reads; a command that reads budget has a randomized pass
READS = {
    "check-laws": (("domain", "equation"), ("algebra", "budget")),
    "solve-derivations": (("domain", "equation", "core", "image"), ("algebra", "degree")),
    "tp-triviality": (("domain", "index", "basis"), ()),
    "build-tp": ((), ("algebra", "tp_params")),
    "verify-tp": ((), ("algebra", "tp_params", "budget")),
    "generators": (("domain",), ("algebra", "generators", "max_rounds")),
}
# (key, value) for every key a command may not read, valid where read
UNREAD = [
    ("algebra", {"kind": "a-omega-delta"}),
    ("budget", 5),
    ("degree", 1),
    ("generators", [["L", 0]]),
    ("max_rounds", 2),
    ("tp_params", {"example_family": {"d_seq": {"1": "3"}}}),
]
WINDOW_NAMES = ("domain", "equation", "core", "image", "index", "basis")


def unread(command):
    """(key, value) pairs the command does not read: keys, windows (as a
    whole windows object) and a randomized mode without a randomized pass."""
    windows, keys = READS[command]
    out = [(key, value) for key, value in UNREAD if key not in keys]
    out += [("windows", {name: [0, 0]}) for name in WINDOW_NAMES if name not in windows]
    if "budget" not in keys:
        out.append(("mode", "randomized"))
    return out


def small_windows(size):
    def from_lo(lo):
        return st.integers(lo, lo + size - 1).map(lambda hi: [lo, hi])

    return st.one_of(st.just([0, 0]), st.integers(-2, 2).flatmap(from_lo))


SMALL_WINDOW = small_windows(3)


@st.composite
def config_docs(draw, command):
    """A config document for command on small windows ([0,0] included),
    with only the keys and windows the command reads, and up to two
    fields then replaced from FUZZ_CORRUPTIONS."""
    windows, keys = READS[command]
    randomized = "budget" in keys
    doc = {}
    if draw(st.booleans()):
        doc["command"] = command
    afk_only = "tp_params" in keys
    if "algebra" in keys:
        doc["algebra"] = draw(st.sampled_from(FUZZ_ALGEBRAS[2:] if afk_only else FUZZ_ALGEBRAS))
    # domain and equation are always set where read: the defaults,
    # [-10,10] for a solve and [-2,2] for the fundamental identity, take
    # seconds
    sizes = {"domain": small_windows(5), "equation": SMALL_WINDOW}
    doc["windows"] = draw(
        st.fixed_dictionaries(
            {name: sizes[name] for name in windows if name in sizes},
            optional={name: SMALL_WINDOW for name in windows if name not in sizes},
        )
    )
    optional = {
        "mode": st.sampled_from(["exhaustive", "randomized"] if randomized else ["exhaustive"]),
        "seed": st.integers(-(2**70), 2**70),
    }
    read = {
        "budget": st.integers(1, 50),
        "degree": st.integers(-3, 3),
        "generators": st.lists(
            st.tuples(st.sampled_from(["L", "M"]), st.integers(-3, 3)).map(list),
            min_size=1,
            max_size=3,
        ),
        "max_rounds": st.integers(0, 3),
    }
    optional.update((key, values) for key, values in read.items() if key in keys)
    if afk_only:
        doc["tp_params"] = draw(st.sampled_from(FUZZ_TP_PARAMS))
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    for key, value in draw(st.lists(st.sampled_from(FUZZ_CORRUPTIONS), max_size=2)):
        if key is None:
            key, value = draw(st.sampled_from(unread(command)))
        doc[key] = value
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_cli_fuzz_exits_0_1_or_2_without_traceback(data, command):
    doc = data.draw(config_docs(command))
    code, err = _main_on(command, doc)
    assert code in (0, 1, 2), (command, doc, err)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error: "), err


# one small passing config per command, seed included: every report echoes it
READ_ONLY_DOCS = {
    "check-laws": {"algebra": {"kind": "a-omega-delta"},
                   "windows": {"domain": [-1, 1], "equation": [-1, 1]}},
    "solve-derivations": {"algebra": {"kind": "a-omega-delta"},
                          "windows": {"domain": [-4, 4], "core": [-2, 2]}, "degree": 1},
    "tp-triviality": {"windows": {"domain": [-1, 1]}},
    "build-tp": {"algebra": AFK_F0, "tp_params": {"example_family": {"d_seq": {"1": "5"}}}},
    "verify-tp": {"algebra": AFK_F0, "tp_params": {"example_family": {"d_seq": {"1": "5"}}}},
    "generators": {"algebra": {"kind": "a-omega-delta"}, "windows": {"domain": [-1, 1]}},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_key_the_command_does_not_read_exits_2_naming_it(command):
    """Each key, window and randomized mode the command does not read is
    refused with one error line naming it, instead of being echoed as if
    it had been used; the same config without it passes."""
    base = {**READ_ONLY_DOCS[command], "seed": 3}
    assert _main_on(command, base) == (0, "")
    for key, value in unread(command):
        doc = dict(base)
        if key == "windows":
            (name,) = value
            doc["windows"] = {**base.get("windows", {}), **value}
            message = f"windows.{name}: {command} does not read this window"
        elif key == "mode":
            doc["mode"] = value
            message = f"mode: {command} has no randomized pass"
        else:
            doc[key] = value
            message = f"config: {command} does not read the key {key!r}"
        assert _main_on(command, doc) == (2, f"error: {message}\n"), doc


OVERSIZED = [-200, 200]


@settings(max_examples=15, deadline=None)
@given(
    case=st.sampled_from(
        [
            ("check-laws", {"domain": OVERSIZED}),
            ("check-laws", {"equation": OVERSIZED}),
            ("solve-derivations", {"domain": OVERSIZED}),
            ("solve-derivations", {"domain": OVERSIZED, "equation": OVERSIZED}),
            ("tp-triviality", {"index": OVERSIZED, "basis": OVERSIZED}),
            ("tp-triviality", {"domain": OVERSIZED}),
        ]
    ),
    # the solver takes no omega-form algebra
    algebra=st.sampled_from([FUZZ_ALGEBRAS[0], *FUZZ_ALGEBRAS[2:]]),
    degree=st.integers(-3, 3),
)
def test_cli_fuzz_oversized_windows_hit_the_budget(case, algebra, degree):
    command, windows = case
    doc = {"windows": windows}
    # tp-triviality reads no algebra, and only a solve reads the degree,
    # which only the graded solve (a-omega-delta) takes nonzero
    if command != "tp-triviality":
        doc["algebra"] = algebra
    if command == "solve-derivations":
        doc["degree"] = degree if algebra["kind"] == "a-omega-delta" else 0
    code, err = _main_on(command, doc)
    assert code == 2
    assert re.fullmatch(r"error: .* needs \d+ .*, budget is 2000000\n", err), err


@pytest.mark.parametrize(
    "side, family, classification, poisson_cases",
    [
        ("poisson", {"d_seq": {"1": "3"}}, "poisson-and-transposed", 12**4),
        ("transposed-only", {"d_seq": {"0": "3"}, "c": {"1": "2"}}, "transposed-only", None),
    ],
)
def test_verify_tp_gaussian_functional_end_to_end(tmp_path, side, family, classification, poisson_cases):
    path = tmp_path / f"{side}.json"
    path.write_text(
        cfg_text(
            command="verify-tp",
            algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1+i"}},
            tp_params={"example_family": family},
        )
    )
    out = tmp_path / "report.json"
    assert main(["verify-tp", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    n = 12  # symbols of the support closure window [-1, 4]
    assert [(e["law"], e.get("mode"), e.get("cases_run"), e["passed"]) for e in report["entries"]] == [
        ("tp-params-valid", None, None, True),
        ("commutative-associative", "exhaustive", n**2 + n**3, True),
        ("transposed-leibniz", "exhaustive", n**4, True),
        ("poisson-dichotomy", "exhaustive", poisson_cases, True),
    ]
    assert report["entries"][1]["details"] == {"window": [-1, 4]}
    params = report["entries"][0]["details"]["params"]
    dichotomy = report["entries"][3]["details"]
    assert dichotomy["classification"] == classification
    if classification == "poisson-and-transposed":
        assert params["alpha"] == "0"
        assert dichotomy["poisson_law_passed"] and dichotomy["witness"] is None
    else:
        assert params["alpha"] == "3+3i"
        assert not dichotomy["poisson_law_passed"]
        assert dichotomy["witness"]["residual"]


def test_generators_round_over_budget_exits_2_before_bracketing(tmp_path, capsys, monkeypatch):
    """Every symbol of [-120,120] as a generator: 482 rows, so round 1
    would bracket C(482,3) triples."""
    from translie import checks

    def no_bracket(*args):
        raise AssertionError("bracketed a round over budget")

    monkeypatch.setattr(checks, "extend", no_bracket)
    path = tmp_path / "wide.json"
    path.write_text(
        cfg_text(
            command="generators",
            algebra={"kind": "a-omega-delta"},
            windows={"domain": [-130, 130]},
            generators=[[fam, i] for fam in ("L", "M") for i in range(-120, 121)],
        )
    )
    assert main(["generators", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: closure round 1 needs 18547360 bracket triples, budget is 2000000\n"
    )


def test_generators_with_zero_rounds_names_the_real_cause():
    """No round runs, so the closure is not "still growing": the
    generators alone fall short of the window and no round is allowed."""
    code, err = _main_on(
        "generators",
        dict(command="generators", algebra={"kind": "a-omega-delta"},
             windows={"domain": [-3, 3]}, max_rounds=0),
    )
    assert code == 2
    assert "Traceback" not in err
    assert err == (
        "error: the generators alone do not span the window [-3,3], and max_rounds is 0\n"
    )


@pytest.mark.parametrize(
    "algebra, windows, message",
    [
        (
            {"kind": "a-f-k", "k": 1, "f": {"0": "1"}},
            {"domain": [-6, 6], "core": [-3, 3], "image": [4, 6]},
            "error: core [-3,3] is not inside the image window [4,6]\n",
        ),
        (
            {"kind": "a-f-k", "k": 1, "f": {"0": "1", "5": "2"}},
            {"domain": [-6, 6], "core": [-3, 3]},
            "error: the functional's support [0, 5] is not inside the core [-3,3]\n",
        ),
    ],
)
def test_solve_windows_checked_before_assembly(
    algebra, windows, message, tmp_path, capsys, monkeypatch
):
    def no_system(*args, **kwargs):
        raise AssertionError("built a system for unusable windows")

    monkeypatch.setattr(solver, "ConstraintSystem", no_system)
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(command="solve-derivations", algebra=algebra, windows=windows))
    assert main(["solve-derivations", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == message
    assert len(err) < 200


NARROW_EQUATION = dict(
    command="solve-derivations",
    algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1"}},
    windows={"domain": [-2, 2], "equation": [-1, 1], "core": [-1, 1]},
)


def test_dense_nullspace_basis_over_budget_exits_2(tmp_path, capsys):
    """A wide image and a narrow equation window leave 1,446 free columns
    over 2,420 unknowns (3,499,320 entries).  1,460 rows bound that from
    below by (2,420 - 1,460) * 2,420 = 2,323,200, over the budget."""
    doc = dict(NARROW_EQUATION, windows=dict(NARROW_EQUATION["windows"], image=[-60, 60]))
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(**doc))
    assert main(["solve-derivations", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: nullspace basis needs at least 2323200 entries "
        "(2420 unknowns, 1460 rows), budget is 2000000\n"
    )


def test_nullspace_basis_over_budget_exits_2_before_verifying(tmp_path, capsys, monkeypatch):
    """Image [-1000,1000]: 72,104 rows exceed the 40,020 unknowns, so the
    row count bounds nothing; the elimination leaves 12,002 vectors, about
    4.8*10^8 entries, refused before any is verified."""

    def no_verification(*args):
        raise AssertionError("verified a basis that is over budget")

    monkeypatch.setattr(linalg.SolutionSpace, "verify_against", no_verification)
    doc = dict(
        command="solve-derivations",
        algebra={"kind": "a-f-k", "f": {"0": "1"}},
        windows={"domain": [-2, 2], "core": [-1, 1], "image": [-1000, 1000]},
    )
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(**doc))
    start = time.monotonic()
    assert main(["solve-derivations", "--config", str(path), "--quiet"]) == 2
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        "error: nullspace basis needs 480320040 entries "
        "(12002 vectors of 40020 unknowns), budget is 2000000\n"
    )


def test_dense_nullspace_basis_under_budget_runs(tmp_path):
    """966 free columns over 1,620 unknowns (1,564,920 entries) stay within
    the budget; the report is the one recorded before the budget existed."""
    doc = dict(NARROW_EQUATION, windows=dict(NARROW_EQUATION["windows"], image=[-40, 40]))
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(**doc))
    out = tmp_path / "report.json"
    assert main(["solve-derivations", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert json.loads(out.read_text())["entries"][0]["details"]["full_dimension"] == 966
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9d05b7e3ac1123929b843373b16efc52bf3105c3a711cd8ec10e81247843efc7"
    )


@pytest.mark.parametrize("timing", [False, True])
def test_console_summary_shows_elapsed_only_with_timing(timing, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(command="tp-triviality", windows={"domain": [-1, 1]}))
    assert main(["tp-triviality", "--config", str(path)] + ["--timing"] * timing) == 0
    out = capsys.readouterr().out
    assert "[pass] tp-triviality" in out
    assert ("elapsed:" in out) == timing


MISMATCH_WINDOWS = {"domain": [-4, 4], "image": [-4, 4], "equation": [-1, 1], "core": [-2, 2]}


@pytest.mark.parametrize(
    "doc, offending, digest",
    [
        (
            dict(
                algebra={"kind": "a-omega-delta"},
                windows={"domain": [-6, 6], "equation": [-1, 1], "core": [-3, 3]},
                degree=0,
            ),
            9,
            "687c5257b5923b28e46a5a78f76427f0478fea50381884080987cfbb689a0365",
        ),
        (
            dict(algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1"}}, windows=MISMATCH_WINDOWS),
            33,
            "e631a0de5b2f5b124e40ac0aa95f8fd14e597f9ee8f281f3a22704d6d6c517ac",
        ),
        (
            dict(
                algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1+i", "1": "2"}},
                windows=MISMATCH_WINDOWS,
            ),
            35,
            "c4cf7e29f41316ad4a9cf9b78e54a6923fef325a663c35449fb11977e5590368",
        ),
        (
            dict(
                algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1/2+i", "1": "-2/3"}},
                windows=MISMATCH_WINDOWS,
            ),
            35,
            "31256c8e72fa7a1811ab9034b8dcd221650fe1ae8fe8ebe824091b39962305a6",
        ),
    ],
)
def test_mismatching_classification_reports_match_recorded_digests(doc, offending, digest):
    """A narrow equation window leaves vectors outside the expected family;
    the reports, offending vectors included, are pinned byte for byte."""
    doc = dict(command="solve-derivations", **doc)
    text = run(parse_config(json.dumps(doc))).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(json.loads(text)["entries"][0]["details"]["offending_vectors"]) == offending
    assert _main_on("solve-derivations", doc) == (1, "")


@pytest.mark.parametrize("command", ["verify-tp", "build-tp"])
def test_tp_validation_over_budget_exits_2_before_looping(command):
    """d = 1 on every index triple of 0..18: 19^3 entries whose exchange
    join would make 19^5 products."""
    d = [[i, j, q, "1"] for i in range(19) for j in range(19) for q in range(19)]
    doc = dict(
        command=command,
        algebra={"kind": "a-f-k", "k": 1, "f": {"0": "1"}},
        tp_params={"d": d},
    )
    start = time.monotonic()
    code, err = _main_on(command, doc)
    assert time.monotonic() - start < 10
    assert code == 2
    assert "Traceback" not in err
    assert err == (
        "error: exchange identity needs 2476099 products of d entries over 6859 entries, "
        "budget is 2000000\n"
    )
