"""Tests of the benchmark itself: seeding, digests, tracing and its oracle.

    python3 -m pytest -q bench
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblists  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _small_jobs():
    """Cheap jobs that between them reach every traced layer."""
    jobs = []
    joblists._cli_job(
        jobs,
        "graded",
        "solve-derivations",
        {
            "algebra": {"kind": "a-omega-delta"},
            "windows": {"domain": [-4, 4], "equation": [-4, 4], "core": [-2, 2]},
            "degree": 1,
        },
        [["derivation-classification", None, None]],
        {"derivation-classification": {"core_dimension": 1}},
    )
    joblists._cli_job(
        jobs,
        "full-window gaussian",
        "solve-derivations",
        {
            "algebra": {"kind": "a-f-k", "k": 1, "f": {"0": "1+i", "1": "2"}},
            "windows": {"domain": [-3, 3], "equation": [-3, 3], "core": [-1, 1], "image": [-3, 3]},
        },
        [["derivation-classification", None, None]],
        {"derivation-classification": {"core_dimension": 10}},
    )
    laws = joblists.job_list("laws", 7)
    jobs += [j for j in laws if j.name in ("generators", "verify-tp real poisson", "uniform-shift 2")]
    return jobs


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_same_seed_gives_same_job_list():
    for workload in joblists.WORKLOADS:
        assert joblists.job_list(workload, 3) == joblists.job_list(workload, 3)


def test_other_seed_changes_randomized_samples():
    def sample_seeds(seed):
        return {
            j.name: json.loads(j.text)["seed"]
            for j in joblists.job_list("laws", seed)
            if j.kind == "cli" and json.loads(j.text).get("mode") == "randomized"
        }

    one, two = sample_seeds(1), sample_seeds(2)
    assert one.keys() == two.keys() and len(one) == 9
    assert all(one[name] != two[name] for name in one)


def test_job_list_sizes_do_not_depend_on_seed():
    for workload in joblists.WORKLOADS:
        shapes = {
            tuple(sorted(j.name for j in joblists.job_list(workload, seed))) for seed in range(5)
        }
        assert len(shapes) == 1


def test_same_seed_gives_same_digests(program):
    jobs = [j for j in joblists.job_list("laws", 5) if j.name in ("generators", "verify-tp real poisson")]
    first = run.run_pass(program, jobs)
    second = run.run_pass(program, jobs)
    assert [r["digest"] for r in first] == [r["digest"] for r in second]
    assert not any(r["problems"] for r in first)

    other = [j for j in joblists.job_list("laws", 6) if j.name == "verify-tp real poisson"]
    assert run.run_pass(program, other)[0]["digest"] != first[1]["digest"]


def test_traced_and_untraced_digests_match(program):
    passes, metrics, tracer = run.per_layer(program, _small_jobs(), "laws")
    untraced, traced = passes
    assert [r["digest"] for r in traced] == [r["digest"] for r in untraced]
    assert not any(r["problems"] for r in untraced + traced)

    for name in ("cli.busy_s", "checks.busy_s", "solver.busy_s", "linalg.busy_s", "tp.busy_s"):
        assert metrics[name] > 0, name
    assert metrics["linalg.gaussian_systems"] == 1
    assert metrics["scalars.gaussian_ops"] > 0
    assert metrics["solver.distinct_rows"] < metrics["solver.rows"]
    assert metrics["checks.one_third_derivation.cases_per_s"] > 0
    assert metrics["trace.attributed_s"] + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.sweep_s"])

    end_to_end, _ = run.end_to_end([untraced], [0.1], untraced)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {k: run.unit_of(k) for k in metrics} == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }


def test_self_times_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union [1, 6] is covered once
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: clipped at 10
        ["other", 20.0, 21.0, None, 1],
    ]
    assert layers.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_wrappers_are_removed(program):
    m = program
    classes = [
        m["scalars"].Scalar,
        m["elements"].Element,
        m["algebras"].BracketDef,
        m["algebras"].ProductDef,
        m["algebras"].LinearOperator,
        m["linalg"].SolutionSpace,
        m["cli"].RunReport,
    ]
    owners = list(m.values()) + classes
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    layers.install(tracer, program)
    try:
        assert m["solver"].nullspace is not before[list(m).index("solver")]["nullspace"]
        assert m["cli"].run is not before[list(m).index("cli")]["run"]
        assert vars(m["scalars"].Scalar)["__add__"] is not before[len(m)]["__add__"]
    finally:
        tracer.remove()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved), owner


def test_oracle_rejects_wrong_answers(program):
    job = [j for j in joblists.job_list("derive-graded", 1) if j.name == "tp-triviality"][0]
    report = json.loads(run.execute(program, job))
    assert joblists.problems(job, report) == []
    report["entries"][0]["details"]["dimension"] = 1
    assert joblists.problems(job, report)
    report["entries"][0]["passed"] = False
    report["verdict"] = "fail"
    assert len(joblists.problems(job, report)) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(20, 0, -1)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_missing_sources_exit_without_a_result(monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(run.ROOT) / "no-such-src")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", "laws", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert out.getvalue() == ""


def test_rows_equal_up_to_a_scalar_share_a_key(program):
    scalar = program["scalars"].Scalar
    rows = [
        {0: scalar(2), 3: scalar(-4)},
        {0: scalar(-1), 3: scalar(2)},
        {0: scalar(1, 1), 3: scalar(-2, -2)},
        {0: scalar(Fraction(1, 3)), 3: scalar(Fraction(-2, 3))},
    ]
    assert len({layers._primitive_key(r) for r in rows}) == 1
    assert layers._primitive_key({0: scalar(1), 3: scalar(2)}) != layers._primitive_key(rows[0])
