"""Command-line surface: exit codes, outputs, manifests and determinism."""

import argparse
import hashlib
import json
import math
import random
import time

import pytest

import mcqnet.cli
import mcqnet.coupling
from mcqnet.cli import _JSON_CHUNK, RunWriter, _Entries, _state_key, main
from mcqnet.coupling import CouplingKernel
from mcqnet.exact import ExactEngine, reachable_states
from mcqnet.network import FIXTURE_NAMES, builtin_fixture, dump_spec, load_spec, spec_to_dict


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(data):
    """``data`` parsed as JSON proper: NaN, Infinity and -Infinity are rejected."""
    return json.loads(data, parse_constant=_no_constant)


def test_validate_fixture(tmp_path, capsys):
    code = run_cli("--out-dir", str(tmp_path), "validate", "--spec", "mm1")
    out = capsys.readouterr().out
    assert code == 0
    assert "workload 0.5" in out
    report = json.loads(read(tmp_path / "validate_report.json"))
    assert report["effective_rates"] == [1.0]
    manifest = json.loads(read(tmp_path / "validate_manifest.json"))
    assert manifest["subcommand"] == "validate"
    assert "validate_report.json" in manifest["outputs"]


def test_validate_spec_file(tmp_path):
    path = tmp_path / "net.json"
    dump_spec(builtin_fixture("tandem2"), path)
    assert run_cli("--out-dir", str(tmp_path), "validate", "--spec", str(path)) == 0


def test_validate_non_transient_exits_1(tmp_path, capsys):
    spec = {
        "classes": 2,
        "stations": [[1], [2]],
        "theta": [1.0, 0.0],
        "beta": [1.0, 1.0],
        "routing": [[0.0, 1.0], [1.0, 0.0]],
        "protocols": [
            {"policy": "fcfs", "allocation": "hq"},
            {"policy": "fcfs", "allocation": "hq"},
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(spec))
    code = run_cli("--out-dir", str(tmp_path), "validate", "--spec", str(path))
    assert code == 1
    assert "not transient" in capsys.readouterr().err


def test_unknown_fixture_exits_1(tmp_path, capsys):
    # resolves as a fixture name first, then as a path; neither exists
    code = run_cli("--out-dir", str(tmp_path), "exact", "--spec", "bogus", "--steps", "1")
    assert code in (1, 2)


def test_usage_error_exits_2(tmp_path):
    assert run_cli("--out-dir", str(tmp_path), "exact", "--spec", "mm1") == 2  # missing --steps
    assert run_cli("nonsense-subcommand") == 2


def test_unknown_functional_is_a_usage_error(tmp_path, capsys):
    # exact has one functional and no option to choose it: rejected by the
    # parser, before any law is computed or written
    code = run_cli("--out-dir", str(tmp_path), "exact", "--spec", "mm1", "--steps", "2",
                   "--functional", "foo")
    assert code == 2
    assert "unrecognized arguments: --functional foo" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fixtures_list(tmp_path, capsys):
    assert run_cli("--out-dir", str(tmp_path), "fixtures") == 0
    out = capsys.readouterr().out.split()
    assert out == ["mm1", "tandem2", "lk-prop", "lk-sbp", "fcfs-reentrant"]


def test_exact_output(tmp_path, capsys):
    code = run_cli("--out-dir", str(tmp_path), "exact", "--spec", "mm1", "--steps", "2")
    assert code == 0
    payload = json.loads(read(tmp_path / "exact_law.json"))
    assert payload["distribution"]["[[]]"] == pytest.approx(6 / 9)
    assert payload["functional"]["value"] == pytest.approx(0.7634549, abs=1e-6)


def test_exact_budget_exceeded_exits_1(tmp_path, capsys):
    code = run_cli(
        "--out-dir", str(tmp_path),
        "exact", "--spec", "mm1", "--steps", "6", "--budget", "2",
    )
    assert code == 1
    assert "budget" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_state_key_is_the_compact_json_form(name):
    """``exact_law.json`` keys stay the bytes ``json.dumps`` used to write."""
    spec = builtin_fixture(name)
    states = reachable_states(spec, 4) | reachable_states(spec, 4, reduced=True)
    for state in states:
        assert _state_key(state) == json.dumps([list(q) for q in state], separators=(",", ":"))


def test_simulate_csv(tmp_path):
    code = run_cli(
        "--seed", "5", "--out-dir", str(tmp_path),
        "simulate", "--spec", "tandem2", "--steps", "20", "--reps", "3",
    )
    assert code == 0
    lines = read(tmp_path / "paths.csv").decode().strip().splitlines()
    assert lines[0] == "rep,step,total_jobs,class_1,class_2"
    assert len(lines) == 1 + 3 * 21


def test_phi_and_cycle_json(tmp_path, capsys):
    assert run_cli(
        "--seed", "9", "--out-dir", str(tmp_path),
        "phi", "--spec", "mm1", "--steps", "4", "--reps", "500",
    ) == 0
    payload = json.loads(read(tmp_path / "phi.json"))
    assert 0.0 <= payload["value"] <= 1.0 and payload["mode"] == "mc"
    assert run_cli(
        "--seed", "9", "--out-dir", str(tmp_path),
        "phi", "--spec", "mm1", "--steps", "4", "--exact",
    ) == 0
    assert json.loads(read(tmp_path / "phi.json"))["mode"] == "exact"
    assert run_cli(
        "--seed", "4", "--out-dir", str(tmp_path),
        "cycle", "--spec", "mm1", "--cap", "5000", "--reps", "50",
    ) == 0
    cycle = json.loads(read(tmp_path / "cycle.json"))
    assert cycle["censor_fraction"] < 0.1


def test_monotone_subcommand(tmp_path, capsys):
    code = run_cli(
        "--out-dir", str(tmp_path),
        "monotone", "--spec", "mm1", "--scales", "0.5,1.0", "--steps", "2,4", "--exact",
    )
    assert code == 0
    assert "violations: 0" in capsys.readouterr().out


def test_couple_subcommand(tmp_path, capsys):
    code = run_cli(
        "--seed", "11", "--out-dir", str(tmp_path),
        "couple", "--spec", "mm1", "--lower", "[[]]", "--upper", "[[1]]",
        "--steps", "60", "--reps", "20",
    )
    assert code == 0
    payload = json.loads(read(tmp_path / "couple_report.json"))
    assert payload["invariant_failures"] == 0
    assert len(payload["runs"]) == 20


def test_couple_builds_one_kernel_per_run(tmp_path, monkeypatch):
    builds = []
    real_init = CouplingKernel.__init__

    def counting_init(self, spec):
        builds.append(spec)
        real_init(self, spec)

    monkeypatch.setattr(CouplingKernel, "__init__", counting_init)
    assert run_cli(
        "--out-dir", str(tmp_path),
        "couple", "--spec", "lk-sbp", "--lower", "[[],[]]", "--upper", "[[1,4],[2]]",
        "--steps", "30", "--reps", "5",
    ) == 0
    assert len(builds) == 1
    assert len(json.loads(read(tmp_path / "couple_report.json"))["runs"]) == 5


def test_couple_checks_its_start_states_once_per_run(tmp_path, monkeypatch):
    checked = []
    real = mcqnet.coupling.check_state

    def counting_check_state(spec, xi):
        checked.append(xi)
        return real(spec, xi)

    monkeypatch.setattr(mcqnet.coupling, "check_state", counting_check_state)
    assert run_cli(
        "--out-dir", str(tmp_path),
        "couple", "--spec", "lk-sbp", "--lower", "[[],[]]", "--upper", "[[1,4],[2]]",
        "--steps", "30", "--reps", "5",
    ) == 0
    assert checked == [((), ()), ((1, 4), (2,))]  # once, not per rep or per path


def test_couple_rejects_oi_allocation(tmp_path, capsys):
    code = run_cli(
        "--out-dir", str(tmp_path),
        "couple", "--spec", "lk-prop", "--lower", "[[],[]]", "--upper", "[[1],[]]",
        "--steps", "5",
    )
    assert code == 1


@pytest.mark.parametrize("policy", ["lcfs", "sbp"])
def test_couple_rejects_non_fcfs_head_of_queue(tmp_path, capsys, policy):
    # the fcfs-reentrant line with LCFS or SBP insertion at head-of-queue stations
    data = spec_to_dict(builtin_fixture("fcfs-reentrant"))
    # only SBP insertion reads a ranking at a head-of-queue station
    data["protocols"] = [
        {"policy": policy, "allocation": "hq", **({"ranking": ranking} if policy == "sbp" else {})}
        for ranking in ([4, 1], [2, 3])
    ]
    path = tmp_path / "line.json"
    path.write_text(json.dumps(data))
    code = run_cli(
        "--out-dir", str(tmp_path / "out"),
        "couple", "--spec", str(path), "--lower", "[[1],[]]", "--upper", "[[1,4],[]]",
        "--steps", "5",
    )
    assert code == 1
    assert "head-of-queue" in capsys.readouterr().err


@pytest.mark.parametrize("lower", ['[[1.7]]', '[["1"]]', "[[true]]", "5", "null", "[["])
def test_couple_rejects_malformed_states(tmp_path, capsys, lower):
    # [[1.7]], [["1"]] and [[true]] ran as class 1; 5 and null ended in a TypeError;
    # [[ was reported as a bare JSON error naming neither the option nor the text
    code = run_cli(
        "--out-dir", str(tmp_path / "out"),
        "couple", "--spec", "mm1", "--lower", lower, "--upper", "[[1]]", "--steps", "5",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: state" in err and "malformed" in err
    assert f"state {lower} given by --lower is malformed" in err
    assert not (tmp_path / "out").exists()


def test_threshold_synthetic_fast(tmp_path):
    # tiny statistical run just to exercise the wiring end to end
    code = run_cli(
        "--seed", "3", "--out-dir", str(tmp_path),
        "threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.2",
        "--steps", "400", "--reps", "300",
    )
    assert code == 0
    payload = json.loads(read(tmp_path / "threshold.json"))
    assert payload["threshold"] > 0


def test_threshold_robbins_monro_reports_the_mean_of_its_trace_tail(tmp_path):
    code = run_cli(
        "--seed", "6", "--out-dir", str(tmp_path),
        "threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.3",
        "--method", "rm", "--steps", "50", "--iters", "200",
    )
    assert code == 0
    payload = json.loads(read(tmp_path / "threshold.json"))
    assert payload["method"] == "robbins-monro"
    assert (payload["direction"], payload["epsilon"], payload["horizon"]) == ([1.0], 0.3, 50)
    [phase] = payload["trace"]
    scales = phase["scales"]
    assert phase["phase"] == "iterate" and len(scales) == 200 + 1
    tail = scales[len(scales) // 2 :]
    assert payload["threshold"] == pytest.approx(math.fsum(tail) / len(tail), rel=1e-12)
    assert len(set(scales)) > 100  # the noisy probes move the scale


def test_region_subcommand(tmp_path):
    code = run_cli(
        "--seed", "3", "--out-dir", str(tmp_path),
        "region", "--spec", "tandem2", "--rays", "2", "--epsilon", "0.3",
        "--steps", "300", "--reps", "200",
    )
    assert code == 0
    payload = json.loads(read(tmp_path / "region.json"))
    assert len(payload["rays"]) == 2
    assert len(payload["subcritical_polytope"]["ray_bounds"]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("region", "--spec", "mm1"), "a 2-D fan needs at least two classes"),
        (("threshold", "--spec", "mm1", "--direction", "1,1"),
         "direction length must equal the class count"),
        # ran on to the spec check and exited 1 on "arrival rates must be nonnegative"
        (("threshold", "--spec", "tandem2", "--direction", "nan,1"), "direction (nan, 1.0) must be finite"),
        (("threshold", "--spec", "tandem2", "--direction", "inf,1"), "direction (inf, 1.0) must be finite"),
    ],
    ids=["region", "threshold", "threshold-nan", "threshold-inf"],
)
def test_ray_directions_must_fit_the_classes(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), *argv, "--epsilon", "0.2") == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,outputs",
    [
        (("validate", "--spec", "lk-sbp"), ("validate_report.json",)),
        (("fixtures",), ("fixtures.json",)),
        (("exact", "--spec", "mm1", "--steps", "3"), ("exact_law.json",)),
        (
            ("simulate", "--spec", "fcfs-reentrant", "--steps", "30", "--reps", "2"),
            ("paths.csv",),
        ),
        (
            ("phi", "--spec", "lk-prop", "--steps", "5", "--reps", "400"),
            ("phi.json",),
        ),
        (
            ("monotone", "--spec", "mm1", "--scales", "0.5,1.0", "--steps", "2,4"),
            ("monotone_table.csv", "monotone_violations.json"),
        ),
        (
            ("couple", "--spec", "lk-sbp", "--lower", "[[],[]]", "--upper", "[[1],[]]",
             "--steps", "40", "--reps", "5"),
            ("couple_report.json",),
        ),
        (
            ("threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.3",
             "--steps", "300", "--reps", "200"),
            ("threshold.json",),
        ),
        (
            ("region", "--spec", "tandem2", "--rays", "2", "--epsilon", "0.3",
             "--steps", "200", "--reps", "150"),
            ("region.json",),
        ),
        (
            ("cycle", "--spec", "mm1", "--cap", "2000", "--reps", "40"),
            ("cycle.json",),
        ),
        (
            ("threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.3",
             "--method", "rm", "--steps", "50", "--iters", "200"),
            ("threshold.json",),
        ),
    ],
)
def test_reruns_are_byte_identical(tmp_path, argv, outputs):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert run_cli("--seed", "42", "--out-dir", str(d), *argv) == 0
    for name in outputs:
        assert read(dirs[0] / name) == read(dirs[1] / name)
    for path in dirs[0].iterdir():
        if path.suffix == ".json":
            strict_json(read(path))


@pytest.mark.parametrize(
    "argv,degenerate",
    [
        (("--theta-scale", "0"), True),  # no arrivals: the mean is infinite
        (("--theta-scale", "5", "--cap", "3", "--reps", "2"), False),  # every run censored
    ],
)
def test_cycle_json_writes_a_mean_that_is_not_finite_as_null(tmp_path, capsys, argv, degenerate):
    assert run_cli("--out-dir", str(tmp_path), "cycle", "--spec", "mm1", *argv) == 0
    for text in (read(tmp_path / "cycle.json"), capsys.readouterr().out):
        payload = strict_json(text)
        assert payload["mean_return_steps"] is None
        assert payload["degenerate"] is degenerate
        assert payload["censor_fraction"] == (0.0 if degenerate else 1.0)


def test_spec_round_trip_through_files(tmp_path):
    for name in ("mm1", "lk-sbp"):
        spec = builtin_fixture(name)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dump_spec(spec, p1)
        dump_spec(load_spec(p1), p2)
        assert read(p1) == read(p2)
        assert load_spec(p2) == spec


@pytest.mark.parametrize(
    "argv,option",
    [
        # each wrote NaN, crashed or ran silently before counts were checked
        (("phi", "--spec", "mm1", "--steps", "10", "--reps", "0"), "--reps"),
        (("cycle", "--spec", "mm1", "--reps", "0"), "--reps"),
        (("phi", "--spec", "mm1", "--steps", "-3"), "--steps"),
        (("exact", "--spec", "mm1", "--steps", "-1"), "--steps"),
        (("couple", "--spec", "mm1", "--lower", "[[]]", "--upper", "[[1]]", "--steps", "-5"),
         "--steps"),
        (("simulate", "--spec", "mm1", "--steps", "-5"), "--steps"),
        (("region", "--spec", "tandem2", "--rays", "0", "--epsilon", "0.3"), "--rays"),
        (("threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.3",
          "--method", "rm", "--iters", "0"), "--iters"),
        (("--threads", "-4", "fixtures"), "--threads"),
        (("exact", "--spec", "mm1", "--steps", "3", "--budget", "-1"), "--budget"),
        # wrote series[-2] under the label "step -2"
        (("monotone", "--spec", "mm1", "--scales", "0.5,1", "--steps=-2,4", "--exact"),
         "--steps"),
    ],
)
def test_bad_counts_are_usage_errors(tmp_path, capsys, argv, option):
    assert run_cli("--out-dir", str(tmp_path), *argv) == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--spec", "mm1", "--steps", "5", "--theta-scale", "-1"),
        ("monotone", "--spec", "mm1", "--scales=-1,1", "--steps", "2,4"),
    ],
)
def test_negative_arrival_rates_are_domain_errors(tmp_path, capsys, argv):
    # both ran with the negative rates and reported phi = 1
    assert run_cli("--out-dir", str(tmp_path), *argv) == 1
    assert "arrival rates must be nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scales", ["1,nan", "inf"])
@pytest.mark.parametrize("mode", [(), ("--exact",)])
def test_monotone_scales_must_be_finite(tmp_path, capsys, mode, scales):
    # a NaN scale exited 1 from the spec check, and made the ascending check mean nothing
    argv = ("monotone", "--spec", "mm1", "--scales", scales, "--steps", "2,3", *mode)
    assert run_cli("--out-dir", str(tmp_path), *argv) == 2
    assert "scales must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", [(), ("--exact",)])
def test_phi_rejects_nonpositive_alpha(tmp_path, capsys, mode):
    # the exact mode wrote phi = 4.10 for alpha = -1
    argv = ("phi", "--spec", "mm1", "--steps", "5", "--alpha", "-1", *mode)
    assert run_cli("--out-dir", str(tmp_path), *argv) == 2
    assert "alpha must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-1", "inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--spec", "mm1", "--steps", "5"),
        ("phi", "--spec", "mm1", "--steps", "5"),
        ("monotone", "--spec", "mm1", "--scales", "1", "--steps", "5", "--exact"),
        ("threshold", "--spec", "mm1", "--direction", "1", "--epsilon", "0.2"),
        ("region", "--spec", "mm1", "--epsilon", "0.2"),
    ],
    ids=lambda argv: argv[0],
)
def test_alpha_must_be_finite_and_positive(tmp_path, capsys, argv, value):
    # exact printed E[exp(+jobs)] for -1; inf gave NaN values, a NaN table with no
    # violations and a threshold from NaN probes, all with exit 0
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), *argv, "--alpha", value) == 2
    assert "alpha must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_spec_file_with_a_non_finite_service_rate_is_a_domain_error(tmp_path, capsys, beta):
    # validate reported workload nan (or 0 for Infinity) and exited 0
    data = spec_to_dict(builtin_fixture("mm1"))
    data["beta"] = [beta]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), "validate", "--spec", str(path)) == 1
    assert "service rates must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_spec_file_without_protocols_is_a_usage_error(tmp_path, capsys):
    data = spec_to_dict(builtin_fixture("tandem2"))
    del data["protocols"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), "validate", "--spec", str(path)) == 2
    assert "the spec has no 'protocols' entry" in capsys.readouterr().err
    assert not out.exists()


def test_spec_file_with_a_wrong_type_entry_is_a_usage_error(tmp_path, capsys):
    # died with "TypeError: 'int' object is not iterable"
    data = spec_to_dict(builtin_fixture("tandem2"))
    data["stations"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), "validate", "--spec", str(path)) == 2
    assert "the spec's 'stations' entry is malformed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--spec", "mm1", "--steps", "2", "--out", "sub/p.csv"),
        ("simulate", "--spec", "mm1", "--steps", "2", "--out", ".."),
        ("couple", "--spec", "mm1", "--lower", "[[]]", "--upper", "[[1]]", "--steps", "3",
         "--report", "a/couple.json"),
    ],
)
def test_output_name_with_a_directory_part_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # simulate died with FileNotFoundError and left an empty --out-dir behind;
    # the names are checked before the run is solved
    def never(*args):
        raise AssertionError("the run was solved before its output names were checked")

    monkeypatch.setattr(mcqnet.cli, "PathSampler", never)
    monkeypatch.setattr(mcqnet.cli, "CouplingKernel", never)
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), *argv) == 2
    assert "must be a file name without a directory part" in capsys.readouterr().err
    assert not out.exists()


def test_spec_file_that_is_not_json_is_a_usage_error_naming_it(tmp_path, capsys):
    # printed "usage error: Expecting value: line 1 column 1 (char 0)"
    path = tmp_path / "net.json"
    path.write_text("not json")
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), "validate", "--spec", str(path)) == 2
    err = capsys.readouterr().err
    assert f"spec file {str(path)!r} is malformed" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-a-file"])
def test_out_dir_that_cannot_be_made_is_a_usage_error_naming_it(tmp_path, capsys, sub):
    # died in os.makedirs with FileExistsError or NotADirectoryError
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert run_cli("--out-dir", str(out), "fixtures") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(out) in err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert blocker.read_text() == ""


def test_directory_spec_is_not_a_spec_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("--out-dir", str(out), "validate", "--spec", str(tmp_path)) == 1
    assert "neither a built-in fixture nor a spec file" in capsys.readouterr().err
    assert not out.exists()


def test_wall_clock_covers_the_solve(tmp_path, monkeypatch):
    real = mcqnet.cli.verify_coupling_path

    def slow_verify_coupling_path(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(mcqnet.cli, "verify_coupling_path", slow_verify_coupling_path)
    assert run_cli(
        "--out-dir", str(tmp_path),
        "couple", "--spec", "mm1", "--lower", "[[]]", "--upper", "[[1]]", "--steps", "5",
    ) == 0
    assert json.loads(read(tmp_path / "couple_manifest.json"))["wall_clock_s"] >= 0.05


@pytest.mark.parametrize(
    "argv,output,digest",
    [
        (
            ("--seed", "5", "simulate", "--spec", "fcfs-reentrant", "--steps", "40",
             "--reps", "3"),
            "paths.csv",
            "90a6778c01f337de03dd30fe8230a89d31cbceb3b213557d3b0494ea13d1d1bf",
        ),
        (
            ("--seed", "11", "couple", "--spec", "lk-sbp", "--lower", "[[],[]]",
             "--upper", "[[1,4],[2]]", "--steps", "60", "--reps", "8"),
            "couple_report.json",
            "daf5b0b715913552389833b185c4b333f5299f6d8d19fd00470f4045d63d4c36",
        ),
        (  # 3000 steps read past a whole 4096-uniform block
            ("--seed", "3", "couple", "--spec", "fcfs-reentrant", "--lower", "[[],[]]",
             "--upper", "[[1],[]]", "--steps", "3000", "--reps", "2"),
            "couple_report.json",
            "f07778d7230e9879cb9cf501dedbf765ba17bd893acaf6fa7d8b074fceb0e7b0",
        ),
        (  # 400 steps read one block of 2 * 400 + 4 uniforms
            ("--seed", "4", "couple", "--spec", "mm1", "--lower", "[[]]", "--upper", "[[1]]",
             "--steps", "400", "--reps", "3"),
            "couple_report.json",
            "79c7f826a22c8f83beb9d21cae46e74c3f438a4c0ac1502a1e58ec3cb4c7eb25",
        ),
        (  # order-independent stations: the sampler snapshots _OIStation buffers
            ("--seed", "5", "simulate", "--spec", "lk-prop", "--steps", "40", "--reps", "2"),
            "paths.csv",
            "4f2c0fd048c2b46cd2959b99fa7c914d41ffb293724e0de923556ca3e3fe66ee",
        ),
    ],
)
def test_output_digests_are_pinned(tmp_path, argv, output, digest):
    # integers only, from Philox draws and IEEE comparisons: stable across platforms
    assert run_cli("--out-dir", str(tmp_path), *argv) == 0
    assert hashlib.sha256(read(tmp_path / output)).hexdigest() == digest
    manifest = json.loads(read(tmp_path / f"{argv[2]}_manifest.json"))
    assert manifest["outputs"][output] == digest


@pytest.mark.parametrize(
    "argv,output,digest",
    [
        (
            ("exact", "--spec", "fcfs-reentrant", "--theta-scale", "3", "--steps", "18",
             "--alpha", "0.5"),
            "exact_law.json",
            "04bbdabf5e932eec02b836cd870f59be84fa968c6456e8c2bf1de8a05d2cffc5",
        ),
        (
            ("exact", "--spec", "lk-prop", "--reduced", "--steps", "30", "--alpha", "0.3"),
            "exact_law.json",
            "c486d7ce52e4f629508c9610592d381eb219172e455bb30edb0dee1ceeb428c9",
        ),
        (  # the README's example
            ("exact", "--spec", "mm1", "--steps", "2", "--alpha", "1"),
            "exact_law.json",
            "86bd7703eab5b9ebfc9cbb9bd4ac028ca2fd2e5ce7c4e0a860bf968aa5494918",
        ),
        (
            ("monotone", "--spec", "lk-prop", "--scales", "0.5,1.0,1.5", "--steps", "2,6,10",
             "--exact", "--reduced"),
            "monotone_table.csv",
            "689ba5c20a50ecc9f035de622a33c543c9a3f26cb5335a04644853151e8d30ac",
        ),
        (
            ("phi", "--spec", "fcfs-reentrant", "--steps", "12", "--exact", "--alpha", "0.5"),
            "phi.json",
            "e9974db02e91224c7e124af7733d072f4011d7789f40ce62fd797b620e3bae77",
        ),
        (
            ("phi", "--spec", "lk-sbp", "--reduced", "--steps", "40", "--exact", "--alpha", "0.2"),
            "phi.json",
            "8685a0262b033c246819e119d0b1de645b25066df95a11f2aba33a2cd8ee9e8b",
        ),
    ],
)
def test_exact_output_digests_are_pinned(tmp_path, argv, output, digest):
    # IEEE sums in a fixed order and math.exp: the bytes of the laws, the
    # shortest float reprs and the functional values all count
    assert run_cli("--out-dir", str(tmp_path), *argv) == 0
    assert hashlib.sha256(read(tmp_path / output)).hexdigest() == digest
    manifest = json.loads(read(tmp_path / f"{argv[0]}_manifest.json"))
    assert manifest["outputs"][output] == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--spec", "mm1", "--steps", "5", "--alpha", "-1"),
        ("exact", "--spec", "mm1", "--steps", "6", "--budget", "2"),
        ("validate", "--spec", "bogus"),
    ],
)
def test_failed_run_leaves_no_out_dir(tmp_path, argv):
    out = tmp_path / "new" / "out"
    assert run_cli("--out-dir", str(out), *argv) in (1, 2)
    assert not (tmp_path / "new").exists()


JSON_SCALARS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 2.5, 2**70, -3, 0,
    True, False, None, "", "plain", "é ß 😀", 'q"b\\s\n\t\x00\u2028',
]
JSON_KEYS = ["", "a", "aa", "B", "é", "ß", "😀", "new\nline", "tab\t", 'q"', "back\\",
             "\x00", "\u2028", "[[1,4],[2]]", "[[1],[]]"]


def random_json(rnd: random.Random, depth: int = 0):
    """A seeded JSON value: nested and empty dicts and lists, dicts with str,
    int, float or bool keys, edge floats, ints, bools, None and strings that
    need escapes."""
    roll = rnd.random() if depth < 4 else 1.0
    size = rnd.randrange(0, 6)
    if roll < 0.3:
        keys = rnd.sample(JSON_KEYS, min(size, len(JSON_KEYS)))
        return {k: random_json(rnd, depth + 1) for k in keys}
    if roll < 0.4:
        return {f"k{rnd.randrange(1000)}": rnd.choice(JSON_SCALARS) for _ in range(size)}
    if roll < 0.5:
        key_pool = rnd.choice([list(range(-3, 9)), [0.5, -1.25, 3.0, 1e16], [True, False]])
        keys = rnd.sample(key_pool, min(size, len(key_pool)))
        return {k: random_json(rnd, depth + 1) for k in keys}
    if roll < 0.65:
        return [random_json(rnd, depth + 1) for _ in range(size)]
    return rnd.choice(JSON_SCALARS)


def write_and_read(tmp_path, payload) -> bytes:
    out = RunWriter(argparse.Namespace(out_dir=str(tmp_path)))
    out.write_json("payload.json", payload)
    data = read(tmp_path / "payload.json")
    assert out.outputs["payload.json"] == hashlib.sha256(data).hexdigest()
    return data


def json_dump_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("seed", range(40))
def test_json_writer_matches_json_dump_on_random_values(tmp_path, seed):
    rnd = random.Random(seed)
    payload = {key: random_json(rnd) for key in rnd.sample(JSON_KEYS, 6)}
    if seed % 4 == 0:
        payload = random_json(rnd)  # any top-level value
    assert write_and_read(tmp_path, payload) == json_dump_bytes(payload)


def test_json_writer_matches_json_dump_on_fixed_values(tmp_path):
    rnd = random.Random(7)
    big = {f"[[{i}],[{rnd.randrange(9)}]]": rnd.choice(JSON_SCALARS) for i in range(2 * _JSON_CHUNK + 3)}
    exactly_one_chunk = dict(list(big.items())[:_JSON_CHUNK])
    cases = [
        {}, [], 0, None, "x", -0.0,
        {"a": {}, "b": [], "c": [{}], "d": {"e": {}}},
        {"a": [[], [[]], {"x": []}]},
        dict(zip(JSON_KEYS, JSON_SCALARS)),
        {1: "a", 2: [1, {"b": None}], -5: {}},
        {0.5: 1, -1.25: [2.0], 1e16: {"k": math.inf}},
        {True: 1, False: {"x": -math.inf}},
        big,
        exactly_one_chunk,
        {"steps": 3, "distribution": big, "functional": {"value": 5e-324}},
        [big, {"inner": {"deeper": big}}],
    ]
    for payload in cases:
        assert write_and_read(tmp_path, payload) == json_dump_bytes(payload)


@pytest.mark.parametrize("size", [_JSON_CHUNK, 2 * _JSON_CHUNK + 3])
def test_json_writer_writes_entries_across_chunk_seams_as_json_dump(tmp_path, size):
    rnd = random.Random(size)
    keys = sorted({f"[[{rnd.randrange(10**6)}],[]]" for _ in range(2 * size)})[:size]
    values = [rnd.choice([5e-324, 0.1, 1e16, 1e-7, rnd.random()]) for _ in keys]
    law = dict(zip(keys, values))
    assert len(law) == size
    entries = _Entries('"%s": %r', [keys, values])
    written = write_and_read(tmp_path, {"steps": 3, "distribution": entries, "z": {}})
    assert written == json_dump_bytes({"steps": 3, "distribution": law, "z": {}})


def test_json_writer_raises_as_json_dump_does(tmp_path):
    for payload in ({"a": 1, 2: 3}, {"a": {"b": object()}}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            write_and_read(tmp_path, payload)


@pytest.mark.parametrize(
    "steps, scale", [(0, 1.0), (1, 1.0), (6, 1.0), (12, 1.5)], ids=["0", "1", "6", "12-theta1.5"]
)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_json_writer_streams_the_exact_law_as_json_dump(tmp_path, name, reduced, steps, scale):
    """``exact_law.json`` is streamed in key-row order without a dict, and is
    byte for byte ``json.dump`` of its payload, sorted keys, plus a newline."""
    argv = ["--out-dir", str(tmp_path), "exact", "--spec", name, "--steps", str(steps),
            "--theta-scale", str(scale)]
    assert run_cli(*argv, *(["--reduced"] if reduced else [])) == 0
    data = read(tmp_path / "exact_law.json")
    spec = builtin_fixture(name).scale_theta(scale)
    law = ExactEngine(spec, reduced=reduced).distribution(tuple(() for _ in spec.stations), steps)
    payload = json.loads(data)
    assert payload["distribution"] == {_state_key(state): p for state, p in law.items()}
    assert data == json_dump_bytes(payload)
