import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest

import entanglia

from entanglia.cli import emit, main
from entanglia.linalg import write_matrix
from entanglia.states import bell, werner, write_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_human(capsys):
    code, out, _ = run_cli(capsys, "classify", ".4,.4,.2", ".48,.26,.26")
    assert code == 0
    assert "Incomparable" in out
    assert "partial_sums" in out


def test_nielsen_structured(capsys):
    code, out, _ = run_cli(capsys, "nielsen", ".5,.5", "1,0", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["convertible"] is True
    assert "tolerances" in doc and "seed" in doc


def test_structured_output_stable(capsys):
    _, out1, _ = run_cli(capsys, "classify", ".4,.4,.2", ".48,.26,.26", "--output", "structured")
    _, out2, _ = run_cli(capsys, "classify", ".4,.4,.2", ".48,.26,.26", "--output", "structured")
    assert out1 == out2


def test_catalyst_reports_c(capsys):
    code, out, _ = run_cli(capsys, "catalyst", ".4,.4,.1,.1", ".5,.25,.25,0", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert abs(doc["catalyst_c"] - 0.6) < 1e-9
    assert doc["certified"] is True


def test_multicopy(capsys):
    code, out, _ = run_cli(capsys, "multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", "3", "--output", "structured")
    assert code == 0
    assert json.loads(out)["convertible"] is True


@pytest.mark.parametrize("k", ["100000", "1000000000000"])
def test_multicopy_huge_k_exits_3(capsys, k):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", k)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "TooLarge" in err


def test_multicopy_at_the_size_limit(capsys):
    tenth = ",".join(["0.1"] * 10)
    code, out, _ = run_cli(capsys, "multicopy", tenth, tenth, "3", "--output", "structured")
    assert code == 0
    assert json.loads(out)["convertible"] is True


def test_assist_min(capsys):
    code, out, _ = run_cli(capsys, "assist", ".4,.4,.2", ".48,.26,.26", "--min", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["c0"] - 0.925) < 1e-12
    assert doc["certified"] is True


@pytest.mark.parametrize("rank, direct", [(1000, True), (1001, None), (2000, None)])
def test_assist_cross_check_bounded(tmp_path, capsys, rank, direct):
    """The product-vector cross-check holds d(d-1) entries and runs up to
    10^6 of them (d = 1000); above that it reports null and builds nothing."""
    rng = np.random.default_rng(rank)
    b = rng.dirichlet(np.ones(rank))
    a = 0.5 * b + 0.5 / rank  # a majorized by b: assistance passes
    paths = []
    for name, v in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(v.tolist()))
    code, out, _ = run_cli(capsys, "assist", str(paths[0]), str(paths[1]), "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["possible"] is True
    assert doc["cross_check_direct"] is direct


def test_coop_and_split2(capsys):
    code, out, _ = run_cli(capsys, "coop", ".41,.38,.21", ".4,.4,.2", "--output", "structured")
    assert code == 0
    assert json.loads(out)["joint_ok"] is True
    code, out, _ = run_cli(capsys, "split2", ".5,.3,.2", ".55,.24,.21", "--output", "structured")
    assert code == 0
    assert json.loads(out)["case"] == 1


def test_coop_diagnostics_structured_only(capsys):
    argv = ("coop", ".5,.3,.2", ".55,.24,.21", "--seed", "1")
    code, out, _ = run_cli(capsys, *argv, "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    slack = np.array(doc["joint_target_partial_sums"]) - np.array(doc["joint_source_partial_sums"])
    assert doc["diagnostics"]["cell"] == "11>12>21>22>31>32>13>23>33 ++-"
    assert doc["diagnostics"]["margin"] == pytest.approx(slack[:-1].min(), abs=1e-15)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "diagnostics" not in out and "cell" not in out


@pytest.mark.parametrize(
    "a, b, seed",
    [
        ("0.41,0.38,0.209999999", "0.4,0.4,0.199999999", 0),
        ("0.41,0.38,0.209999999", "0.4,0.4,0.199999999", 1),
        ("0.564,0.309,0.126999999", "0.557,0.399,0.043999999", 0),
        ("0.41,0.38,0.21000000099999955", "0.4,0.4,0.2000000004999998", 1),
    ],
)
def test_coop_at_edge_totals_answers_or_names_the_error(a, b, seed):
    # totals at 1 - TRACE_TOL or 1 + TRACE_TOL: a plan with every flag true,
    # or exit 3 naming the error, never a traceback
    done = run_cli_child("coop", a, b, "--seed", str(seed), "--output", "structured")
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        doc = json.loads(done.stdout)
        assert doc["joint_ok"] is True and all(doc["cross_incomparable"].values())
        assert done.stderr == ""
    else:
        assert done.returncode == 3
        assert done.stderr.startswith(("error [TraceMismatch]", "error [NoPlanFound]"))
        assert done.stderr.count("\n") == 1


def test_trace_mismatch_exit_code(capsys):
    code, _, err = run_cli(capsys, "nielsen", ".5,.5", ".7,.2")
    assert code == 3
    assert "TraceMismatch" in err


def run_cli_child(*argv):
    """The CLI in a child process with a timeout; Python warnings go to its
    stderr."""
    src = os.path.dirname(os.path.dirname(entanglia.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-W", "default", "-m", "entanglia.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)


def test_catalyst_step_zero_exits_3():
    # a child with a timeout, so an endless grid scan fails instead of hanging
    done = run_cli_child("catalyst", ".4,.4,.1,.1", ".5,.25,.25,0", "--step", "0")
    assert done.returncode == 3
    assert "BadParam" in done.stderr


def test_catalyst_diagnostics_off_grid(capsys):
    # the window [0.609528, 0.609750] holds no point of the default grid
    argv = ("catalyst", ".4,.4,.1,.1", ".4878,.2622,.25,0", "--output", "structured")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["catalyst_c"] is None
    diag = doc["diagnostics"]
    ((lo, hi),) = diag["window"]
    assert (round(lo, 6), round(hi, 6)) == (0.609528, 0.60975)
    assert diag["width"] == pytest.approx(hi - lo)
    assert diag["on_grid"] is False and diag["certified_points"] == 0
    assert lo < diag["off_grid_c"] < hi
    code, out, _ = run_cli(capsys, *argv, "--step", "1e-5")
    doc = json.loads(out)
    assert doc["catalyst_c"] == 0.60953 and doc["diagnostics"]["on_grid"] is True
    assert doc["diagnostics"]["off_grid_c"] is None
    code, out, _ = run_cli(capsys, *argv[:3])
    assert code == 0 and "diagnostics" not in out and "on_grid" not in out


def test_catalyst_fine_steps_answer_at_once():
    # a miss with an empty window: a scan of its 10^8 grid points at 1e-8
    # would take many seconds
    for step in ("1e-8", "1e-9"):
        started = time.perf_counter()
        done = run_cli_child("catalyst", "0.45,0.44,0.08,0.03", "0.64,0.18,0.15,0.03", "--step", step)
        assert done.returncode == 0 and "found: False" in done.stdout
        assert time.perf_counter() - started < 10
    # grid indices past 2^53 (and past the float range at 5e-324)
    for step in ("1e-17", "5e-324"):
        done = run_cli_child("catalyst", ".4,.4,.1,.1", ".5,.25,.25,0", "--step", step)
        assert done.returncode == 3
        assert done.stderr.startswith("error [BadParam]: grid_step") and "Traceback" not in done.stderr


def test_majorize_pads_a_shorter_vector_above_its_negative_entry(capsys):
    code, out, _ = run_cli(capsys, "majorize", "1.2,-0.2", "0.6,0.5,-0.1", "--output", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "YPrecX"
    # the printed sums are the padded ones the verdict reads
    assert doc["x_partial_sums"] == [1.2, 1.2, 1.0] and doc["y_partial_sums"] == [0.6, 1.1, 1.0]
    code, out, _ = run_cli(capsys, "majorize", "1.2,-0.2", "0.6,0.5,-0.1")
    assert code == 0 and "x_partial_sums: [1.2, 1.2, 1]\n" in out


@pytest.mark.parametrize("command", ["nielsen", "coop", "assist", "split2"])
def test_overflowing_probability_vector_raises_no_warning(capsys, command):
    # validation reports the total past the float range before any search
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, command, "1e308,1e308,0", ".5,.3,.2")
    assert code == 3
    assert err == "error [TraceMismatch]: probability vector sums to inf, not 1\n"


@pytest.mark.parametrize("command", ["classify", "majorize"])
def test_overflowing_total_prints_only_the_error(command):
    # 1e308 + 1e308 overflows: the bad total is reported, with no numpy warning
    done = run_cli_child(command, "1e308,1e308,0", ".5,.3,.2")
    assert done.returncode == 3
    assert done.stderr == "error [TraceMismatch]: a total is past the float range: inf vs 1.0\n"


@pytest.mark.parametrize("command", ["classify", "majorize"])
def test_inf_and_minus_inf_print_only_the_error(command):
    # inf + -inf in one vector: no numpy RuntimeWarning before the error line
    done = run_cli_child(command, "inf,-inf,1", ".5,.3,.2")
    assert done.returncode == 3
    assert done.stderr == "error [NonFinite]: majorization input has a NaN or infinite component\n"


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (("majorize", "-0.2,1.2", ".5,.5", "--output", "structured"), "YPrecX"),
        (("majorize", "--output", "structured", "-0.2,1.2", ".5,.5"), "YPrecX"),
        (("majorize", ".5,.5", "-0.2,1.2", "--output", "structured"), "XPrecY"),
    ],
)
def test_vector_starting_with_a_minus_sign_answers(capsys, argv, verdict):
    # majorize reads any real vector, with no "--" before one that starts with a minus sign
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["verdict"] == verdict


@pytest.mark.parametrize(
    "argv, error",
    [
        (("nielsen", "-0.1,1.1", ".5,.5"), "TraceMismatch"),
        (("classify", ".5,.5", "-0.1,1.1"), "TraceMismatch"),
        (("catalyst", "-0.1,1.1", ".5,.5"), "TraceMismatch"),
        (("multicopy", "-0.1,1.1", ".5,.5", "2"), "TraceMismatch"),
        (("assist", "-0.1,1.1", ".5,.5"), "TraceMismatch"),
        (("assist", "-0.1,1.1", ".5,.5", "--min"), "TraceMismatch"),
        (("coop", "-0.1,1.1", ".5,.5"), "TraceMismatch"),
        (("split2", "-0.1,1.1", ".5,.5"), "TraceMismatch"),
        (("majorize", "-inf,0", ".5,.5"), "NonFinite"),
        (("nielsen", ".5,.5", "-nan,1"), "NonFinite"),
        (("flip", "-1e-3", "0", "1", "0", "1"), "BadParam"),
    ],
)
def test_vector_starting_with_a_minus_sign_names_the_precondition(capsys, argv, error):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith(f"error [{error}]")


@pytest.mark.parametrize(
    "argv, error",
    [
        (("nielsen", "nan,1", ".5,.5"), "NonFinite"),
        (("classify", ".5,.5", "inf,0"), "NonFinite"),
        (("multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", "0"), "BadParam"),
        (("multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", "-3"), "BadParam"),
        (("hide", "demo", "--n", "4", "--trials", "0"), "BadParam"),
    ],
)
def test_malformed_input_exit_code(capsys, argv, error):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert error in err


@pytest.mark.parametrize(
    "content",
    [
        None,  # a directory: exists but cannot be read as a file
        "0.5, 0.5",  # not JSON
        '["a", "b"]',  # non-numeric entries
        '{"x": 0.5}',  # not an array
        "[[0.5, 0.5]]",  # not flat
    ],
)
def test_bad_vector_file_exit_code(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code, _, err = run_cli(capsys, "nielsen", str(path), "0.5,0.5")
    assert code == 3
    assert "BadParam" in err and str(path) in err


def test_seed_must_be_non_negative(monkeypatch):
    for argv in (["hide", "demo", "--seed", "-3"], ["coop", ".41,.38,.21", ".4,.4,.2", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    monkeypatch.setenv("ENTANGLIA_SEED", "-1")
    with pytest.raises(SystemExit) as exc:
        main(["nielsen", ".5,.5", "1,0"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    for argv in (["nielsen"], ["majorize", "-x", ".5,.5"]):  # -x reads as an unknown option, not a vector
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_measure_entropy_state_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    write_state(path, bell("phi+"), dims=(2, 2))
    code, out, _ = run_cli(capsys, "measure", "entropy", str(path), "--output", "structured")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-9


def test_measure_negativity_matrix_file(tmp_path, capsys):
    path = tmp_path / "werner.json"
    write_matrix(path, werner(1.0), dims=(2, 2))
    code, out, _ = run_cli(capsys, "measure", "negativity", str(path), "--cut", "1", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["negativity"] - 0.5) < 1e-9
    assert abs(doc["log_negativity"] - 1.0) < 1e-9


def test_witness_report(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_matrix(path, werner(0.8), dims=(2, 2))
    code, out, _ = run_cli(capsys, "witness", str(path), "--cut", "1", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt"] is False
    assert doc["chsh_m"] > 1
    assert doc["distillable"]["found"] is True


def test_witness_copies_and_cut_errors(tmp_path, capsys):
    path = tmp_path / "w.json"
    write_matrix(path, werner(0.8), dims=(2, 2))
    code, _, err = run_cli(capsys, "witness", str(path), "--copies", "0")
    assert code == 3
    assert "BadParam" in err and "copies" in err
    code, _, err = run_cli(capsys, "witness", str(path), "--cut", "x")
    assert code == 3
    assert "BadParam" in err and "cut" in err


def test_flip_subcommand(capsys):
    s = 1 / np.sqrt(2)
    code, out, _ = run_cli(capsys, "flip", str(s), str(s), str(s), str(s), "1.5707963267948966", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Incomparable"
    assert doc["cardan_max_delta"] < 1e-8


def test_antiunitary_subcommand(capsys):
    code, out, _ = run_cli(capsys, "antiunitary", "0.3", "1.0", "2.0", "--output", "structured")
    assert code == 0
    assert json.loads(out)["verdict"] == "Incomparable"


def test_angle_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "angle", "0", "1", "--sweep", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha,beta,A,B,verdict")
    assert len(lines) == 9


@pytest.mark.parametrize(
    "argv,error",
    [
        (("angle", "0", "1", "--sweep", "-3"), "BadParam"),
        (("angle", "0", "1", "--sweep", "1000000000"), "TooLarge"),
        (("bound", "upb", "--trials", "1000000000"), "TooLarge"),
        (("flip", "nan", "0", "1", "0", "1"), "NonFinite"),
        (("angle", "nan", "0"), "NonFinite"),
        (("antiunitary", "nan", "0", "0"), "NonFinite"),
        (("antiunitary", "inf", "0", "0"), "NonFinite"),
    ],
)
def test_gadget_and_loop_guards_exit_3(capsys, argv, error):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert f"[{error}]" in err
    assert out == ""


def test_bound_build_and_write(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bound", "build", "--n", "4", "--out", str(tmp_path), "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["recursive_vs_direct_max_delta"] < 1e-12
    from entanglia.linalg import read_matrix

    m, dims = read_matrix(tmp_path / "rhop.json")
    assert dims == (2, 2, 2, 2)
    assert abs(np.trace(m).real - 1) < 1e-12


def test_bound_verify(capsys):
    code, out, _ = run_cli(capsys, "bound", "verify", "--n", "4", "--output", "structured")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_bound_verify_n10(capsys):
    flags = (
        "orthogonal", "permutation_symmetric", "even_cut_ppt", "single_vs_rest_npt",
        "pauli_connected", "reduced_max_mixed", "unlock_ok", "all_pass",
    )
    code, out, _ = run_cli(capsys, "bound", "verify", "--n", "10", "--output", "structured")
    full = json.loads(out)
    assert code == 0 and full["all_pass"] is True
    assert len(full["cuts"]) == 4 * (255 + 10)
    code, out, _ = run_cli(capsys, "bound", "verify", "--n", "10", "--quick", "--output", "structured")
    quick = json.loads(out)
    assert code == 0 and "cuts" not in quick
    assert {k: quick[k] for k in flags} == {k: full[k] for k in flags}


def test_bound_unlock(capsys):
    code, out, _ = run_cli(capsys, "bound", "unlock", "--n", "4", "--state", "sigma+", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert all(abs(o["probability"] - 0.25) < 1e-9 for o in doc["outcomes"])


def test_bound_horodecki(capsys):
    code, out, _ = run_cli(capsys, "bound", "horodecki", "--a", "0.5", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt"] is True
    assert doc["insep_part_npt"] is True


def test_bound_upb(capsys):
    code, out, _ = run_cli(capsys, "bound", "upb", "--trials", "16", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["complement_rank"] == 4
    assert doc["complement_ppt"] is True
    assert doc["seesaw_score"] < 1 - 1e-3
    assert doc["truncated_seesaw_score"] > 1 - 1e-9


def test_hide_demo(capsys):
    code, out, _ = run_cli(
        capsys, "hide", "demo", "--n", "4", "--trials", "5", "--shots", "100", "--seed", "7",
        "--output", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unlock_rate"] == 1.0
    assert doc["family_leak_rate"] == 1.0


def test_hide_demo_huge_shots_exits_3(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "hide", "demo", "--n", "4", "--trials", "1", "--shots", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "TooLarge" in err


def test_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("ENTANGLIA_SEED", "123")
    code, out, _ = run_cli(capsys, "nielsen", ".5,.5", "1,0", "--output", "structured")
    assert json.loads(out)["seed"] == 123


@dataclass
class _WitnessLike:
    verdict: str
    spectrum: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def test_emit_prints_a_dataclass_diagnostics_block_only_in_structured_output(capsys):
    report = _WitnessLike("Incomparable", np.array([0.75, 0.25]), {"restarts": np.int64(3)})
    emit(report, argparse.Namespace(output="human", seed=0))
    human = capsys.readouterr().out
    assert human.startswith("verdict: Incomparable\nspectrum: [0.75, 0.25]\n[seed 0; ")
    assert "diagnostics" not in human and "restarts" not in human
    emit(report, argparse.Namespace(output="structured", seed=0))
    assert json.loads(capsys.readouterr().out)["diagnostics"] == {"restarts": 3}
