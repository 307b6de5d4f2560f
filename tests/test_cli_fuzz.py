"""Seeded argv fuzz of every subcommand.

Each run is a child process with a timeout, so a hang fails the test
instead of stalling the suite.  Every argv must end in exit 0 (answer),
2 (usage error) or 3 (named precondition), never in a traceback.  The two
tests together start 49 children.  The malformed state and matrix files at
the end run in-process, where a traceback would raise in the test, through
the CLI and through the library readers, and so do the well-formed files
whose arithmetic overflows, which must warn nothing.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

import entanglia
from entanglia.cli import main
from entanglia.errors import BadParam
from entanglia.linalg import read_matrix
from entanglia.states import read_state

N_VALUES = ["-4", "-1", "0", "2", "3", "4", "5", "6", "7", "11", "12", "64", "four"]
COUNTS = ["-5", "-1", "0", "1", "3", "2.5"]
LABELS = ["rho+", "sigma-", "tau", "RHO+", ""]
RUNS = 16


ACTIONS = ["bound build", "bound verify", "bound unlock", "hide demo"]


def fuzz_argv(rng, action):
    action = action.split()
    argv = action + ["--n", rng.choice(N_VALUES)]
    if action[1] == "verify" and rng.random() < 0.5:
        argv.append("--quick")
    if action[1] == "unlock":
        argv += ["--state", rng.choice(LABELS)]
    if action[0] == "hide":
        argv += ["--trials", rng.choice(COUNTS), "--shots", rng.choice(COUNTS)]
    if rng.random() < 0.2:
        argv += ["--seed", rng.choice(["-7", "0", "99", "x"])]
    return argv


def test_bound_and_hide_argv_fuzz():
    src = os.path.dirname(os.path.dirname(entanglia.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    rng = random.Random(20080512)
    codes = set()
    for i in range(RUNS):
        argv = fuzz_argv(rng, ACTIONS[i % len(ACTIONS)])
        done = subprocess.run(
            [sys.executable, "-m", "entanglia.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode in (0, 2, 3), (argv, done.stderr)
        assert "Traceback" not in done.stderr, (argv, done.stderr)
        codes.add(done.returncode)
    assert codes == {0, 2, 3}  # the seed reaches every kind of ending


# ---------------------------------------------------------------------------
# the other subcommands


def run_child(argv):
    src = os.path.dirname(os.path.dirname(entanglia.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "entanglia.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode in (0, 2, 3), (argv, done.stderr)
    assert "Traceback" not in done.stderr, (argv, done.stderr)
    return done.returncode


VECTORS = [
    ".4,.4,.2", ".48,.26,.26", ".41,.38,.21", ".4,.4,.1,.1", ".5,.25,.25,0", ".5,.3,.2",
    ".55,.24,.21", ".5,.5", "1,0", "1", ".7,.2", "-.1,1.1", "nan,1", "inf,0", "", "a,b",
]
FLOATS = ["0", "1", "-1", "0.5", "0.7071067811865476", "1.5707963267948966", "nan", "inf", "x"]
CUTS = ["0", "1", "2", "0,1", "", "x", "-1"]


def write_inputs(tmp_path):
    """State and matrix files, written with the stdlib: a Bell state, a
    Werner matrix (p = 0.8), a three-qubit GHZ state, a matrix without
    dims and a file that is not JSON."""
    h = 1 / math.sqrt(2)
    werner = [[0.05, 0, 0, 0], [0, 0.45, -0.4, 0], [0, -0.4, 0.45, 0], [0, 0, 0, 0.05]]
    zero = [[0.0] * 4 for _ in range(4)]
    docs = {
        "bell.json": {"dims": [2, 2], "amp": [[h, 0], [0, 0], [0, 0], [h, 0]]},
        "werner.json": {"dims": [2, 2], "re": werner, "im": zero},
        "ghz.json": {"dims": [2, 2, 2], "amp": [[h, 0]] + [[0, 0]] * 6 + [[h, 0]]},
        "nodims.json": {"dims": None, "re": werner, "im": zero},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "broken.json").write_text("{")
    return [str(tmp_path / name) for name in (*docs, "broken.json", "missing.json")]


def other_argv(rng, kind, files):
    vec = lambda: rng.choice(VECTORS)
    num = lambda: rng.choice(FLOATS)
    if kind in ("majorize", "nielsen", "classify", "coop", "split2"):
        return [kind, vec(), vec()]
    if kind == "catalyst":
        steps = ["0", "0.001", "0.25", "0.6", "nan", "-1", "1e-9", "5e-324"]
        return [kind, vec(), vec(), "--step", rng.choice(steps)]
    if kind == "multicopy":
        return [kind, vec(), vec(), rng.choice(["-1", "0", "1", "2", "3", "20", "x"])]
    if kind == "assist":
        return [kind, vec(), vec()] + (["--min"] if rng.random() < 0.5 else [])
    if kind == "measure":
        what = rng.choice(["entropy", "concurrence", "eof", "negativity", "purity"])
        return [kind, what, rng.choice(files), "--cut", rng.choice(CUTS)]
    if kind == "witness":
        copies = rng.choice(["-1", "0", "1", "2", "13", "1000000000000"])
        return [kind, rng.choice(files), "--cut", rng.choice(CUTS), "--copies", copies]
    if kind == "flip":
        return [kind] + [num() for _ in range(5)]
    if kind == "antiunitary":
        return [kind] + [num() for _ in range(3)]
    if kind == "angle":
        return [kind, num(), num()] + (["--sweep", rng.choice(["-3", "0", "5"])] if rng.random() < 0.5 else [])
    if kind == "bound horodecki":
        return ["bound", "horodecki", "--a", num()]
    return ["bound", "upb", "--trials", rng.choice(COUNTS)]


KINDS = [
    "majorize", "nielsen", "classify", "catalyst", "multicopy", "assist", "coop", "split2",
    "measure", "witness", "flip", "antiunitary", "angle", "bound horodecki", "bound upb",
]
OTHER_RUNS = 19


def test_other_subcommands_argv_fuzz(tmp_path):
    files = write_inputs(tmp_path)
    # hermitian with trace 1, but no density matrix: |rho_ij| <= tr rho fails
    huge = tmp_path / "huge.json"
    diagonal = [[0.0] * 4 for _ in range(4)]
    for i, x in enumerate((1e308, -1e308, 1.0, 0.0)):
        diagonal[i][i] = x
    huge.write_text(json.dumps({"dims": [2, 2], "re": diagonal, "im": [[0.0] * 4 for _ in range(4)]}))
    fixed = [
        ["witness", str(huge)],
        ["measure", "negativity", str(huge)],
        ["antiunitary", "0", "1e308", "1e308"],
        ["multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", "100000"],
        ["multicopy", ".4,.4,.1,.1", ".5,.25,.25,0", "1000000000000"],
        ["hide", "demo", "--n", "4", "--trials", "1", "--shots", "1000000000"],
        ["witness", files[1], "--copies", "0"],
        ["measure", "entropy", files[0], "--cut", "x"],
        ["bound", "upb", "--trials", "1000000000"],
        ["angle", "0", "1", "--sweep", "1000000000"],
        ["flip", "nan", "0", "1", "0", "1"],
        ["angle", "nan", "0"],
        ["angle", "0", "1e160"],
        ["flip", "1e200", "0", "1", "0", "1"],
    ]
    for argv in fixed:
        assert run_child(argv) == 3, argv
    rng = random.Random(19990401)
    codes = {run_child(other_argv(rng, KINDS[i % len(KINDS)], files)) for i in range(OTHER_RUNS)}
    assert {0, 3} <= codes


# ---------------------------------------------------------------------------
# malformed state and matrix files, run in-process: a traceback would raise


def _malformed_docs():
    h = 1 / math.sqrt(2)
    werner = [[0.1, 0, 0, 0], [0, 0.4, -0.3, 0], [0, -0.3, 0.4, 0], [0, 0, 0, 0.1]]
    zero = [[0.0] * 4 for _ in range(4)]
    bell = [[h, 0], [0, 0], [0, 0], [h, 0]]
    return {
        "ragged-re": {"dims": [2, 2], "re": [row[:3] if i == 0 else row for i, row in enumerate(werner)], "im": zero},
        "string-re": {"dims": [2, 2], "re": [["x", 0, 0, 0]] + werner[1:], "im": zero},
        "numeric-string-re": {"dims": [2, 2], "re": [["0.1", 0, 0, 0]] + werner[1:], "im": zero},
        "bool-re": {"dims": [2, 2], "re": [[True, 0, 0, 0.5]] + werner[1:], "im": zero},
        "flat-re": {"dims": [2, 2], "re": [0.5, 0, 0, 0.5], "im": [0, 0, 0, 0]},
        "non-square-re": {"dims": [2, 2], "re": werner[:3], "im": zero[:3]},
        "im-shape": {"dims": [2, 2], "re": werner, "im": [[0, 0], [0, 0]]},
        "amp-singles": {"dims": [2, 2], "amp": [[h], [0], [0], [h]]},
        "amp-triples": {"dims": [2, 2], "amp": [[h, 0, 0], [0, 0, 0], [0, 0, 0], [h, 0, 0]]},
        "amp-string": {"dims": [2, 2], "amp": "abcd"},
        "amp-bool": {"dims": [2, 2], "amp": [[True, 0], [0, 0], [0, 0], [h, 0]]},
        "dims-string": {"dims": [2, "x"], "re": werner, "im": zero},
        "dims-negative": {"dims": [-2, -2], "re": werner, "im": zero},
        "dims-float": {"dims": [2.9, 2.1], "re": werner, "im": zero},
        "dims-bool": {"dims": [True, True], "amp": bell},
        "dims-scalar": {"dims": 4, "amp": bell},
        "not-an-object": [werner, zero],
    }


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(_malformed_docs()))
def test_malformed_file_names_the_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_malformed_docs()[name]))
    for argv in (*(["measure", kind] for kind in ("entropy", "concurrence", "eof", "negativity")), ["witness"]):
        code, out, err = run_in_process([*argv, str(path)])
        assert code in (2, 3), (argv, code)
        assert out == "" and err.startswith("error [") and err.count("\n") == 1, (argv, err)
        assert str(path) in err, (argv, err)


def _overflowing_docs():
    """Well-formed files whose arithmetic leaves the float range, with the
    fault each must be refused for: an amplitude whose norm overflows, and
    a matrix whose Hermitian difference does."""
    zero = [[0.0] * 4 for _ in range(4)]
    skew = [[0.25, 1e308, 0, 0], [-1e308, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]
    return {
        "amp-norm-overflow": ({"dims": [2, 2], "amp": [[1e200, 0], [0, 0], [0, 0], [0, 0]]}, "amplitude vector has norm inf"),
        "re-difference-overflow": ({"dims": [2, 2], "re": skew, "im": zero}, "density matrix must be hermitian"),
    }


@pytest.mark.parametrize("name", list(_overflowing_docs()))
def test_overflowing_file_gives_one_error_line(tmp_path, name):
    doc, fault = _overflowing_docs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    for argv in (*(["measure", kind] for kind in ("entropy", "eof", "negativity")), ["witness"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_in_process([*argv, str(path)])
        assert code == 3 and out == "" and caught == [], (argv, code, [str(w.message) for w in caught])
        assert err.startswith("error [NotDensity]") and err.count("\n") == 1 and fault in err, (argv, err)


@pytest.mark.parametrize("name", list(_malformed_docs()))
def test_library_readers_name_the_file(tmp_path, name):
    doc = _malformed_docs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    read = read_state if isinstance(doc, dict) and "amp" in doc else read_matrix
    with pytest.raises(BadParam, match=re.escape(repr(str(path)))):
        read(str(path))


def test_bound_build_out_onto_a_file_names_the_directory(tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    for out_dir in (target, target / "sub"):
        code, out, err = run_in_process(["bound", "build", "--out", str(out_dir)])
        assert code == 3 and out == ""
        assert err.startswith("error [BadParam]") and err.count("\n") == 1 and str(out_dir) in err, err
