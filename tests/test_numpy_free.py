"""The short decide subcommands and `bound verify` answer without numpy,
and say what the array path says, byte for byte.

majorize, nielsen, classify and multicopy run inline vectors of at most
_SHORT entries on the pair core, which imports no numpy; the input alone
sends them to numpy.  `bound verify` decides the family on its class
values (family_classes), without numpy too.  Child processes show which
inputs load numpy, and every output is checked against an in-process run,
a golden file or the array path's own report: the library on numpy arrays,
with np.cumsum partial sums, printed by the same emit.  The package imports each export on first
access, so a bare `import entanglia` loads no numpy either.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import entanglia
from entanglia import cli
from entanglia.errors import EntangliaError
from entanglia.locc import classify, multicopy, nielsen
from entanglia.majorization import compare, sorted_padded
from entanglia.pairs import _SHORT
from entanglia.tolerances import NOISE_TOL, TRACE_TOL

SRC = os.path.dirname(os.path.dirname(entanglia.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))

# `python -m entanglia.cli ARGV`, then whether numpy was loaded, as the last
# bytes of stderr
CHILD = """
import runpy, sys
try:
    runpy.run_module("entanglia.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
sys.stdout.flush()
sys.stderr.write(f"[exit {code}; numpy loaded {'numpy' in sys.modules}]")
"""


def child(*argv):
    """stdout, stderr, exit code and whether numpy was loaded, of the CLI
    in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=ENV, capture_output=True, text=True, timeout=60
    )
    err, _, marker = done.stderr.rpartition("[exit ")
    code, loaded = marker.removesuffix("]").split("; numpy loaded ")
    return done.stdout, err, int(code), loaded == "True"


def in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), code


def inline(v):
    return ",".join(map(repr, v))


SHORT_PAIR = (".5,.3,.2", ".6,.25,.15")
FULL = inline([1 / _SHORT] * _SHORT)  # _SHORT entries: the longest short vector
LONG = inline([1 / (_SHORT + 1)] * (_SHORT + 1))
TENTH = inline([0.1] * 10)

COMMANDS = ("majorize", "nielsen", "classify", "multicopy")
# argv after the command name (and k = 2 for multicopy), and the commands
# that answer it without numpy
CASES = {
    "d3": (SHORT_PAIR, COMMANDS),
    "d32": ((FULL, ".5,.5"), COMMANDS),
    "negative": (("-0.1,1.1", ".5,.5"), COMMANDS),  # below -NOISE_TOL: the pair core raises
    "clamp": (("1,-1e-13", ".5,.5"), COMMANDS),  # in [-NOISE_TOL, 0): clamped to 0
    # compare's pair core raises; a failed probability total prints numpy's sum
    "totals-differ": ((".5,.5", ".5,.6"), ("majorize", "classify")),
    # a total 1e-16 from 1 + TRACE_TOL: fsum cannot tell the side numpy's sum is on
    "near-trace-tol": (("0.5,0.500000001", "0.500000001,0.5"), ("majorize",)),
    "d33": ((LONG, ".5,.5"), ()),
    "nan": (("nan,1", ".5,.5"), ()),
    "overflow": (("1e308,1e308", ".5,.5"), ()),
    "minus-zero": ((".5,.5,-0.0", ".5,.5"), ()),
}


def argv_of(command, pair, k="2"):
    return (command, *pair, k) if command == "multicopy" else (command, *pair)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_short_inputs_import_no_numpy(command, case):
    """Structured output, where every float prints in full; human output
    is printed from the same document."""
    pair, numpy_free = CASES[case]
    argv = (*argv_of(command, pair), "--output", "structured")
    out, err, code, loaded = child(*argv)
    assert loaded is (command not in numpy_free)
    assert (out, err, code) == in_process(*argv)


@pytest.mark.parametrize("k, numpy_free", [("5", True), ("6", False)])
def test_a_long_multicopy_power_runs_on_numpy(k, numpy_free):
    """10^5 entries are formed as Python floats, 10^6 on numpy."""
    argv = ("multicopy", TENTH, "1", k, "--output", "structured")
    out, err, code, loaded = child(*argv)
    assert loaded is not numpy_free
    assert (out, err, code) == in_process(*argv) and json.loads(out)["convertible"] is True


def test_a_vector_file_runs_on_numpy(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("[0.5, 0.3, 0.2]")
    argv = ("classify", str(path), SHORT_PAIR[1], "--output", "structured")
    out, err, code, loaded = child(*argv)
    assert loaded and (out, err, code) == in_process(*argv)
    assert out == in_process("classify", *SHORT_PAIR, "--output", "structured")[0]


def test_a_bare_import_loads_no_numpy():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, entanglia; print('numpy' in sys.modules)"],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout == "False\n" and done.stderr == ""


def test_a_submodule_is_an_attribute_after_a_bare_import():
    script = "import entanglia; print(entanglia.hiding.run_demo(4, 5, seed=3)['unlock_rate'])"
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=60)
    assert done.stdout == "1.0\n" and done.stderr == ""


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_form(out, fmt):
    """stdout as tests/golden holds it: without the human footer line or
    the structured `tolerances` key."""
    if fmt == "structured":
        doc = json.loads(out)
        del doc["tolerances"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    body, footer = out.rstrip("\n").rsplit("\n", 1)
    assert footer.startswith("[seed ")
    return body + "\n"


@pytest.mark.parametrize("fmt", ("human", "structured"))
@pytest.mark.parametrize("quick", (False, True))
@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_bound_verify_imports_no_numpy(n, quick, fmt):
    """`bound verify` decides the family on its class values: numpy is
    never loaded, and the report is the golden file's, byte for byte.  The
    removed `--quick` flag is a usage error, raised before numpy loads."""
    argv = ("bound", "verify", "--n", str(n), *(("--quick",) if quick else ()), "--output", fmt)
    out, err, code, loaded = child(*argv)
    if quick:
        assert (out, code, loaded) == ("", 2, False)
        assert err.endswith("error: unrecognized arguments: --quick\n"), err
        return
    assert (err, code, loaded) == ("", 0, False)
    assert out == in_process(*argv)[0]
    assert golden_form(out, fmt) == (GOLDEN / f"verify-n{n}-{fmt}.txt").read_text()


@pytest.mark.parametrize("argv", (("bound", "unlock", "--state", "sigma-"), ("bound", "build")))
def test_bound_unlock_and_build_answer_on_numpy(argv):
    argv = (*argv, "--n", "6", "--output", "structured")
    out, err, code, loaded = child(*argv)
    assert loaded and (out, err, code) == in_process(*argv)


# the package's exports, by defining module
EXPORTS = {
    "bound_entangled": "BEFamily FamilyReport be_family be_family_direct horodecki_insep horodecki_state "
    "tiles_upb unlock upb_complement upb_unextendibility_score verify_family",
    "gadgets": "GadgetResult angle_preserving_gadget antiunitary_gadget coplanarity_gap flip_gadget",
    "hiding": "CODEBOOK HiddenState decode_by_unlock decode_global hide parity_attack run_demo "
    "string_distribution trace_security",
    "linalg": "EigResult cardan_roots eig_hermitian eigvals_hermitian kron partial_trace partial_transpose "
    "permute_subsystems projector psd_sqrt read_matrix trace_norm write_matrix",
    "locc": "AssistPlan CatalystSearch CoopPlan PairClass SplitRange assist_max_entangled catalyst_search "
    "classify coop_construct coop_validate find_catalyst_2x2 min_assist_3x3 multicopy nielsen "
    "split_two_copies vec_kron",
    "majorization": "MajVerdict compare ds_witness ensemble_exists is_doubly_stochastic majorizes "
    "spectra_majorized",
    "measures": "binary_entropy concurrence_2q concurrence_pure entanglement_entropy eof_2q log_negativity "
    "negativity shannon von_neumann_entropy",
    "states": "bell random_pure read_state schmidt_vector werner write_state",
    "witness": "WitnessReport chsh_M distillable_rank2 is_ppt max_entangled_fraction reduction_check "
    "witness_report",
}


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_resolves_and_is_listed(module):
    home = __import__(f"entanglia.{module}", fromlist=["_"])
    listed = dir(entanglia)
    for name in EXPORTS[module].split():
        assert getattr(entanglia, name) is getattr(home, name)
        assert name in listed and name in entanglia.__all__
        exec(f"from entanglia import {name}", {})
    assert module in listed and getattr(entanglia, module) is home


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'entanglia' has no attribute 'no_such_name'"):
        entanglia.no_such_name
    with pytest.raises(ImportError):
        exec("from entanglia import no_such_name", {})


# ---------------------------------------------------------------------------
# the array path's report, from the library on numpy arrays


def array_report(command, a, b, k):
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def sums(names=("source", "target")):
        xs, ys = sorted_padded(x, y)
        return {f"{names[0]}_partial_sums": np.cumsum(xs), f"{names[1]}_partial_sums": np.cumsum(ys)}

    if command == "majorize":
        return {"verdict": compare(x, y), **sums(("x", "y"))}
    if command == "nielsen":
        return {"convertible": nielsen(x, y), **sums()}
    if command == "classify":
        pc = classify(x, y)
        return {
            "verdict": pc.verdict,
            "pattern_3x3": pc.pattern_3x3,
            "strong": pc.strong,
            "catalysis_possible": pc.catalysis_possible,
            **sums(),
        }
    return {"k": k, "convertible": multicopy(x, y, k)}


def array_output(command, a, b, k, fmt):
    """What the array path prints: stdout, stderr and the exit code."""
    try:
        report = array_report(command, a, b, k)
    except EntangliaError as exc:
        return "", f"error [{type(exc).__name__}]: {exc}\n", 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(report, argparse.Namespace(output=fmt, seed=0))
    return out.getvalue(), "", 0


@pytest.fixture
def array_path_runs(monkeypatch):
    """The vector arguments parsed on numpy, by parse_vector."""
    runs = []
    parse = cli.parse_vector

    def counted(text):
        runs.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_vector", counted)
    return runs


SIGNED_ZERO_PAIRS = [
    (order, other)
    for rest in (("1",), ("-1",), ())
    for order in map(",".join, itertools.permutations(("0.0", "-0.0", *rest)))
    for other in (".5,.5", "1", "-1", "0")
]


@pytest.mark.parametrize("fmt", ("human", "structured"))
@pytest.mark.parametrize("command", ("majorize", "nielsen", "classify"))
def test_signed_zeros_print_what_the_array_path_prints(command, fmt, array_path_runs):
    """np.sort and Python's sort order 0.0 and -0.0 differently, so a
    vector holding -0.0 runs on numpy, and its first partial sum keeps its
    sign.  Each order of 0.0 and -0.0, beside 1, -1 or no other entry, as
    either argument."""
    for zeros, other in SIGNED_ZERO_PAIRS:
        for a, b in ((zeros, other), (other, zeros)):
            want = array_output(command, cli._floats(a), cli._floats(b), None, fmt)
            assert in_process(command, a, b, "--output", fmt) == want, (a, b)
    assert len(array_path_runs) == 2 * 2 * len(SIGNED_ZERO_PAIRS)
    if command == "majorize":  # the sign shows: numpy sorts -0.0 above 0.0 here, Python below
        out, _, _ = in_process(command, "0.0,-0.0,-1", "-1", "--output", fmt)
        assert "x_partial_sums" + ('":[-0.0,0.0,-1.0]' if fmt == "structured" else ": [-0, 0, -1]") in out


def ulps_from(target, prefix, j):
    """prefix plus a last entry that brings the fsum total to target, moved
    by j ulps."""
    last = target - math.fsum(prefix)
    for _ in range(abs(j)):
        last = math.nextafter(last, math.copysign(math.inf, j))
    return [*prefix, last]


def corpus(seed):
    """Short pairs: valid ones of unequal lengths, ones with entries in
    [-NOISE_TOL, 0) and one just below it, totals within a few ulps of
    1 +- TRACE_TOL, equal pairs and 3x3 pairs.  The second field says
    whether the pair core must answer the pair."""
    rng = random.Random(seed)

    def prob(d):
        w = [rng.random() for _ in range(d)]
        t = sum(w)
        return [x / t for x in w]

    pairs = []
    for _ in range(15):
        a, b = prob(rng.randint(1, _SHORT)), prob(rng.randint(1, _SHORT))
        pairs.append((a, b, True))
        pairs.append((sorted(b), b, True))  # Equal
        p = prob(3)
        pairs.append((p, prob(3), True))
        noisy = [*a[:-1], a[-1] + 5e-13, -rng.uniform(0.0, NOISE_TOL)]
        rng.shuffle(noisy)
        pairs.append((noisy, b, False))
        pairs.append((b, noisy, False))
        pairs.append(([*a, -NOISE_TOL * (1 + 1e-3)], b, False))
        for sign in (1, -1):
            near = ulps_from(1.0 + sign * TRACE_TOL, prob(rng.randint(2, _SHORT - 1))[:-1], rng.randint(-3, 3))
            pairs.append((near, b, False))
            pairs.append((b, near, False))
    return pairs


@pytest.mark.parametrize("seed", (1, 2))
def test_corpus_prints_what_the_array_path_prints(seed, array_path_runs):
    rng = random.Random(seed)
    for a, b, numpy_free in corpus(seed):
        for command in COMMANDS:
            k = rng.choice((1, 2, 3)) if max(len(a), len(b)) <= 10 else 1
            argv = argv_of(command, (inline(a), inline(b)), str(k))
            del array_path_runs[:]
            got = in_process(*argv, "--output", "structured")
            assert got == array_output(command, a, b, k, "structured"), argv
            assert not (numpy_free and array_path_runs), argv


def test_python_floats_print_as_numpy_floats_do():
    """The pair core's messages format Python floats where numpy's format
    np.float64 values: both print the shortest repr, with the same
    exponent thresholds.  Random bit patterns, and values around them."""
    rng = random.Random(3)
    values = [0.0, -0.0, 1e16, 9999999999999998.0, 1e-4, 1e-5, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    words = np.array([rng.getrandbits(64) for _ in range(20000)], dtype=np.uint64)
    values += [x for x in words.view(np.float64).tolist() if math.isfinite(x)]
    values += [rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-20, 20) for _ in range(20000)]
    assert [f"{x}" for x in values] == [f"{x}" for x in np.array(values)]
