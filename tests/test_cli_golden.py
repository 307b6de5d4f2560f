"""CLI commands print, byte for byte, what they printed when the files
under tests/golden were captured.

Each case runs `cli.main` in-process on a whole argv, in human and in
structured form.  A golden file holds the case's stdout; a case that exits
nonzero or writes to stderr adds a `[exit N; stderr]` line and the stderr
text after it.  The human footer line and the structured `tolerances` key
are left out: tests/test_tolerances.py and tests/test_cli.py pin those.
After a deliberate output change, rewrite the files with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from entanglia.bound_entangled import LABELS
from entanglia.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("human", "structured")


def _file_label(lab):  # the file names `bound build --out` writes
    return lab.replace("+", "p").replace("-", "m")


# the bound entangled family commands, each run at every n in FAMILY_NS
FAMILY = {
    "verify": ("bound", "verify"),
    **{f"unlock-{_file_label(lab)}": ("bound", "unlock", "--state", lab) for lab in LABELS},
    "build": ("bound", "build"),
    "demo": ("hide", "demo", "--trials", "40", "--seed", "7"),
}
FAMILY_NS = (4, 6, 8, 10)
FAMILY_CASES = [(name, n, fmt) for n in FAMILY_NS for fmt in FORMATS for name in FAMILY]
OUT_NS = (4, 6)

# the state and matrix files the measure and witness cases read
INPUTS = {name: str(GOLDEN / "inputs" / f"{name}.json") for name in ("bell", "werner", "horodecki", "nodims")}
PAIR = (".4,.4,.1,.1", ".5,.25,.25,0")  # the paper's catalysis pair

# every other case, as its whole argv
ARGVS = {
    "majorize": ("majorize", ".5,.3,.2", ".6,.3,.1"),
    "majorize-bad": ("majorize", "1,x", ".5,.5"),
    "nielsen": ("nielsen", ".5,.3,.2", ".4,.4,.2"),
    "nielsen-bad": ("nielsen", ".5,.6", ".5,.5"),
    "classify": ("classify", *PAIR),
    "classify-bad": ("classify", "nan,1", ".5,.5"),
    "catalyst-hit": ("catalyst", *PAIR),
    "catalyst-off-grid": ("catalyst", ".4,.4,.1,.1", ".4878,.2622,.25,0"),
    "catalyst-bad": ("catalyst", *PAIR, "--step", "0"),
    "multicopy": ("multicopy", *PAIR, "3"),
    "multicopy-bad": ("multicopy", *PAIR, "100"),
    "assist": ("assist", ".4,.4,.2", ".48,.26,.26"),
    "assist-min": ("assist", ".4,.4,.2", ".48,.26,.26", "--min"),
    "assist-bad": ("assist", ".5,.5", ".5,.5"),
    "coop-a1-below-b1": ("coop", ".5,.3,.2", ".55,.24,.21"),
    "coop-a1-above-b1": ("coop", ".51,.26,.23", ".46,.34,.2"),
    "coop-small-margin": ("coop", ".4641,.4309,.105", ".4643,.39,.1457"),
    "coop-no-plan": ("coop", ".5,.3,.2", ".500000002,.299999996,.200000002"),
    "coop-bad": ("coop", ".5,.3,.2", ".6,.3,.1"),
    "split2-case1": ("split2", ".5,.3,.2", ".55,.24,.21"),
    "split2-case2": ("split2", ".41,.38,.21", ".4,.4,.2"),
    "split2-empty": ("split2", ".713,.236,.051", ".841,.082,.077"),
    **{f"measure-{kind}": ("measure", kind, INPUTS["werner"]) for kind in ("entropy", "concurrence", "eof", "negativity")},
    "measure-entropy-bell": ("measure", "entropy", INPUTS["bell"]),
    "measure-bad": ("measure", "negativity", INPUTS["nodims"]),
    "witness-werner": ("witness", INPUTS["werner"]),
    "witness-horodecki": ("witness", INPUTS["horodecki"]),
    "flip": ("flip", ".6", ".8", ".8", ".6", "1.0"),
    "flip-small-theta": ("flip", ".6", ".8", ".8", ".6", "1e-4"),
    "flip-bad": ("flip", ".6", ".8", ".8", ".6", "4"),
    "antiunitary": ("antiunitary", "0.3", "0.2", "0.1"),
    "angle": ("angle", "0.6", "0.8"),
    "angle-sweep": ("angle", "0.6", "0.8", "--sweep", "4"),
    "angle-bad": ("angle", "0.6", "0.8", "--sweep", "-1"),
    "horodecki": ("bound", "horodecki"),
    "upb": ("bound", "upb", "--trials", "4"),
    "build-bad": ("bound", "build", "--n", "12"),
}
ARGV_CASES = [(name, fmt) for name in ARGVS for fmt in FORMATS]


def output(argv, fmt):
    """What the case prints, without the footer or the tolerances, then its
    exit code and stderr unless it exits 0 and writes nothing there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--output", fmt])
    text = out.getvalue()
    if text.startswith("alpha,beta,"):  # the CSV of `angle --sweep` has neither
        pass
    elif text and fmt == "structured":
        doc = json.loads(text)
        del doc["tolerances"]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif text:
        body, footer = text.rstrip("\n").rsplit("\n", 1)
        assert footer.startswith("[seed ")
        text = body + "\n"
    if code or err.getvalue():
        text += f"[exit {code}; stderr]\n{err.getvalue()}"
    return text


def golden(fname):
    """A golden file's text, byte for byte: the CSV rows of `angle --sweep` end in CR LF."""
    return (GOLDEN / fname).read_bytes().decode()


def family_output(name, n, fmt):
    return output((*FAMILY[name], "--n", str(n)), fmt)


def written(n, out):
    """The four files `bound build --n n --out out` writes, by name."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bound", "build", "--n", str(n), "--out", str(out)]) == 0
    return {f"{_file_label(lab)}.json": (Path(out) / f"{_file_label(lab)}.json").read_bytes() for lab in LABELS}


@pytest.mark.parametrize("name,n,fmt", FAMILY_CASES)
def test_family_command_output_is_golden(name, n, fmt):
    assert family_output(name, n, fmt) == golden(f"{name}-n{n}-{fmt}.txt")


@pytest.mark.parametrize("name,fmt", ARGV_CASES)
def test_command_output_is_golden(name, fmt):
    assert output(ARGVS[name], fmt) == golden(f"{name}-{fmt}.txt")


@pytest.mark.parametrize("n", OUT_NS)
def test_build_out_files_are_golden(n, tmp_path):
    for fname, data in written(n, tmp_path).items():
        assert data == (GOLDEN / f"build-out-n{n}" / fname).read_bytes(), fname


if __name__ == "__main__":
    for name, n, fmt in FAMILY_CASES:
        (GOLDEN / f"{name}-n{n}-{fmt}.txt").write_bytes(family_output(name, n, fmt).encode())
    for name, fmt in ARGV_CASES:
        (GOLDEN / f"{name}-{fmt}.txt").write_bytes(output(ARGVS[name], fmt).encode())
    for n in OUT_NS:
        (GOLDEN / f"build-out-n{n}").mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in written(n, tmp).items():
                (GOLDEN / f"build-out-n{n}" / fname).write_bytes(data)
