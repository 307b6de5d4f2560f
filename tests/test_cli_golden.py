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
    "verify-quick": ("bound", "verify", "--quick"),
    **{f"unlock-{_file_label(lab)}": ("bound", "unlock", "--state", lab) for lab in LABELS},
    "build": ("bound", "build"),
    "demo": ("hide", "demo", "--trials", "40", "--seed", "7"),
}
FAMILY_NS = (4, 6, 8, 10)
FAMILY_CASES = [(name, n, fmt) for n in FAMILY_NS for fmt in FORMATS for name in FAMILY]
OUT_NS = (4, 6)

# every other case, as its whole argv
ARGVS = {
    "split2-case1": ("split2", ".5,.3,.2", ".55,.24,.21"),
    "split2-case2": ("split2", ".41,.38,.21", ".4,.4,.2"),
    "split2-empty": ("split2", ".713,.236,.051", ".841,.082,.077"),
}
ARGV_CASES = [(name, fmt) for name in ARGVS for fmt in FORMATS]


def output(argv, fmt):
    """What the case prints, without the footer or the tolerances, then its
    exit code and stderr unless it exits 0 and writes nothing there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--output", fmt])
    text = out.getvalue()
    if text and fmt == "structured":
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


def family_output(name, n, fmt):
    return output((*FAMILY[name], "--n", str(n)), fmt)


def written(n, out):
    """The four files `bound build --n n --out out` writes, by name."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bound", "build", "--n", str(n), "--out", str(out)]) == 0
    return {f"{_file_label(lab)}.json": (Path(out) / f"{_file_label(lab)}.json").read_bytes() for lab in LABELS}


@pytest.mark.parametrize("name,n,fmt", FAMILY_CASES)
def test_family_command_output_is_golden(name, n, fmt):
    assert family_output(name, n, fmt) == (GOLDEN / f"{name}-n{n}-{fmt}.txt").read_text()


@pytest.mark.parametrize("name,fmt", ARGV_CASES)
def test_command_output_is_golden(name, fmt):
    assert output(ARGVS[name], fmt) == (GOLDEN / f"{name}-{fmt}.txt").read_text()


@pytest.mark.parametrize("n", OUT_NS)
def test_build_out_files_are_golden(n, tmp_path):
    for fname, data in written(n, tmp_path).items():
        assert data == (GOLDEN / f"build-out-n{n}" / fname).read_bytes(), fname


if __name__ == "__main__":
    for name, n, fmt in FAMILY_CASES:
        (GOLDEN / f"{name}-n{n}-{fmt}.txt").write_text(family_output(name, n, fmt))
    for name, fmt in ARGV_CASES:
        (GOLDEN / f"{name}-{fmt}.txt").write_text(output(ARGVS[name], fmt))
    for n in OUT_NS:
        (GOLDEN / f"build-out-n{n}").mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in written(n, tmp).items():
                (GOLDEN / f"build-out-n{n}" / fname).write_bytes(data)
