"""The bound entangled family commands print, byte for byte, what they
printed when the files under tests/golden were captured.

Each case runs `cli.main` in-process.  The human footer line and the
structured `tolerances` key are left out: tests/test_tolerances.py and
tests/test_cli.py pin those.  After a deliberate output change, rewrite the
files with `PYTHONPATH=src python tests/test_cli_golden.py`.
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


def _file_label(lab):  # the file names `bound build --out` writes
    return lab.replace("+", "p").replace("-", "m")


COMMANDS = {
    "verify": ("bound", "verify"),
    "verify-quick": ("bound", "verify", "--quick"),
    **{f"unlock-{_file_label(lab)}": ("bound", "unlock", "--state", lab) for lab in LABELS},
    "build": ("bound", "build"),
    "demo": ("hide", "demo", "--trials", "40", "--seed", "7"),
}
CASES = [(name, n, fmt) for n in (4, 6, 8, 10) for fmt in ("human", "structured") for name in COMMANDS]
OUT_NS = (4, 6)


def stdout(name, n, fmt):
    """What the case prints, without the footer or the tolerances."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*COMMANDS[name], "--n", str(n), "--output", fmt]) == 0
    out = buf.getvalue()
    if fmt == "structured":
        doc = json.loads(out)
        del doc["tolerances"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    body, footer = out.rstrip("\n").rsplit("\n", 1)
    assert footer.startswith("[seed ")
    return body + "\n"


def written(n, out):
    """The four files `bound build --n n --out out` writes, by name."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bound", "build", "--n", str(n), "--out", str(out)]) == 0
    return {f"{_file_label(lab)}.json": (Path(out) / f"{_file_label(lab)}.json").read_bytes() for lab in LABELS}


@pytest.mark.parametrize("name,n,fmt", CASES)
def test_family_command_output_is_golden(name, n, fmt):
    assert stdout(name, n, fmt) == (GOLDEN / f"{name}-n{n}-{fmt}.txt").read_text()


@pytest.mark.parametrize("n", OUT_NS)
def test_build_out_files_are_golden(n, tmp_path):
    for fname, data in written(n, tmp_path).items():
        assert data == (GOLDEN / f"build-out-n{n}" / fname).read_bytes(), fname


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / "{}-n{}-{}.txt".format(*case)).write_text(stdout(*case))
    for n in OUT_NS:
        (GOLDEN / f"build-out-n{n}").mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in written(n, tmp).items():
                (GOLDEN / f"build-out-n{n}" / fname).write_bytes(data)
