"""Seeded argv fuzz of the bound entangled and hiding subcommands.

Each run is a child process with a timeout, so a hang fails the test
instead of stalling the suite.  Every argv must end in exit 0 (answer),
2 (usage error) or 3 (named precondition), never in a traceback.
"""

import os
import random
import subprocess
import sys

import entanglia

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
