"""The numeric layer loads only where it runs.  mpmath and `gammanum` stay out
of a process that imports the package or the CLI, or that runs an exact
subcommand or prior grid; `verify` loads both and an inexact prior bound loads
mpmath.  The package's
numeric exports resolve lazily, each to the `gammanum` object itself.  Set-up
stays light: no step, `verify` included, loads `dataclasses` or `inspect`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammalattice
from gammalattice import density, gammanum

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

NUMERIC = [
    "PrecisionContext", "Residual", "gamma_derivatives", "verify_grid",
    "verify_recovery",
]

# Run in a fresh interpreter: after each step, whether each watched module is
# loaded, and was not already by the interpreter's start-up (a site hook may
# load one).  A step is an import or a `cli.main` argv, with stdout discarded.
_PROBE = """
import contextlib, io, json, sys

startup = set(sys.modules)
watched = json.loads(sys.argv[2])

def loaded():
    return [name in sys.modules and name not in startup for name in watched]

states = []
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        __import__(step)
    else:
        import gammalattice.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(step)
    states.append(loaded())
print(json.dumps(states))
"""


def _loaded_after(steps, watched=("mpmath", "gammalattice.gammanum")):
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(steps), json.dumps(watched)],
        capture_output=True, text=True, timeout=120, check=True, env=ENV,
    )
    return json.loads(done.stdout)


EXACT = [
    "gammalattice",
    "gammalattice.cli",
    ["coeffs", "--family", "plain", "--n", "3", "--m", "1:4"],
    ["matrix", "--family", "plain", "--n", "3", "--indices", "1,2,3",
     "--show", "det"],
    ["density", "--variant", "bivariate", "--N", "2:5", "--M", "1:4",
     "--with-oracle"],
]
VERIFY = ["verify", "--family", "plain", "--n-max", "2", "--m-max", "3",
          "--digits", "30"]


def test_numeric_layer_loads_only_where_it_runs():
    assert _loaded_after(EXACT) == [[False, False]] * len(EXACT)
    assert _loaded_after([VERIFY]) == [[True, True]]
    # N <= 6 clamps to 0 and 25 is a square: an exact prior grid loads neither
    prior = ["density", "--variant", "prior", "--N"]
    assert _loaded_after([[*prior, "1:6"], [*prior, "25"]]) == [[False, False]] * 2
    # sqrt(7) is inexact: the prior bound needs mpmath but not the oracle
    assert _loaded_after([[*prior, "7"]]) == [[True, False]]


def test_setup_loads_no_dataclasses_or_inspect():
    # every record is a NamedTuple: `dataclasses`, which loads `inspect`, and
    # each class it builds would cost about half of the CLI's set-up
    steps = [*EXACT, VERIFY]
    loaded = _loaded_after(steps, ["dataclasses", "inspect"])
    assert loaded == [[False, False]] * len(steps)


def test_numeric_exports_are_the_gammanum_objects(monkeypatch):
    for name in NUMERIC:
        assert getattr(gammalattice, name) is getattr(gammanum, name)
        assert name in dir(gammalattice)
    # resolved at each access, never cached: a wrapper set on gammanum shows
    def wrapped(*args, **kwargs):
        pass

    monkeypatch.setattr(gammanum, "verify_grid", wrapped)
    assert gammalattice.verify_grid is wrapped
    assert "verify_grid" not in vars(gammalattice)

    assert not hasattr(gammalattice, "no_such_name")
    with pytest.raises(AttributeError, match="'gammalattice' has no attribute"):
        gammalattice.no_such_name

    argv = ["coeffs", "--family", "plain", "--n", "2", "--m", "1:3"]
    done = subprocess.run(
        [sys.executable, "-m", "gammalattice.cli", *argv],
        capture_output=True, text=True, timeout=120, env=ENV,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "coeffs"


# Each deleted wrapper and the module it lived in.  Callers read the routes
# the CLI runs directly: one cell of verify_grid and the values of
# verify_recovery; one cell of density_grid, a grid's oracle pairs and one
# prior cell.
DELETED = {
    "verify_identity": gammanum,
    "recover_basis": gammanum,
    "window_bound": density,
    "bivariate_min_sum": density,
    "prior_univariate_bound": density,
}


@pytest.mark.parametrize("name", DELETED)
def test_deleted_wrappers_are_no_exports(name):
    message = f"^module 'gammalattice' has no attribute '{name}'$"
    with pytest.raises(AttributeError, match=message):
        getattr(gammalattice, name)
    assert not hasattr(DELETED[name], name)
