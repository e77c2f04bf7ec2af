"""Property test of the CLI contract over hostile argv values.

Every run ends in exit 0 (passed), 1 (runtime error) or 2 (invariant failed),
each with a manifest, or in exit 3 (configuration error); no exception
escapes ``main`` and no traceback reaches stderr.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from schrodeform.cli import main

# nan, +-inf, zero, negative, tiny, large and non-numeric values, put into an
# otherwise ordinary command line one or two flags at a time
_HOSTILE = ["nan", "inf", "-inf", "0", "-2", "1e-300", "1e300", "abc"]
_ORDINARY = {"--grid": "8", "--dt": "0.01", "--t-end": "0.05", "--epsilon": "0.5",
             "--amplitude": "0.1"}
# grids are capped at 32 cells per axis
_GRID = ["nan", "inf", "-inf", "0", "-4", "1e-300", "abc", "3", "32"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["run", "adiabatic", "moser", "converge"]))
    flags = dict(_ORDINARY)
    if command == "adiabatic":
        del flags["--t-end"]            # adiabatic spans the window / epsilon
    hostile = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    for flag in hostile:
        flags[flag] = draw(st.sampled_from(_GRID if flag == "--grid" else _HOSTILE))
    # "--dt=-inf": argparse would read a bare "-inf" as an option
    return [command] + [f"{flag}={value}" for flag, value in sorted(flags.items())]


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_cli_contract_holds_for_hostile_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv + ["--output", str(out)])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        manifest = out / "manifest.json"
        if code in (0, 1, 2):
            assert manifest.exists()
            assert json.loads(manifest.read_text())["passed"] is (code == 0)
