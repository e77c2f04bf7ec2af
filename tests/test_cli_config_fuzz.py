"""Property test of the CLI contract over hostile config-file values.

The same contract as ``test_cli_fuzz.py``, with the hostile values written
into the JSON config file instead of the command line: every run ends in
exit 0, 1 or 2 with a manifest, or in exit 3; no exception escapes ``main``
and no traceback reaches stderr.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from schrodeform.cli import RunConfig, main

# non-finite, zero, negative, non-numeric, wrongly typed and overflowing
# values, put into an otherwise ordinary 8-cell config one or two keys at a time
_HOSTILE = [math.nan, math.inf, -math.inf, 0, -2, "abc", True, None, [], {},
            ["a"], "1e400"]
_ORDINARY = {"grid": 8, "dt": 0.01, "t_end": 0.05, "epsilon": [0.5],
             "amplitude": 0.1}
# the output directory comes from the command line
_KEYS = sorted(set(RunConfig.DEFAULTS) - {"output"})


@st.composite
def _run(draw):
    command = draw(st.sampled_from(["run", "adiabatic", "moser", "converge"]))
    config = dict(_ORDINARY)
    if command == "adiabatic":
        del config["t_end"]             # adiabatic spans the window / epsilon
    for key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=2,
                             unique=True)):
        config[key] = draw(st.sampled_from(_HOSTILE))
    return command, config


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_run())
def test_cli_contract_holds_for_hostile_config_values(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([command, "--config", str(path), "--output", str(out)])
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert (out / "manifest.json").exists() is (code in (0, 1, 2))
