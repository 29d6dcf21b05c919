"""The python -O harness of optimized.py: its scripts run optimized and
apart from each other, and a failing or hanging script shows."""
import signal
import time

import pytest

from optimized import run, run_optimized


def test_scripts_run_optimized():
    # without -O every "survives optimize" test would pass vacuously
    assert run_optimized("import sys\nprint(sys.flags.optimize, __debug__)"
                         ) == "1 False\n"


def test_patch_stays_in_its_script():
    assert run_optimized("from hexval import valgeom\n"
                         "valgeom._star_rows = None\n"
                         "print(valgeom._star_rows)") == "None\n"
    assert run_optimized("from hexval import valgeom\n"
                         "print(valgeom._star_rows.__name__)"
                         ) == "_star_rows\n"


def test_raising_script_fails_with_traceback():
    rc, out, err = run("print('before')\nraise ValueError('boom')")
    assert (rc, out) == (1, "before\n")
    assert err.startswith("Traceback") and err.endswith("ValueError: boom\n")
    with pytest.raises(AssertionError, match="ValueError: boom"):
        run_optimized("raise ValueError('boom')")


def test_exit_code_passes_through():
    assert run("import sys\nprint('out')\nsys.exit(3)") == (3, "out\n", "")
    assert run("import sys\nsys.exit()") == (0, "", "")


def test_overrunning_script_stopped():
    start = time.monotonic()
    rc, out, err = run("import time\nprint('started')\ntime.sleep(60)",
                       seconds=0.2)
    assert (rc, out) == (-signal.SIGALRM, "started\n")
    assert time.monotonic() - start < 30
