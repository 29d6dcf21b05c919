"""Scripts run under python -O, for the checks that must survive it: one
unbuffered ``python -O`` server (this file) starts on first use with the
suite's path and imports, and runs each script as __main__ in a fork of
itself, so what one script patches never reaches the next."""
import atexit
import functools
import json
import os
import signal
import subprocess
import sys
import tempfile


@functools.cache
def _server():
    proc = subprocess.Popen(
        [sys.executable, "-O", "-u", __file__], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    atexit.register(proc.communicate)  # EOF on its stdin ends the server
    return proc


def run(code, seconds=600):
    """(exit code, stdout, stderr) of code run for at most seconds."""
    print(json.dumps([code, seconds]), file=_server().stdin, flush=True)
    return tuple(json.loads(_server().stdout.readline()))


def run_optimized(code):
    """The stdout of code run under python -O, which must exit 0."""
    rc, out, err = run(code)
    assert rc == 0, err
    return out


if __name__ == "__main__":
    import hexval.cli, test_valgeom  # noqa: F401  loaded once, shared
    for line in sys.stdin:
        out, err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        if not (pid := os.fork()):  # exits with the code python -O -c would
            rc = 1
            try:
                code, seconds = json.loads(line)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                signal.setitimer(signal.ITIMER_REAL, seconds)
                exec(code, {"__name__": "__main__"})
                rc = 0
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:  # -u left nothing to flush; skip the imports' teardown
                os._exit(rc if isinstance(rc, int) else 1)
        rc = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        out.seek(0), err.seek(0)
        print(json.dumps([rc, out.read().decode(), err.read().decode()]))
