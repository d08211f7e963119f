"""Shared fixtures and the end-of-run acceptance summary.

The two full preset pipelines are expensive (tens of seconds each), so
they run once per session and every test that needs their reports or
artifacts shares the same output directory. When a collected test uses
`portfolio_run`, that pipeline starts in a child process as soon as
collection ends, and runs beside the rest of the session on the other
core; the tests that use it run last. `normal_normal_run` runs in this
process. The acceptance summary lists A1-A8 in order.
"""

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []

# the child pipeline alone takes about 20 s; well past that it has hung
_CHILD_TIMEOUT_S = 600
_PORTFOLIO_CHILD = """
import os, pickle, sys
from quantmeu import repro
report = repro.run_portfolio(sys.argv[1])
with open(os.path.join(sys.argv[1], "report.pickle"), "wb") as fh:
    pickle.dump(report, fh)
"""
# the started child: (process, output directory, log path)
_PORTFOLIO = pytest.StashKey()


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def peak_bytes(fn):
    """Peak traced bytes of one call."""
    fn()  # first-call allocations are not the call's own
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _start_portfolio(config):
    import quantmeu

    outdir = Path(tempfile.mkdtemp(prefix="quantmeu-portfolio-full-"))
    log = outdir / "child.log"
    # the child imports the same quantmeu as this process
    src = os.path.dirname(os.path.dirname(quantmeu.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(log, "wb") as fh:
        child = subprocess.Popen([sys.executable, "-c", _PORTFOLIO_CHILD, str(outdir)],
                                 stdin=subprocess.DEVNULL, stdout=fh,
                                 stderr=subprocess.STDOUT, env=env)
    config.stash[_PORTFOLIO] = (child, outdir, log)


def _uses_portfolio(item):
    return "portfolio_run" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(session, config, items):
    # the tests that wait for the child run last, so this process does the
    # rest of the session while the child runs
    items[:] = ([item for item in items if not _uses_portfolio(item)]
                + [item for item in items if _uses_portfolio(item)])


def pytest_collection_finish(session):
    if any(map(_uses_portfolio, session.items)):
        _start_portfolio(session.config)


def pytest_sessionfinish(session, exitstatus):
    if _PORTFOLIO in session.config.stash:
        child, outdir, _ = session.config.stash[_PORTFOLIO]
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(outdir, ignore_errors=True)


@pytest.fixture(scope="session")
def portfolio_run(pytestconfig):
    # started when collection ended (see pytest_collection_finish)
    child, outdir, log = pytestconfig.stash[_PORTFOLIO]
    try:
        code = child.wait(timeout=_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        code = f"no exit within {_CHILD_TIMEOUT_S} s"
    if code != 0:
        pytest.fail(f"repro.run_portfolio child process failed ({code}):\n"
                    f"{log.read_text(errors='replace')[-4000:]}", pytrace=False)
    with open(outdir / "report.pickle", "rb") as fh:
        report = pickle.load(fh)
    return report, outdir


@pytest.fixture(scope="session")
def normal_normal_run(tmp_path_factory):
    from quantmeu import repro

    outdir = tmp_path_factory.mktemp("normal-normal-full")
    report = repro.run_normal_normal(str(outdir))
    return report, outdir


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
