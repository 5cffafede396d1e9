"""Shared fixtures.

Ray is initialised ONCE per pytest session (only when a test actually asks
for it via the ``ray_session`` fixture); the lexicon is likewise built once.

Lexicon choice: ``LEXMAPR_RESOURCES`` if set, else the reference's
``predefined_resources`` tree if present, else the small hand-written test
lexicon in ``tests/data/lexicon``.  The variable is set here, at conftest
import, so that ``build_lexicon()``'s default (``resource_dir()``),
``__ray_entry__`` queries, the CLI and Ray worker processes (which inherit
the driver's environment at ``ray.init``) all read the same set.  Tests that compare against the
reference's own files skip, naming the missing path, where those are absent.
"""

from __future__ import annotations

import os
import sys

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(TESTS_DIR))

REFERENCE_TESTS = "/root/reference/lexmapr/tests"
REFERENCE_RESOURCES = "/root/reference/lexmapr/predefined_resources"
TEST_LEXICON = os.path.join(TESTS_DIR, "data", "lexicon")

if "LEXMAPR_RESOURCES" not in os.environ and not os.path.isdir(REFERENCE_RESOURCES):
    os.environ["LEXMAPR_RESOURCES"] = TEST_LEXICON


def requires_path(*paths: str):
    """Skip marker for a test that reads the reference's own files: it runs
    wherever every path in *paths* exists, and names the missing ones."""
    missing = [p for p in paths if not os.path.exists(p)]
    return pytest.mark.skipif(bool(missing), reason="missing " + ", ".join(missing))


def _lexicon_line() -> str:
    from lexmapr_ray.lexkit.lexicon import _resource_fingerprint, resource_dir

    d = resource_dir()
    if d == TEST_LEXICON:
        source = "test lexicon"
    elif "LEXMAPR_RESOURCES" in os.environ:
        source = "LEXMAPR_RESOURCES"
    else:
        source = "reference"
    return f"lexicon: {source} {d} (fingerprint {_resource_fingerprint(d)})"


def pytest_report_header(config):
    return _lexicon_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header; say it once at the end instead
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_lexicon_line())


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def lexicon():
    from lexmapr_ray.lexkit.lexicon import build_lexicon

    return build_lexicon()


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")
