import warnings

import numpy as np
import pytest

# Hypothesis imports libcst to explain a failing property, and libcst's import
# raises a DeprecationWarning that the suite's filterwarnings = ["error"] turns into
# an INTERNALERROR hiding the falsifying example.  Importing it here first, with
# that warning ignored, lets the report print.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

from hypothesis import settings

from polmaj import DiscreteDistribution, GridSpec, discretize_state, lorenz
from polmaj.cli import parse_state_spec

# `--hypothesis-profile thorough` runs every property ten times longer than the
# default 100 examples (CI runs the CSV byte oracle this way)
settings.register_profile("thorough", max_examples=1000)

DEFAULT_GRID = GridSpec(400, 400)
DOUBLED_GRID = GridSpec(800, 800)


class DistCache:
    """Session-wide memo of discretized distributions.

    Keys are CLI state designators ("coherent:n=2", "thermal:nbar=10", ...), so
    every test module talks about states the same way.  Only the default grid is
    cached; other grids are computed on demand and returned uncached to keep the
    footprint bounded.  A cached distribution sorts itself once, so its curve
    costs only LorenzCurve's validation.
    """

    def __init__(self):
        self._dists = {}

    def state(self, spec):
        return parse_state_spec(spec).obj

    def dist(self, spec, grid=DEFAULT_GRID):
        key = (spec, grid)
        if grid is not DEFAULT_GRID:
            return discretize_state(self.state(spec), grid)
        if key not in self._dists:
            self._dists[key] = discretize_state(self.state(spec), grid)
        return self._dists[key]

    def curve(self, spec, grid=DEFAULT_GRID):
        return lorenz(self.dist(spec, grid))


@pytest.fixture(scope="session")
def cache():
    return DistCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def spy_values(monkeypatch):
    """The `values` array handed to each DiscreteDistribution built in the test, before
    its own validation can copy it."""
    given = []
    post_init = DiscreteDistribution.__post_init__

    def spy(self):
        given.append(self.values)
        post_init(self)

    monkeypatch.setattr(DiscreteDistribution, "__post_init__", spy)
    return given
