import ctypes
import glob
import os

import numpy
import pytest
from hypothesis import settings

# every property test runs the same examples on every run, with no time limit
# and no example database: each @settings gives only its max_examples
settings.register_profile("hotsim", deadline=None, derandomize=True, database=None)
settings.load_profile("hotsim")


def _openblas_core() -> str:
    """The OpenBLAS kernel numpy's wheel runs on, or ``unknown``."""
    try:
        libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
        (path,) = glob.glob(os.path.join(libs, "libscipy_openblas*.so"))
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (OSError, ValueError, AttributeError):  # another build, platform or layout
        return "unknown"


def pytest_report_header(config):
    # the full-precision self-learning digests hold only on the SkylakeX kernel;
    # the pinned Poisson draws rest on this numpy release's Generator.poisson
    return f"numpy: {numpy.__version__}, openblas core: {_openblas_core()}"


@pytest.fixture
def scenario_file(tmp_path):
    """Write scenario YAML to a temp file and return its path."""
    counter = {"n": 0}

    def write(text: str) -> str:
        counter["n"] += 1
        path = tmp_path / f"scenario{counter['n']}.yaml"
        path.write_text(text)
        return str(path)

    return write
