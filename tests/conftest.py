import pytest
from hypothesis import HealthCheck, settings

from ekrlab import _native

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def kernels(monkeypatch):
    """Iterate kernels() to run a test body once per search kernel: "python"
    (verifier._branch_and_bound, the reference), then "native" (the compiled
    kernel, which must build and load).  Each step switches every search;
    the end of the test restores the default."""
    native = _native.kernel()
    assert native is not None, "the native search kernel did not build or load"

    def each():
        for name, lib in (("python", False), ("native", native)):
            monkeypatch.setattr(_native, "_lib", lib)
            yield name
    return each
