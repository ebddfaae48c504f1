import pytest

from tgt import generate_scheme
from tgt.semantics import SchemeParams


@pytest.fixture(scope="session")
def scheme16():
    """Certified n=16, d=3, u=2 scheme with no error budget."""
    scheme, cert, _ = generate_scheme(SchemeParams(n=16, d=3, u=2, e=0, p=0.5), 7)
    return scheme, cert


@pytest.fixture(scope="session")
def scheme16_e1():
    """Certified n=16, d=3, u=2 scheme validated at budget 2 (e=1)."""
    scheme, cert, _ = generate_scheme(SchemeParams(n=16, d=3, u=2, e=1, p=0.65), 11)
    return scheme, cert
