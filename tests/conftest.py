import sys

import pytest

from radcube.rings import build_from_quadrics


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(names, counted=None) -> a dict of call counts.

    Each named radcube function is patched in every radcube module that
    binds it, so no call escapes the count; `counted(args)` restricts the
    count to the calls it returns True for.
    """

    def install(names, counted=None):
        calls = dict.fromkeys(names, 0)
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "radcube"]
        for name in names:
            for mod in mods:
                fn = vars(mod).get(name)
                if fn is None:
                    continue

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    if counted is None or counted(args):
                        calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install


@pytest.fixture(scope="session")
def R1():
    """F5[x,y]/(x^2, y^2): Gorenstein, e=2, complete intersection."""
    return build_from_quadrics(5, ["x", "y"], ["x^2", "y^2"])


@pytest.fixture(scope="session")
def R4():
    """F5[x,y,z]/(x^2, x*y, y^2, z^2): not Gorenstein, e=3, r=2, Soc=m^2."""
    return build_from_quadrics(5, ["x", "y", "z"], ["x^2", "x*y", "y^2", "z^2"])


@pytest.fixture(scope="session")
def RS():
    """F5[x,y]/(x*y, y^2) truncated at degree 3: Soc != m^2, r=2."""
    return build_from_quadrics(5, ["x", "y"], ["x*y", "y^2"])


@pytest.fixture(scope="session")
def R2():
    """F5[x]/(x^3) written as the truncation with no quadric relations."""
    return build_from_quadrics(5, ["x"], [])
