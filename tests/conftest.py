import pytest

from semicat import zoo
from semicat.ehresmann import derive_structure
from semicat.reptheory import reg_e
from semicat.semigroups import idempotents, subsemigroup


@pytest.fixture(scope="session")
def pt2():
    return zoo.pt_n(2)


@pytest.fixture(scope="session")
def pt3():
    return zoo.pt_n(3)


@pytest.fixture(scope="session")
def b2():
    return zoo.b_n(2)


@pytest.fixture(scope="session")
def six():
    return zoo.six_element_example()


@pytest.fixture(scope="session")
def ssl():
    return zoo.parse_zoo_spec("ssl:chain2:z2,z3")


@pytest.fixture(scope="session")
def op3():
    return zoo.order_preserving_pt(3)


@pytest.fixture(scope="session")
def i2(pt2):
    """The symmetric inverse monoid on 2 points, as Reg_E(PT_2)."""
    sub = subsemigroup(pt2.S, reg_e(pt2).elements)
    return derive_structure(sub, sorted(idempotents(sub)))


@pytest.fixture(scope="session")
def zoo_members(pt2, pt3, b2, six, ssl, op3, i2):
    """Every structure the test suite treats as 'the zoo'."""
    return {
        "pt:2": pt2,
        "pt:3": pt3,
        "b:2": b2,
        "six": six,
        "ssl:chain2:z2,z3": ssl,
        "op:3": op3,
        "i2": i2,
        "z:2": zoo.monoid_as_trivial_e(zoo.cyclic_group(2)),
        "z:3": zoo.monoid_as_trivial_e(zoo.cyclic_group(3)),
    }
