from fractions import Fraction

import pytest

import fracspec as fs
from oracles import ConvolvedMeasure


@pytest.fixture(scope="session")
def scale4():
    return fs.get_system("scale4")


@pytest.fixture(scope="session")
def scale2():
    return fs.get_system("scale2")


@pytest.fixture(scope="session")
def triadic():
    return fs.get_system("triadic")


@pytest.fixture(scope="session")
def scale5half():
    # Hadamard system with the rational scale R = 5/2
    return fs.make_system(Fraction(5, 2), (Fraction(0), Fraction(1, 2)),
                          (Fraction(0), Fraction(1)), "scale5half")


@pytest.fixture(scope="session")
def eiffel2():
    return fs.eiffel_system(2)


@pytest.fixture(scope="session")
def planar():
    return fs.get_system("planar-collapse")


@pytest.fixture(scope="session")
def scale4_2d():
    # scale4 on the first axis of the plane: R = 4 I, B = {0, e1/2}, L = {0, e1}
    h = Fraction(1, 2)
    return fs.make_system([[4, 0], [0, 4]], [(0, 0), (h, 0)], [(0, 0), (1, 0)], "scale4-2d")


@pytest.fixture(scope="session")
def shear_2d():
    # a two-digit shear, R = [[2, 1], [0, 2]], with the digits of scale4_2d
    h = Fraction(1, 2)
    return fs.make_system([[2, 1], [0, 2]], [(0, 0), (h, 0)], [(0, 0), (1, 0)], "shear-2d")


@pytest.fixture(scope="session")
def three_digit():
    # R = 6, B = {0, 1/6, 1/3}, L = {0, 2, 4}: a digit at the centre 1/6, so
    # its real mask table has a zero row, the bracket's constant term
    return fs.make_system(6, [0, Fraction(1, 6), Fraction(1, 3)], [0, 2, 4], "three-digit")


@pytest.fixture(scope="session")
def mu4(scale4):
    return fs.SelfSimilarMeasure(scale4)


@pytest.fixture(scope="session")
def mu2(scale2):
    return fs.SelfSimilarMeasure(scale2)


@pytest.fixture(scope="session")
def mu3(triadic):
    return fs.SelfSimilarMeasure(triadic)


@pytest.fixture(scope="session")
def mu34(mu3, mu4):
    return ConvolvedMeasure(mu3, mu4)


@pytest.fixture(scope="session")
def planar3d():
    # 3-D system whose dual hull is a square in the plane x3 = 0: a hull of
    # dimension 2 in a chart that is not the identity
    h = Fraction(1, 2)
    return fs.make_system([[4, 0, 0], [0, 4, 0], [0, 0, 4]],
                          [(0, 0, 0), (h, 0, 0), (0, h, 0), (h, h, 0)],
                          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], name="planar3d")
