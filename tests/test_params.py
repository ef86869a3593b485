import math
from fractions import Fraction

import pytest

from toursub.params import FinderParams, ceil_k74


def test_ceil_k74_exact():
    for k in range(0, 40):
        t = ceil_k74(k)
        assert t**4 >= k**7
        if t:
            assert (t - 1) ** 4 < k**7
    assert ceil_k74(2) == 4   # 2^(7/4) = 3.36...
    assert ceil_k74(3) == 7   # 3^(7/4) = 6.83...
    assert ceil_k74(4) == 12  # 4^(7/4) = 11.31...
    assert ceil_k74(16) == 128  # exact power


def test_paper_scale_thresholds_for_k3():
    p = FinderParams(3)
    assert p.paper_faithful
    assert p.min_out_degree == 2 * 9 + 147 * 7
    assert p.peel_threshold == 9 + 12 * 7
    assert p.slack == 7
    assert p.window_width == 7
    assert p.tt3_min_size == 1350
    assert p.aux_threshold == 18


def test_scaling_is_coherent():
    p = FinderParams(3, Fraction(1, 4))
    assert p.min_out_degree == Fraction(1047, 4)
    assert p.peel_threshold == Fraction(93, 4)
    assert p.window_width == 2  # ceil(7/4)
    assert not p.paper_faithful


def test_alpha_solves_the_size_equation():
    p = FinderParams(3, Fraction(1, 8))
    alpha = p.alpha_for(400)
    # size = scale * (2 a k^2 + (20 a + 4) k74)
    assert p.scale * (2 * alpha * 9 + (20 * alpha + 4) * 7) == 400
    assert p.alpha_for(p.balanced_min_size) == 1


def test_deg_floor_monotone_in_alpha():
    p = FinderParams(4, Fraction(1, 2))
    assert p.deg_floor(2) > p.deg_floor(1)


def test_validation():
    with pytest.raises(ValueError):
        FinderParams(0)
    with pytest.raises(ValueError):
        FinderParams(3, Fraction(0))
    p = FinderParams(3, Fraction(1, 2)).rescaled(5)
    assert p.k == 5 and p.scale == Fraction(1, 2)
    assert p.rescaled(5) is p


def test_a_float_scale_reads_as_its_shortest_decimal():
    # The sweep's rule: 0.1 is 1/10, not the binary fraction nearest it.
    assert FinderParams(3, 0.1).scale == Fraction(1, 10)
    assert FinderParams(3, 2).scale == 2


@pytest.mark.parametrize("k", range(1, 9))
def test_integer_ceiling_decides_every_bound_exactly(k):
    # The finders compare integer counts against math.ceil of a bound: for
    # an integer x, x < F iff x < ceil(F), and x >= F iff x >= ceil(F).
    for scale in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 12),
                  Fraction(1, 16), Fraction(1, 96), Fraction(7, 5), Fraction(51, 50)):
        p = FinderParams(k, scale)
        sizes = (p.balanced_min_size, p.balanced_min_size + 1, 3 * p.balanced_min_size + 7)
        bounds = [p.aux_threshold, p.peel_threshold]
        bounds += [p.deg_floor(p.alpha_for(math.ceil(size))) for size in sizes]
        for bound in bounds:
            c = math.ceil(bound)
            for x in range(math.floor(bound) - 2, c + 3):
                assert (x < bound) == (x < c)
                assert (x >= bound) == (x >= c)


@pytest.mark.parametrize("k", range(2, 9))
def test_balanced_floor_is_the_ceiling_of_the_rational_floor(k):
    # balanced_floor and alpha_for work in integers; both must give what the
    # Fraction arithmetic gives, below the alpha = 1 point as well as above.
    for scale in (Fraction(1), Fraction(1, 96), Fraction(1, 12), Fraction(7, 3)):
        p = FinderParams(k, scale)
        edge = math.ceil(p.balanced_min_size)
        sizes = set(range(0, 10**4 + 1, 97)) | {10**4} | set(range(max(0, edge - 3), edge + 4))
        assert any(p.alpha_for(size) < 1 for size in sizes)
        for size in sorted(sizes):
            alpha = (Fraction(size) / p.scale - 4 * p.k74) / (2 * k**2 + 20 * p.k74)
            assert p.alpha_for(size) == alpha
            assert p.balanced_floor(size) == math.ceil(p.deg_floor(p.alpha_for(size)))
