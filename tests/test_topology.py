import warnings

import pytest

from kphase import (
    GroupSpec,
    InvalidRank,
    MinOrbitInfo,
    NonDivisible,
    PoincarePolynomial,
    RankMismatch,
    ReducibleFactor,
    Series,
    SimpleFactor,
    UnknownGroup,
    betti_validate,
    hirsch_polynomial,
    min_orbit,
    parse_group,
    parse_quotient,
    poincare_quotient,
    weyl_degrees,
)


def test_degrees_classical_series():
    assert weyl_degrees("A3") == [2, 3, 4]
    assert weyl_degrees("B2") == [2, 4]
    assert weyl_degrees("C3") == [2, 4, 6]
    assert weyl_degrees("D4") == [2, 4, 4, 6]
    assert weyl_degrees("D3") == [2, 3, 4]  # same as A3
    assert weyl_degrees("U1") == [1]


def test_degrees_exceptional():
    assert weyl_degrees("G2") == [2, 6]
    assert weyl_degrees("F4") == [2, 6, 8, 12]
    assert weyl_degrees("E6") == [2, 5, 6, 8, 9, 12]
    assert weyl_degrees("E7") == [2, 6, 8, 10, 12, 14, 18]
    assert weyl_degrees("E8") == [2, 8, 12, 14, 18, 20, 24, 30]


def test_degrees_products_concatenate_sorted():
    assert weyl_degrees("A2 x U1") == [1, 2, 3]
    assert weyl_degrees("SU(2)xSU(2)xU(1)") == [1, 2, 2]


def test_parse_classical_names():
    assert parse_group("SU(4)").factors == (SimpleFactor(Series.A, 3),)
    assert parse_group("SO(5)").factors == (SimpleFactor(Series.B, 2),)
    assert parse_group("SO(8)").factors == (SimpleFactor(Series.D, 4),)
    assert parse_group("Sp(3)").factors == (SimpleFactor(Series.C, 3),)
    assert parse_group("SO(2)").factors == (SimpleFactor(Series.U1, 1),)
    assert parse_group("U(1)").factors == (SimpleFactor(Series.U1, 1),)
    # full unitary group splits off its circle factor
    assert parse_group("U(3)").factors == (
        SimpleFactor(Series.A, 2),
        SimpleFactor(Series.U1, 1),
    )


def test_parse_product_separators():
    for text in ("A1xU1", "A1 x U1", "A1*U1", "A1×U1"):
        g = parse_group(text)
        assert g.rank == 2
        assert g.label == "A1 x U1"


def test_parse_quotient_splits_once():
    top, bottom = parse_quotient("G2/A1xU1")
    assert top.factors == (SimpleFactor(Series.G2, 2),)
    assert bottom.rank == 2
    with pytest.raises(UnknownGroup):
        parse_quotient("G2")
    with pytest.raises(UnknownGroup):
        parse_quotient("A/B/C")


def test_parse_rejects_garbage():
    with pytest.raises(UnknownGroup):
        parse_group("Q5")
    with pytest.raises(InvalidRank):
        parse_group("SU(1)")
    with pytest.raises(InvalidRank):
        SimpleFactor(Series.D, 1)
    with pytest.raises(InvalidRank):
        SimpleFactor(Series.G2, 3)


def test_rank_two_d_series_flagged():
    with pytest.warns(UserWarning):
        SimpleFactor(Series.D, 2)
    with pytest.warns(UserWarning):
        parse_group("SO(4)")


def test_rank_two_d_warning_names_the_caller():
    """The D2 warning points at the line that built the factor, not at
    the dataclass's generated ``__init__``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimpleFactor(Series.D, 2)
    [w] = caught
    assert w.filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReducibleFactor, match="reducible"):
            parse_group("D2")


@pytest.mark.parametrize("name", ["SU(4", "SU4)", "U(1", "SO(5", "Sp2)",
                                  "SU((4))", "SU(4)(4)"])
def test_unbalanced_brackets_rejected(name):
    with pytest.raises(UnknownGroup):
        parse_group(name)


def test_balanced_and_bare_names_parse():
    assert parse_group("SU(4)") == parse_group("SU4") == parse_group("A3")
    assert parse_group("Sp(2)") == parse_group("sp2") == parse_group("C2")
    assert parse_group("U(1)").factors == (SimpleFactor(Series.U1, 1),)
    assert parse_group("SO(5)") == parse_group("B2")


def test_hirsch_requires_equal_rank():
    with pytest.raises(RankMismatch):
        hirsch_polynomial([2, 3], [1])


def test_hirsch_rejects_nondivisible():
    with pytest.raises(NonDivisible):
        hirsch_polynomial([2], [3])


def test_hirsch_projective_line():
    p = hirsch_polynomial([2], [1])
    assert p.coefficients == (1, 0, 1)
    assert p.euler_characteristic() == 2


def test_projective_spaces():
    p = poincare_quotient("SU(2)/U(1)")
    assert p.coefficients == (1, 0, 1)
    for n in (2, 3, 5):
        p = poincare_quotient(f"SU({n + 1})/SU({n})xU(1)")
        assert p.coefficients == tuple(
            1 if k % 2 == 0 else 0 for k in range(2 * n + 1)
        )
        assert p.euler_characteristic() == n + 1


def test_full_flag_manifolds():
    p3 = poincare_quotient("SU(3)/U(1)xU(1)")
    assert p3.coefficients == (1, 0, 2, 0, 2, 0, 1)
    p4 = poincare_quotient("SU(4)/U(1)xU(1)xU(1)")
    assert p4.euler_characteristic() == 24  # order of the permutation group


def test_rank_two_orthogonal_quotients():
    sphere_like = poincare_quotient("SO(5)/SO(3)xSO(2)")
    assert sphere_like.coefficients == (1, 0, 1, 0, 1, 0, 1)
    full = poincare_quotient("SO(5)/SO(2)xSO(2)")
    assert full.coefficients == (1, 0, 2, 0, 2, 0, 2, 0, 1)


def test_g2_quotients():
    ten_dim = poincare_quotient("G2/A1xU1")
    assert ten_dim.coefficients == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    full = poincare_quotient("G2/U1xU1")
    assert full.coefficients == (1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 1)
    assert full.euler_characteristic() == 12


def test_complex_grassmannian_two_two():
    p = poincare_quotient("SU(4)/SU(2)xSU(2)xU(1)")
    assert p.coefficients == (1, 0, 1, 0, 2, 0, 1, 0, 1)
    assert str(p) == "1 + t^2 + 2 t^4 + t^6 + t^8"


def test_cayley_plane_style_quotient():
    p = poincare_quotient("F4/C3xSO(2)")
    assert p.degree == 30
    # product form: (1 + t^8) times the truncated geometric series
    ref = [0] * 31
    for k in range(0, 23, 2):
        ref[k] += 1
        ref[k + 8] += 1
    assert p.coefficients == tuple(ref)


def test_betti_validate_good_and_bad():
    good = poincare_quotient("SU(3)/SU(2)xU(1)")
    rep = betti_validate(good)
    assert rep.ok and not rep.violations
    assert rep.euler_characteristic == 3

    bad = PoincarePolynomial((1, 1, 1))
    rep = betti_validate(bad)
    assert not rep.ok
    assert any("odd" in v for v in rep.violations)

    gap = PoincarePolynomial((1, 0, 0, 0, 1))
    rep = betti_validate(gap)
    assert not rep.ok


def test_polynomial_rendering_and_eval():
    p = PoincarePolynomial((1, 0, 2, 0, 1))
    assert str(p) == "1 + 2 t^2 + t^4"
    assert p(1.0) == 4.0
    assert p.degree == 4
    assert PoincarePolynomial((1, 0, 1, 0)).coefficients == (1, 0, 1)


def test_min_orbit_table_rows():
    cases = {
        "A1": (2, "U(1)"),
        "A4": (8, "A3 x U(1)"),
        "B3": (10, "B2 x SO(2)"),
        "C3": (10, "C2 x U(1)"),
        "D4": (12, "D3 x SO(2)"),
        "G2": (10, "A1 x SO(2)"),
        "F4": (30, "C3 x SO(2)"),
        "E6": (32, "D5 x SO(2)"),
        "E7": (54, "E6 x SO(2)"),
        "E8": (114, "E7 x SO(2)"),
    }
    for label, (dim, iso) in cases.items():
        info = min_orbit(label)
        assert info.dimension == dim
        assert info.isotropy == iso


# Dimensions of the compact simple groups and the circle, by series and
# rank, stated apart from the Weyl degrees the module derives them from.
_GROUP_DIMENSION = {
    Series.A: lambda n: n * (n + 2),
    Series.B: lambda n: n * (2 * n + 1),
    Series.C: lambda n: n * (2 * n + 1),
    Series.D: lambda n: n * (2 * n - 1),
    Series.G2: lambda n: 14,
    Series.F4: lambda n: 52,
    Series.E6: lambda n: 78,
    Series.E7: lambda n: 133,
    Series.E8: lambda n: 248,
    Series.U1: lambda n: 1,
}


def _group_dimension(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # D2 is flagged, and still a group
        factors = parse_group(text).factors
    return sum(_GROUP_DIMENSION[f.series](f.rank) for f in factors)


def test_min_orbit_rows_are_dim_g_minus_dim_h():
    """Every row is the orbit G/H of its isotropy, and isomorphic groups
    (A1 = B1, B2 = C2, A3 = D3) share a minimal-orbit dimension."""
    labels = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(1, 7)]
              + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(2, 7)]
              + ["G2", "F4", "E6", "E7", "E8"])
    rows = {}
    for label in labels:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows[label] = min_orbit(label)
        info = rows[label]
        assert info.dimension == (_group_dimension(label)
                                  - _group_dimension(info.isotropy)), label
        assert info.dimension > 0
    for a, b in (("A1", "B1"), ("B2", "C2"), ("A3", "D3")):
        assert rows[a].dimension == rows[b].dimension, (a, b)
    assert (rows["C3"].dimension, rows["D2"].dimension) == (10, 2)
    # D3's row is derived without building the flagged D2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min_orbit("D3") == MinOrbitInfo("D3", 6, "U(3)")


def test_min_orbit_rejects_torus_and_products():
    with pytest.raises(UnknownGroup):
        min_orbit("U1")
    with pytest.raises(UnknownGroup):
        min_orbit("A1xA1")
    with pytest.raises(InvalidRank):
        min_orbit("C1")


def test_min_orbit_accepts_factor_objects():
    info = min_orbit(SimpleFactor(Series.B, 1))
    assert info.dimension == 2
    assert info.isotropy == "SO(2)"
    info = min_orbit(GroupSpec((SimpleFactor(Series.E8, 8),)))
    assert info.dimension == 114
