from fractions import Fraction

import pytest

from formchains.liealg import (
    LieAlgebraSpec,
    catalog,
    jacobi_residual,
    parse_structure_constants,
    validate,
)

ALL_CATALOG = ["abelian(1)", "abelian(2)", "abelian(3)", "abelian(4)",
               "dim2", "so3", "sl2r", "d2(1)", "d2(-1)", "d2(2/3)", "d1n", "d1y"]


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_catalog_entries_satisfy_jacobi(name):
    report = validate(catalog(name))
    assert report.ok, report.summary()
    assert report.first_violation is None


def test_validate_reports_first_violation():
    # [xi1,xi2] = xi1 and [xi1,xi3] = xi2 break Jacobi:
    # [[xi1,xi2],xi3] + [[xi2,xi3],xi1] + [[xi3,xi1],xi2] = [xi1,xi3] = xi2
    bad = LieAlgebraSpec(3, {(1, 2, 1): 1, (1, 3, 2): 1})
    report = validate(bad)
    assert not report.ok
    assert report.first_violation == (1, 2, 3, 2)
    assert report.residual == 1
    assert report.violations == 1
    assert report.checked == 3  # one (i,j,k) triple, l = 1..3
    assert "FAILED" in report.summary()
    # validate never raises; the residual helper agrees
    assert jacobi_residual(bad, 1, 2, 3, 2) == 1
    assert jacobi_residual(bad, 1, 2, 3, 1) == 0


def test_antisymmetric_lookup():
    g = catalog("so3")
    assert g.structure_constant(1, 2, 3) == 2
    assert g.structure_constant(2, 1, 3) == -2
    assert g.structure_constant(2, 2, 1) == 0
    assert g.bracket(2, 3) == {1: 2}
    assert g.bracket(3, 2) == {1: -2}
    assert g.bracket(1, 1) == {}


def test_catalog_d2_parameter():
    g = catalog("d2(2/3)")
    assert g.structure_constant(2, 3, 2) == Fraction(4, 3)
    assert g.structure_constant(1, 3, 1) == 2
    with pytest.raises(ValueError):
        catalog("d2(0)")
    with pytest.raises(ValueError):
        catalog("d2(x)")


def test_catalog_aliases_and_unknown():
    assert catalog("d3").name == "so3"
    assert catalog("d2y").name == "d2(-1)"
    assert catalog("d2n").name == "d2(1)"
    with pytest.raises(ValueError):
        catalog("e8")
    with pytest.raises(ValueError):
        catalog("abelian(0)")


def test_rescale():
    g = catalog("sl2r").rescale(Fraction(-1, 5))
    assert g.structure_constant(2, 3, 1) == Fraction(2, 5)
    assert validate(g).ok
    assert g.n == 3


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(0, 1, 1): 1})
    with pytest.raises(ValueError):
        LieAlgebraSpec(2, {(1, 1, 2): 1})
    with pytest.raises(ValueError):
        LieAlgebraSpec(0)


def test_parse_structure_constants():
    text = """
    # so3-like input, mixed orderings and fractions
    1 2 3 2
    2 3 1 4/2
    3 1 2 2   # trailing comment
    """
    g = parse_structure_constants(text)
    assert g.n == 3
    assert g.structure_constant(1, 3, 2) == -2  # normalized from the 3 1 2 line
    assert validate(g).ok
    # exact rationals: int when integral, Fraction otherwise
    for text, value in (("1 2 3 4/2", 2), ("1 2 3 1/3", Fraction(1, 3))):
        g = parse_structure_constants(text)
        c, back = g.structure_constant(1, 2, 3), g.structure_constant(2, 1, 3)
        assert (c, back) == (value, -value), text
        assert type(c) is type(back) is type(value), text


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_structure_constants("")  # nothing to infer n from
    with pytest.raises(ValueError):
        parse_structure_constants("1 2 3\n")
    with pytest.raises(ValueError):
        parse_structure_constants("1 2 3 one\n")
    with pytest.raises(ValueError):
        parse_structure_constants("1 2 3 1/0\n")
    with pytest.raises(ValueError):
        parse_structure_constants("1 1 2 1\n")
    # same constant twice, even across orderings, is an error
    with pytest.raises(ValueError):
        parse_structure_constants("1 2 3 1\n2 1 3 -1\n")


@pytest.mark.parametrize("text, message", [
    ("1 2 3 1\n0 1 2 1\n", "line 2: index 0 outside 1..3"),
    # n is at least 1 even when no index is
    ("0 0 0 1\n", "line 1: index 0 outside 1..1"),
    ("# c\n\n-1 0 -2 3\n", "line 3: index -1 outside 1..1"),
    ("1 2 3 1\n2 2 1 1\n",
     "line 2: diagonal bracket [xi_2, xi_2] cannot carry a constant"),
    # a repeat is a duplicate whatever the values and their order
    ("1 2 3 0\n1 2 3 5\n", "line 2: duplicate structure constant for (1, 2, 3)"),
    ("1 2 3 5\n1 2 3 0\n", "line 2: duplicate structure constant for (1, 2, 3)"),
    ("\n1 2 3 1\n# c\n2 1 3 -1\n",
     "line 4: duplicate structure constant for (1, 2, 3)"),
], ids=["index", "no-positive-index", "negative-index", "diagonal",
        "duplicate-zero-first", "duplicate-zero-last", "duplicate-swapped"])
def test_constant_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as exc:
        parse_structure_constants(text)
    assert str(exc.value) == message


def test_constructor_counts_a_zero_constant_as_given():
    with pytest.raises(ValueError, match=r"^duplicate structure constant for \(1, 2, 3\)$"):
        LieAlgebraSpec(3, [((1, 2, 3), 0), ((2, 1, 3), 5)])


def test_parse_is_the_validate_example():
    # the two-line file used to demonstrate a Jacobi failure end to end
    g = parse_structure_constants("1 2 1 1\n1 3 2 1\n")
    report = validate(g)
    assert not report.ok
    assert report.first_violation == (1, 2, 3, 2)
