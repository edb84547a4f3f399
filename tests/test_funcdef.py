import numpy as np
import pytest

from starfn.funcdef import (
    MeroFunction,
    MultiPoly,
    NormalizationError,
    ParseError,
    function_to_text,
    linear_form,
    load_function,
    parse_function,
    parse_poly,
    poly_to_text,
)


def test_parse_simple_product():
    p = parse_poly("1 - z1*z2", 2)
    assert p.terms == {(0, 0): 1 + 0j, (1, 1): -1 + 0j}


def test_parse_powers_and_signs():
    p = parse_poly("(1 + (z1 + 2*z2)^2) - 3", 2)
    # (z1+2z2)^2 = z1^2 + 4 z1 z2 + 4 z2^2, constants: 1 - 3 = -2
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 4
    assert p.coefficient((0, 2)) == 4
    assert p.constant_term() == -2


def test_parse_complex_coefficients():
    p = parse_poly("2 + 3*i + (1 - i)*z1", 1)
    assert p.constant_term() == 2 + 3j
    assert p.coefficient((1,)) == 1 - 1j


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("1 + @", 1)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("z3", 2)  # index beyond n
    with pytest.raises(ParseError):
        parse_poly("z1 ^ 2.5", 1)  # fractional exponent
    with pytest.raises(ParseError):
        parse_poly("(z1", 1)  # unbalanced


def test_parse_function_normalizes_negative_constant_terms():
    f = parse_function("(z1-1)/(z2-1)", 2)
    assert f.numerator.terms == {(0, 0): 1 + 0j, (1, 0): -1 + 0j}
    assert f.denominator.terms == {(0, 0): 1 + 0j, (0, 1): -1 + 0j}
    assert f.eval((0, 0)) == 1


def test_parse_function_constant_and_default_denominator():
    f = parse_function("1", 3)
    assert f.numerator == MultiPoly.constant(3, 1)
    assert f.denominator == MultiPoly.constant(3, 1)
    g = parse_function("1 - z1*z2", 2)
    assert g.denominator == MultiPoly.constant(2, 1)


def test_parse_function_rejects_zero_constant():
    with pytest.raises(NormalizationError):
        parse_function("z1", 1)
    with pytest.raises(NormalizationError):
        parse_function("1/(z1)", 1)


def test_parse_function_rejects_double_slash():
    with pytest.raises(ParseError):
        parse_function("1/(z1-1)/(z2-1)", 2)


def test_eval_poly_examples():
    p = parse_poly("1 - z1*z2", 2)
    assert p.eval((1, 1)) == 0
    q = parse_poly("1 + z1 + 2*z2", 2)
    assert q.eval((1, 0)) == 2
    r = parse_poly("(1 + (z1 + 2*z2)*0.5)^2", 2)
    # (1 + (1 + 4)/2)^2 = 3.5^2 = 12.25
    assert r.eval((1, 2)) == pytest.approx(12.25, abs=1e-14)


def test_eval_poly_dimension_mismatch():
    p = parse_poly("z1", 2)
    with pytest.raises(ValueError):
        p.eval((1,))


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        terms = {}
        for _ in range(rng.integers(1, 7)):
            exp = tuple(int(e) for e in rng.integers(0, 3, size=2))
            kind = rng.integers(0, 3)
            if kind == 0:
                c = complex(rng.normal(), 0)
            elif kind == 1:
                c = complex(0, rng.normal())
            else:
                c = complex(rng.normal(), rng.normal())
            terms[exp] = c
        p = MultiPoly(2, terms)
        text = poly_to_text(p)
        assert parse_poly(text, 2) == p, text


def test_function_round_trip():
    f = parse_function("(1 - z1 + (2 + 3*i)*z1*z2)/(1 + 0.5*z2^2)", 2)
    g = parse_function(function_to_text(f), 2)
    assert g.numerator == f.numerator and g.denominator == f.denominator


def test_normalization_scales_both_sides():
    f = parse_function("(2 - 2*z1)/(4 + 4*z2)", 2)
    assert f.numerator.constant_term() == 1
    assert f.denominator.constant_term() == 1
    # F itself changed only by the forced F(0)=1 normalization (factor 2)
    z = (0.3 + 0.1j, -0.2 + 0.4j)
    raw = (2 - 2 * z[0]) / (4 + 4 * z[1])
    assert f.eval(z) == pytest.approx(2 * raw, rel=1e-15)


def test_mero_function_requires_unit_constant_terms():
    # every slice g(z) = G(z*zeta), h(z) = H(z*zeta) then has g(0) = h(0) = 1
    one, raw = MultiPoly.constant(2, 1), parse_poly("2 + z1", 2)
    for G, H in ((raw, one), (one, raw), (parse_poly("z1", 2), one)):
        with pytest.raises(ValueError, match=r"requires G\(0\) = H\(0\) = 1"):
            MeroFunction(G, H, 2)
    assert MeroFunction(one, one, 2) == MeroFunction.one(2)


def test_multipoly_rejects_bad_terms():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(0, 0): float("nan")})
    with pytest.raises(ValueError):
        MultiPoly(0)


def test_multipoly_is_immutable():
    p = parse_poly("1 + z1", 1)
    with pytest.raises(AttributeError):
        p.n = 3
    t = p.terms
    t[(0,)] = 5.0  # mutating the copy must not touch the polynomial
    assert p.constant_term() == 1


def test_degree_and_zero():
    assert MultiPoly.zero(2).degree() == 0
    assert MultiPoly.constant(2, 1).degree() == 0
    assert parse_poly("1 + z1^3*z2", 2).degree() == 4


def test_linear_form():
    lf = linear_form((1, 2j), 2)
    assert lf == parse_poly("z1 + 2*i*z2", 2)
    assert lf.eval((3, 1)) == 3 + 2j


def test_pow_matches_repeated_multiplication():
    p = parse_poly("1 + z1 - z2", 2)
    q = MultiPoly.constant(2, 1)
    for _ in range(5):
        q = q * p
    assert p ** 5 == q
    assert p ** 0 == MultiPoly.constant(2, 1)


def test_load_function_from_dict_and_file(tmp_path):
    f = load_function({"n": 2, "numerator": "1 - z1*z2"})
    assert f.denominator == MultiPoly.constant(2, 1)
    path = tmp_path / "fn.json"
    path.write_text('{"n": 2, "numerator": "z1 - 1", "denominator": "z2 - 1"}')
    g = load_function(path)
    assert g.numerator == parse_poly("1 - z1", 2)
    assert g.denominator == parse_poly("1 - z2", 2)


def test_scientific_notation_round_trip():
    p = MultiPoly(1, {(0,): 1 + 0j, (1,): 1e-17 + 0j})
    assert parse_poly(poly_to_text(p), 1) == p
