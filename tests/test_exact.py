"""Exact proofs, in sympy, of the inequalities the closed forms rest on.

Lemma 1, behind the optimal assignment (4, 6, 1, 5) of a fixed spectrum:
for a, b, c >= 0, with S = sqrt((a + b)^2 + (b + c)^2) and
R = sqrt(b^2 + c^2),

    (1) a + S >= sqrt(b^2 + (a + b + c)^2),
    (2) sqrt((a + b)^2 + (a + c)^2) >= R + a,
    (3) R + a >= sqrt((a + b)^2 + c^2).

Each square root is a nonnegative symbol whose square is its radicand.  For
each inequality, lhs^2 - rhs^2 expands to a polynomial in a and t = X - Y with
nonnegative coefficients, where X >= Y because X^2 - Y^2 is a polynomial in
a, b, c with nonnegative coefficients and both X and Y are nonnegative.  Both
sides of the inequality are nonnegative, so lhs^2 >= rhs^2 gives lhs >= rhs.
"""

import pytest
import sympy

a, b, c, t = sympy.symbols("a b c t", nonnegative=True)
S, R = sympy.symbols("S R", nonnegative=True)
RADICANDS = {S**2: (a + b) ** 2 + (b + c) ** 2, R**2: b**2 + c**2}

# (lhs, rhs, lhs^2 - rhs^2 as a polynomial in a and t, X, Y) with t = X - Y.
LEMMA1 = {
    1: (a + S, sympy.sqrt(b**2 + (a + b + c) ** 2), a * (a + 2 * t), S, c),
    2: (sympy.sqrt((a + b) ** 2 + (a + c) ** 2), R + a, a * (a + 2 * t), b + c, R),
    3: (R + a, sympy.sqrt((a + b) ** 2 + c**2), 2 * a * t, R, b),
}


def reduced(expr):
    """expr expanded, with S^2 and R^2 replaced by their radicands."""
    return sympy.expand(sympy.expand(expr).subs(RADICANDS))


def has_nonnegative_coefficients(expr, *symbols):
    """Whether expr is a polynomial in `symbols` whose coefficients are all
    nonnegative numbers, so that it is nonnegative where they are."""
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    return all(coeff.is_number and coeff >= 0 for coeff in poly.coeffs())


def proof_failures(lhs, rhs, product, X, Y):
    """The steps of the proof of lhs >= rhs that do not hold, by name."""
    steps = {
        "lhs^2 - rhs^2 equals the product at t = X - Y":
            reduced(lhs**2 - rhs**2 - product.subs(t, X - Y)) == 0,
        "the product has nonnegative coefficients in a, t":
            has_nonnegative_coefficients(product, a, t),
        "X^2 - Y^2 has nonnegative coefficients in a, b, c":
            has_nonnegative_coefficients(reduced(X**2 - Y**2), a, b, c),
        "X, Y, lhs and rhs are nonnegative":
            all(side.is_nonnegative for side in (X, Y, lhs, rhs)),
    }
    return [name for name, ok in steps.items() if not ok]


@pytest.mark.parametrize("number", sorted(LEMMA1))
def test_lemma1_inequality_is_proven(number):
    assert proof_failures(*LEMMA1[number]) == []


def test_lemma1_proof_rejects_false_steps():
    lhs, rhs, product, X, Y = LEMMA1[2]
    # a weaker right-hand side: the identity no longer holds
    assert proof_failures(lhs, rhs + b, product, X, Y) == [
        "lhs^2 - rhs^2 equals the product at t = X - Y"
    ]
    # R >= b + c is false: (b + c)^2 - R^2 = 2bc has the wrong sign
    assert "X^2 - Y^2 has nonnegative coefficients in a, b, c" in proof_failures(
        rhs, lhs, -product, Y, X
    )
    # a product that can be negative proves nothing
    assert proof_failures(lhs, rhs, product - 4 * a * t, X, Y) == [
        "lhs^2 - rhs^2 equals the product at t = X - Y",
        "the product has nonnegative coefficients in a, t",
    ]
    # a side that may be negative
    assert proof_failures(lhs - 2 * a, rhs - 2 * a, product, X, Y)[-1] == (
        "X, Y, lhs and rhs are nonnegative"
    )


def partial_transpose(M):
    """The qubit partial transpose of a 6x6 sympy matrix in the m = 3a + b
    basis: out[(a,b),(a',b')] = in[(a',b),(a,b')]."""
    return sympy.Matrix(6, 6, lambda i, j: M[3 * (j // 3) + i % 3, 3 * (i // 3) + j % 3])


def projector(*vectors):
    """The projector onto the span of orthogonal 6-vectors of norm sqrt(3)."""
    return sum((sympy.Matrix(v) * sympy.Matrix(v).T for v in vectors), sympy.zeros(6)) / 3


def test_two_thirds_minus_the_partial_transpose_of_p_w_is_a_rank_2_projector():
    # W: the support of the TGX2 optimum at P = 1/2, (|00> + sqrt2|12>)/sqrt3
    # and (sqrt2|01> + |10>)/sqrt3.  So rho(t) = (1 - t)I/6 + (t/2)P_W has
    # rho(t)^Gamma = (1 + t)I/6 - (t/2)Q, with eigenvalue (1 - 2t)/6 twice
    # and (1 + t)/6 four times.
    r2 = sympy.sqrt(2)
    p_w = projector([1, 0, 0, 0, 0, r2], [0, r2, 0, 1, 0, 0])
    assert p_w * p_w == p_w and p_w.trace() == 2
    q = sympy.Rational(2, 3) * sympy.eye(6) - partial_transpose(p_w)
    assert sympy.simplify(q * q - q) == sympy.zeros(6)
    assert q.trace() == 2
    # Q projects onto W' = span{(|00> - sqrt2|11>)/sqrt3, (sqrt2|02> - |10>)/sqrt3}.
    assert q == projector([1, 0, 0, 0, -r2, 0], [0, 0, r2, -1, 0, 0])
    assert partial_transpose(partial_transpose(p_w)) == p_w != partial_transpose(p_w)
