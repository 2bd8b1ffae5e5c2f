"""Expression grammar, evaluation, and symbolic differentiation tests.

Derivatives are checked against a central-difference oracle on random
points, so the symbolic rules never grade their own homework."""

import numpy as np
import pytest

from reachkit.errors import ExpressionError
from reachkit.expr import Const, is_constant, parse

CASES = [
    ("1", 2),
    ("-x1", 2),
    ("x1 + 2.5*x2", 2),
    ("x1*x2 - x2/x1", 2),
    ("sin(x1)*cos(x2) + exp(-x1*x1)", 2),
    ("-(x1 - 3.0) * (x2 + 1e-1)", 2),
    ("cos(x1*x2)/(1.0 + x3*x3)", 3),
]


def reference_eval(text, x):
    env = {f"x{i+1}": x[i] for i in range(len(x))}
    env.update(sin=np.sin, cos=np.cos, exp=np.exp)
    return eval(text.replace("^", "**"), {"__builtins__": {}}, env)


def test_eval_matches_python_eval_on_random_points():
    rng = np.random.default_rng(5)
    for text, dim in CASES:
        tree = parse(text, dim)
        for _ in range(20):
            x = rng.uniform(0.5, 2.0, size=dim)
            assert tree.eval(x) == pytest.approx(reference_eval(text, x), rel=1e-12)


def test_eval_is_vectorized():
    tree = parse("sin(x1) + x2", 2)
    pts = np.array([[0.0, 1.0], [np.pi / 2, 2.0], [np.pi, 3.0]])
    np.testing.assert_allclose(tree.eval(pts), [1.0, 3.0, 3.0], atol=1e-12)


def test_symbolic_diff_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for text, dim in CASES:
        tree = parse(text, dim)
        grads = [tree.diff(i) for i in range(dim)]
        for _ in range(10):
            x = rng.uniform(0.6, 1.8, size=dim)
            for i in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                numeric = (tree.eval(xp) - tree.eval(xm)) / (2 * h)
                assert grads[i].eval(x) == pytest.approx(numeric, rel=2e-6, abs=2e-6)


def test_round_trip_is_stable():
    for text, dim in CASES:
        tree = parse(text, dim)
        assert parse(str(tree), dim) == tree


def test_diff_of_constant_is_zero_node():
    assert parse("3.5", 1).diff(0) == Const(0.0)


def test_grammar_rejections():
    with pytest.raises(ExpressionError, match="power operator"):
        parse("x1^2", 1)
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse("tan(x1)", 1)
    with pytest.raises(ExpressionError, match="out of range"):
        parse("x3", 2)
    with pytest.raises(ExpressionError):
        parse("x1 + ", 1)
    with pytest.raises(ExpressionError):
        parse("(x1", 1)


def test_constant_trees_evaluate_with_numpy_semantics():
    for text in ("1", "-(2.5)", "exp(1) * 3", "cos(1/0)", "(1 - 2) / 7"):
        assert is_constant(parse(text, 2))
    for text in ("x1", "x1 - x1", "exp(1/x2)", "0 * x1"):
        assert not is_constant(parse(text, 2))
    with np.errstate(all="ignore"):
        assert parse("1/0", 1).eval(None) == np.inf
        assert parse("-1/0", 1).eval(None) == -np.inf
        assert np.isnan(parse("0/0", 1).eval(None))
    # the same floats as Python arithmetic where both are defined
    assert parse("(0.1 + 0.2) / 3 - exp(0.5)", 1).eval(None) == (0.1 + 0.2) / 3 - np.exp(0.5)
