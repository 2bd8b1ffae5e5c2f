"""Expression trees for vector-field components.

Grammar: infix ``+ - * /`` with unary minus, parentheses, float literals
(scientific notation allowed), functions ``sin``, ``cos``, ``exp``, and
variables ``x1 .. xn``. The power operator ``^`` is rejected with a clear
message. Trees evaluate vectorized over point batches, with numpy float
semantics even where no variable is read (a constant ``1/0`` is inf), and
differentiate symbolically, which is what the boundary classifier needs
for gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


class Expr:
    """Base node. Subclasses implement eval, diff and str."""

    def eval(self, points):
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        """Partial derivative with respect to variable ``x{index+1}``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, points):
        # numpy scalar semantics, so a constant 1/0 is inf rather than a
        # ZeroDivisionError, like the same division over a point batch
        return np.float64(self.value)

    def diff(self, index):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # zero based; prints as x{index+1}

    def eval(self, points):
        return np.asarray(points, float)[..., self.index]

    def diff(self, index):
        return Const(1.0 if index == self.index else 0.0)

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def eval(self, points):
        return _FUNCS[self.func](self.arg.eval(points))

    def diff(self, index):
        inner = self.arg.diff(index)
        if self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = neg(Call("sin", self.arg))
        else:
            outer = Call("exp", self.arg)
        return mul(outer, inner)

    def __str__(self):
        return f"{self.func}({self.arg})"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, points):
        return -self.arg.eval(points)

    def diff(self, index):
        return neg(self.arg.diff(index))

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, points):
        a = self.left.eval(points)
        b = self.right.eval(points)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def diff(self, index):
        u, v = self.left, self.right
        du, dv = u.diff(index), v.diff(index)
        if self.op == "+":
            return add(du, dv)
        if self.op == "-":
            return sub(du, dv)
        if self.op == "*":
            return add(mul(du, v), mul(u, dv))
        return Binary("/", sub(mul(du, v), mul(u, dv)), mul(v, v))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


def is_constant(e: Expr) -> bool:
    """True when the tree reads no variable, so it has one value everywhere."""
    if isinstance(e, (Call, Neg)):
        return is_constant(e.arg)
    if isinstance(e, Binary):
        return is_constant(e.left) and is_constant(e.right)
    return isinstance(e, Const)


def _const_of(e):
    return e.value if isinstance(e, Const) else None


def add(u: Expr, v: Expr) -> Expr:
    cu, cv = _const_of(u), _const_of(v)
    if cu is not None and cv is not None:
        return Const(cu + cv)
    if cu == 0.0:
        return v
    if cv == 0.0:
        return u
    return Binary("+", u, v)


def sub(u: Expr, v: Expr) -> Expr:
    cu, cv = _const_of(u), _const_of(v)
    if cu is not None and cv is not None:
        return Const(cu - cv)
    if cv == 0.0:
        return u
    if cu == 0.0:
        return neg(v)
    return Binary("-", u, v)


def mul(u: Expr, v: Expr) -> Expr:
    cu, cv = _const_of(u), _const_of(v)
    if cu is not None and cv is not None:
        return Const(cu * cv)
    if cu == 0.0 or cv == 0.0:
        return Const(0.0)
    if cu == 1.0:
        return v
    if cv == 1.0:
        return u
    return Binary("*", u, v)


def neg(u: Expr) -> Expr:
    cu = _const_of(u)
    if cu is not None:
        return Const(-cu)
    if isinstance(u, Neg):
        return u.arg
    return Neg(u)


# ---------------------------------------------------------------------------
# tokenizer / recursive descent parser


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "^":
            raise ExpressionError("power operator '^' is not supported; spell out products")
        if ch in "+-*/()":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                tokens.append(("num", float(text[i:j])))
            except ValueError:
                raise ExpressionError(f"bad numeric literal {text[i:j]!r}") from None
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in "*/":
            op = self.take()[0]
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return neg(self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return Const(float(value))
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            if value in _FUNCS:
                self.take("(")
                node = self.expr()
                self.take(")")
                return Call(value, node)
            if value.startswith("x") and value[1:].isdigit():
                idx = int(value[1:])
                if not 1 <= idx <= self.dim:
                    raise ExpressionError(f"variable {value} out of range for dimension {self.dim}")
                return Var(idx - 1)
            raise ExpressionError(f"unknown identifier {value!r} (allowed: sin, cos, exp, x1..x{self.dim})")
        raise ExpressionError(f"unexpected token {kind!r}")


def parse(text: str, dim: int) -> Expr:
    """Parse one component expression over variables x1..x{dim}."""
    parser = _Parser(_tokenize(text), dim)
    node = parser.expr()
    parser.take("end")
    return node
