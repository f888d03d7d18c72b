"""A small matrix-expression language with shape inference.

The grammar covers exactly the operator vocabulary the audited update and
convergence equations use: addition, the classical (matrix) product,
transpose, a component-wise product, component-wise powers, and a
component-wise absolute value.  The checker assigns every well-formed
expression a :class:`Shape`, pinpoints the innermost node at which an
ill-formed expression breaks, and can collect shape constraints on a symbol
declared *unknown* to decide whether any consistent shape assignment exists
at all.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | ".*") factor)*
    factor  := "-" factor | postfix
    postfix := atom ("'" | "^." atom)*
    atom    := IDENT | NUMBER | "(" expr ")" | "|" expr "|"

"-" is surface syntax only: ``a - b`` parses to
``Add(a, Mul(ScalarLit(-1), b))`` and ``-x`` to ``Mul(ScalarLit(-1), x)``.
Division is deliberately absent from the grammar: no such operator exists for
vectors or matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UnboundSymbol

# ---------------------------------------------------------------------------
# Shapes


@dataclass(frozen=True)
class Shape:
    """Dimension tag: scalar, vector(n), or matrix(r, c).

    vector(n) is distinct from matrix(n, 1) at the surface; transposition
    views a vector as a one-row matrix, which is what lets the dyad
    ``Psi * Psi'`` type-check while the plain product ``Psi * Psi`` does not.
    """

    kind: str
    dims: tuple[int, ...] = ()

    _ARITY = {"scalar": 0, "vector": 1, "matrix": 2}

    def __post_init__(self):
        arity = self._ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if len(self.dims) != arity or any(d < 1 for d in self.dims):
            raise ValueError(f"bad dims {self.dims} for shape kind {self.kind!r}")

    @classmethod
    def scalar(cls) -> "Shape":
        return cls("scalar")

    @classmethod
    def vector(cls, n: int) -> "Shape":
        return cls("vector", (int(n),))

    @classmethod
    def matrix(cls, rows: int, cols: int) -> "Shape":
        return cls("matrix", (int(rows), int(cols)))

    @property
    def is_vector(self) -> bool:
        return self.kind == "vector"

    def __str__(self) -> str:
        if self.kind == "scalar":
            return "scalar"
        return f"{self.kind}({','.join(str(d) for d in self.dims)})"


@dataclass(frozen=True)
class ShapeEnv:
    """Symbol table for inference.

    ``bindings`` maps symbol names to known shapes.  Symbols in ``unknown``
    have no declared shape; the checker collects the shapes their positions
    force instead.
    """

    bindings: dict[str, Shape]
    unknown: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ShapeVerdict:
    """Inference outcome: exactly one of well_formed / mismatch / unsatisfiable.

    A mismatch carries the path of the innermost offending node (child
    indices from the root) plus the violated rule; an unsatisfiable verdict
    names the unknown symbol and two contradictory shape constraints.
    """

    outcome: str
    shape: Shape | None = None
    node_path: tuple[int, ...] | None = None
    rule_violated: str | None = None
    message: str | None = None
    symbol: str | None = None
    constraint_a: Shape | None = None
    constraint_b: Shape | None = None

    @classmethod
    def well_formed(cls, shape: Shape) -> "ShapeVerdict":
        return cls(outcome="well_formed", shape=shape)

    @classmethod
    def mismatch(cls, node_path: tuple[int, ...], rule: str, message: str) -> "ShapeVerdict":
        return cls(outcome="mismatch", node_path=node_path, rule_violated=rule, message=message)

    @classmethod
    def unsatisfiable(cls, symbol: str, a: Shape, b: Shape) -> "ShapeVerdict":
        return cls(outcome="unsatisfiable", symbol=symbol, constraint_a=a, constraint_b=b)

    def describe(self) -> str:
        if self.outcome == "well_formed":
            return f"well_formed({self.shape})"
        if self.outcome == "mismatch":
            return f"mismatch({self.rule_violated}: {self.message})"
        return f"unsatisfiable({self.symbol}: {self.constraint_a} vs {self.constraint_b})"


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class ScalarLit(Expr):
    value: float


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Transpose(Expr):
    a: Expr


@dataclass(frozen=True)
class ElemMul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class ElemPow(Expr):
    a: Expr
    exponent: Expr


@dataclass(frozen=True)
class ElemAbs(Expr):
    a: Expr


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\.\*|\^\.|[+\-*'()|])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(pos, f"a token (got {text[pos]!r})")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(pos, f"'{op}'")
        self.take()

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.take()
            rhs = self.term()
            node = Add(node, rhs if op == "+" else Mul(ScalarLit(-1.0), rhs))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", ".*"):
            _, op, _ = self.take()
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else ElemMul(node, rhs)
        return node

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.take()
            kind, text, _ = self.peek()
            if kind == "num":  # negative literal, not a -1 wrapper
                self.take()
                return self.postfix_tail(ScalarLit(-float(text)))
            return Mul(ScalarLit(-1.0), self.factor())
        return self.postfix_tail(self.atom())

    def postfix_tail(self, node: Expr) -> Expr:
        while True:
            if self.at_op("'"):
                self.take()
                node = Transpose(node)
            elif self.at_op("^."):
                self.take()
                node = ElemPow(node, self.atom())
            else:
                return node

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return ScalarLit(float(text))
        if kind == "ident":
            self.take()
            return Sym(text)
        if kind == "op" and text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "|":
            self.take()
            node = self.expr()
            self.expect_op("|")
            return ElemAbs(node)
        raise ParseError(pos, "an identifier, number, '(', '|', or '-'")


def parse_expr(text: str) -> Expr:
    """Parse expression text to an AST; raises ParseError with the failing
    character position."""
    parser = _Parser(text)
    node = parser.expr()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(pos, f"end of input (got {tok!r})")
    return node


# ---------------------------------------------------------------------------
# Inference


class _Mismatch(Exception):
    def __init__(self, path: tuple[int, ...], rule: str, message: str):
        super().__init__(message)
        self.path = path
        self.rule = rule
        self.message = message


def _as_matrix(shape: Shape) -> tuple[int, int]:
    if shape.is_vector:
        return shape.dims[0], 1
    return shape.dims


def _collapse(rows: int, cols: int) -> Shape:
    if rows == 1 and cols == 1:
        return Shape.scalar()
    if cols == 1:
        return Shape.vector(rows)
    return Shape.matrix(rows, cols)


def _infer(e: Expr, env: ShapeEnv, path: tuple[int, ...], cons: dict[str, list[Shape]]) -> Shape | str:
    """The shape of ``e``, or the name of the audited unknown symbol when ``e``
    is an (optionally scalar-scaled) occurrence of it."""
    if isinstance(e, Sym):
        if e.name in env.unknown:
            return e.name
        try:
            return env.bindings[e.name]
        except KeyError:
            raise UnboundSymbol(f"symbol {e.name!r} has no declared shape") from None

    if isinstance(e, ScalarLit):
        return Shape.scalar()

    if isinstance(e, Add):
        ta = _infer(e.a, env, path + (0,), cons)
        tb = _infer(e.b, env, path + (1,), cons)
        if isinstance(ta, str) or isinstance(tb, str):
            if isinstance(ta, str) and isinstance(tb, str):
                raise _Mismatch(path, "unknown-position", "cannot relate two unknown symbols")
            known, unk = (ta, tb) if isinstance(tb, str) else (tb, ta)
            cons.setdefault(unk, []).append(known)
            return known
        if ta != tb:
            raise _Mismatch(path, "add-shape", f"cannot add {ta} and {tb}")
        return ta

    if isinstance(e, Mul):
        ta = _infer(e.a, env, path + (0,), cons)
        tb = _infer(e.b, env, path + (1,), cons)
        if isinstance(ta, str) and isinstance(tb, str):
            raise _Mismatch(path, "unknown-position", "cannot relate two unknown symbols")
        if isinstance(ta, str) or isinstance(tb, str):
            known, unk = (ta, tb) if isinstance(tb, str) else (tb, ta)
            if known.kind == "scalar":
                return unk  # a scalar factor leaves the unknown untouched
            if known.is_vector:
                # a product with a column vector only works for a scalar factor
                cons.setdefault(unk, []).append(Shape.scalar())
                return known
            raise _Mismatch(path, "unknown-position", f"cannot pin the shape of {unk} multiplied with {known}")
        if ta.kind == "scalar":
            return tb
        if tb.kind == "scalar":
            return ta
        if ta.is_vector and tb.is_vector and (ta.dims[0] > 1 or tb.dims[0] > 1):
            raise _Mismatch(
                path,
                "mul-vector-vector",
                f"cannot multiply {ta} and {tb}: the plain product of two vectors is "
                "undefined (transpose one side for a dyad or an inner product)",
            )
        (ra, ca), (rb, cb) = _as_matrix(ta), _as_matrix(tb)
        if ca != rb:
            raise _Mismatch(
                path, "mul-inner-dim", f"cannot multiply {ta} and {tb}: inner dimensions {ca} and {rb} differ"
            )
        return _collapse(ra, cb)

    if isinstance(e, Transpose):
        ta = _infer(e.a, env, path + (0,), cons)
        if isinstance(ta, str):
            raise _Mismatch(path, "unknown-position", f"cannot transpose unknown symbol {ta}")
        if ta.kind == "scalar":
            return ta
        rows, cols = _as_matrix(ta)
        return Shape.matrix(cols, rows)

    if isinstance(e, ElemMul):
        ta = _infer(e.a, env, path + (0,), cons)
        tb = _infer(e.b, env, path + (1,), cons)
        if isinstance(ta, str) or isinstance(tb, str):
            raise _Mismatch(path, "unknown-position", "component-wise product cannot involve an unknown symbol")
        if not (ta.is_vector and tb.is_vector and ta.dims == tb.dims):
            raise _Mismatch(
                path, "elemmul-operands", f"component-wise product needs two vectors of equal length, got {ta} and {tb}"
            )
        return ta

    if isinstance(e, ElemPow):
        ta = _infer(e.a, env, path + (0,), cons)
        te = _infer(e.exponent, env, path + (1,), cons)
        if isinstance(ta, str) or isinstance(te, str):
            raise _Mismatch(path, "unknown-position", "component-wise power cannot involve an unknown symbol")
        if te.kind != "scalar":
            raise _Mismatch(path, "elempow-exponent", f"component-wise power needs a scalar exponent, got {te}")
        return ta

    if isinstance(e, ElemAbs):
        ta = _infer(e.a, env, path + (0,), cons)
        if isinstance(ta, str):
            raise _Mismatch(path, "unknown-position", f"cannot take the modulus of unknown symbol {ta}")
        return ta

    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


def resolve_constraints(constraints: dict[str, list[Shape]]) -> ShapeVerdict | None:
    """Return an unsatisfiable verdict if any symbol collected two different
    shapes, else None."""
    for name, shapes in constraints.items():
        distinct: list[Shape] = []
        for s in shapes:
            if s not in distinct:
                distinct.append(s)
        if len(distinct) > 1:
            return ShapeVerdict.unsatisfiable(name, distinct[0], distinct[1])
    return None


def infer_shape(expr: Expr, env: ShapeEnv, constraints: dict[str, list[Shape]] | None = None) -> ShapeVerdict:
    """Infer the shape of ``expr`` under ``env``.

    When ``constraints`` is passed, requirements on unknown symbols are
    appended to it (so several expressions can be audited jointly) and a
    contradiction anywhere in the accumulated set yields an unsatisfiable
    verdict.
    """
    cons = {} if constraints is None else constraints
    try:
        ty = _infer(expr, env, (), cons)
    except _Mismatch as exc:
        return ShapeVerdict.mismatch(exc.path, exc.rule, exc.message)
    bad = resolve_constraints(cons)
    if bad is not None:
        return bad
    if isinstance(ty, str):
        pinned = cons.get(ty)
        if pinned:
            return ShapeVerdict.well_formed(pinned[0])
        return ShapeVerdict.mismatch((), "unknown-unresolved", f"no constraint determines the shape of {ty}")
    return ShapeVerdict.well_formed(ty)


def check_equation(lhs: Expr, rhs: Expr, env: ShapeEnv) -> ShapeVerdict:
    """Verdict for an equation: both sides must be well-formed with one shape."""
    va = infer_shape(lhs, env)
    if va.outcome != "well_formed":
        return va
    vb = infer_shape(rhs, env)
    if vb.outcome != "well_formed":
        return vb
    if va.shape != vb.shape:
        return ShapeVerdict.mismatch((), "equation-sides", f"left side is {va.shape}, right side is {vb.shape}")
    return ShapeVerdict.well_formed(va.shape)


# ---------------------------------------------------------------------------
# Audit corpus

_MUSCLE_N = 9  # muscle preset weight dimension m * l

EQ23_TEXT = "1 + (Omega_opt + DOmega) ^. (1 - v)"
EQ24_TEXT = "eta * s * Psi * (Omega_opt + DOmega) ^. (1 - v)"
EQ25_LHS_TEXT = "(Omega_opt + DOmega) ^. j"
EQ25_RHS_TEXT = "(Omega_opt ^. k)' * DOmega ^. (j - k)"
EQ27_TEXT = (
    "DOmega + beta * (DOmega - DOmega_prev) + eta * Psi * s"
    " - eta * (Psi * Psi') * Omega_opt - eta * (Psi * Psi') * DOmega"
    " + eta * s * Psi * DOmega ^. (1 - v)"
)
EQ30_F_TEXT = "E_dOmega * F"
EQ32_F_TEXT = "R + F"
EQ38_F_TEXT = "lambda_i - F"

AUDIT_NOTES = {
    "eq8_original": (
        "per-delay regressor block of length m multiplied against the length-l "
        "coefficient vector; any l != m breaks the inner product"
    ),
    "eq10star_corrected": (
        "corrected per-delay block (all l basis functions of one delayed sample) "
        "restores a scalar summand"
    ),
    "eq23": "a component-wise vector power cannot be added to the scalar 1",
    "eq24": "the gradient term becomes a plain product of two column vectors",
    "eq25": "with component-wise powers the right side contracts to a scalar while the left side stays a vector",
    "eq27": "the expanded recursion adds a vector*vector product to otherwise vector-valued terms",
    "F": (
        "left-multiplication by a column vector forces F to be a scalar, addition to the n-by-n "
        "correlation matrix forces it to be a matrix; later steps also subtract F from a scalar "
        "eigenvalue and divide by it, and no division operator exists for matrices or vectors "
        "(the grammar deliberately has none)"
    ),
}


def corpus_env() -> ShapeEnv:
    """Symbol shapes shared by the recursion-family corpus entries."""
    n, vec, sc = _MUSCLE_N, Shape.vector, Shape.scalar()
    return ShapeEnv(
        bindings={
            "Psi": vec(n),
            "Omega_opt": vec(n),
            "DOmega": vec(n),
            "DOmega_prev": vec(n),
            "E_dOmega": vec(n),
            "R": Shape.matrix(n, n),
            "s": sc,
            "eta": sc,
            "beta": sc,
            "v": sc,
            "j": sc,
            "k": sc,
            "lambda_i": sc,
        },
        unknown=frozenset({"F"}),
    )


def eq25_verdict(n: int) -> ShapeVerdict:
    """eq25 with Omega_opt and DOmega vector(n), scalar for n = 1: for n >= 2 the right side
    contracts to a scalar while the left side is a vector; n = 1 is the scalar expansion, well-formed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = Shape.scalar() if n == 1 else Shape.vector(n)
    env = corpus_env()
    env = ShapeEnv(bindings={**env.bindings, "Omega_opt": base, "DOmega": base}, unknown=env.unknown)
    return check_equation(parse_expr(EQ25_LHS_TEXT), parse_expr(EQ25_RHS_TEXT), env)


def audit_corpus() -> list[tuple[str, ShapeVerdict]]:
    """Run the checker over the encoded equation corpus.

    The F entry merges the constraints its defining positions impose across
    three expressions; the merged requirement has no solution, so F admits no
    consistent shape.
    """
    rows: list[tuple[str, ShapeVerdict]] = []

    summand = parse_expr("Psi_i' * (q_i * c)")
    env_faulty = ShapeEnv(bindings={"Psi_i": Shape.vector(2), "q_i": Shape.scalar(), "c": Shape.vector(3)})
    rows.append(("eq8_original", infer_shape(summand, env_faulty)))
    env_fixed = ShapeEnv(bindings={"Psi_i": Shape.vector(3), "q_i": Shape.scalar(), "c": Shape.vector(3)})
    rows.append(("eq10star_corrected", infer_shape(summand, env_fixed)))

    env = corpus_env()
    rows.append(("eq23", infer_shape(parse_expr(EQ23_TEXT), env)))
    rows.append(("eq24", infer_shape(parse_expr(EQ24_TEXT), env)))
    rows.append(("eq25", eq25_verdict(_MUSCLE_N)))
    rows.append(("eq27", infer_shape(parse_expr(EQ27_TEXT), env)))

    cons: dict[str, list[Shape]] = {}
    infer_shape(parse_expr(EQ30_F_TEXT), env, constraints=cons)  # pins F to scalar
    infer_shape(parse_expr(EQ32_F_TEXT), env, constraints=cons)  # pins F to matrix(n,n)
    infer_shape(parse_expr(EQ38_F_TEXT), env, constraints=cons)  # scalar again
    verdict = resolve_constraints(cons) or ShapeVerdict.well_formed(cons["F"][0])
    rows.append(("F", verdict))
    return rows


def audit_report() -> list[dict]:
    """JSON-ready audit rows: {equation_id, verdict, message}."""
    report = []
    for eq_id, verdict in audit_corpus():
        message = verdict.describe()
        note = AUDIT_NOTES.get(eq_id)
        if note:
            message = f"{message} | {note}"
        report.append({"equation_id": eq_id, "verdict": verdict.outcome, "message": message})
    return report
