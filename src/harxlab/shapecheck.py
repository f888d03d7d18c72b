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

import functools
import re

from .errors import ParseError, UnboundSymbol, record

# ---------------------------------------------------------------------------
# Shapes


@record(eq=True)
class Shape:
    """Dimension tag: scalar, vector(n), or matrix(r, c), told apart by the
    number of ``dims`` (0, 1 or 2).

    vector(n) is distinct from matrix(n, 1) at the surface; transposition
    views a vector as a one-row matrix, which is what lets the dyad
    ``Psi * Psi'`` type-check while the plain product ``Psi * Psi`` does not.
    """

    dims: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.dims) > 2 or any(d < 1 for d in self.dims):
            raise ValueError(f"bad dims {self.dims}: a shape has at most two dimensions, each >= 1")

    @classmethod
    def scalar(cls) -> "Shape":
        return cls()

    @classmethod
    def vector(cls, n: int) -> "Shape":
        return cls((int(n),))

    @classmethod
    def matrix(cls, rows: int, cols: int) -> "Shape":
        return cls((int(rows), int(cols)))

    @property
    def kind(self) -> str:
        return ("scalar", "vector", "matrix")[len(self.dims)]

    @property
    def is_vector(self) -> bool:
        return len(self.dims) == 1

    def __str__(self) -> str:
        if not self.dims:
            return "scalar"
        return f"{self.kind}({','.join(str(d) for d in self.dims)})"


@record(eq=True)
class ShapeEnv:
    """Symbol table for inference.

    ``bindings`` maps symbol names to known shapes.  Symbols in ``unknown``
    have no declared shape; the checker collects the shapes their positions
    force instead.
    """

    bindings: dict[str, Shape]
    unknown: frozenset[str] = frozenset()


@record(eq=True)
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
    """Base class for expression nodes.

    Each node class is a :func:`~harxlab.errors.record`, so a node's ``repr``
    is the dataclass form, ``Add(a=Sym(name='x'), b=...)``, while ``==`` and
    ``hash`` are this class's: two nodes are equal when their trees are.  All
    three walk the tree with a stack of their own, so they work at any depth
    a tree is built to.
    """

    def _preorder(self):
        """Every node's class and every non-node field, in prefix order; each
        class has a fixed number of fields, so the sequence fixes the tree."""
        todo = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Expr):
                yield type(item)
                todo.extend(getattr(item, name) for name in reversed(item.__match_args__))
            else:
                yield item

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self._preorder()) == tuple(other._preorder())

    def __hash__(self):
        return hash(tuple(self._preorder()))


@record
class Sym(Expr):
    name: str


@record
class ScalarLit(Expr):
    value: float


@record
class Add(Expr):
    a: Expr
    b: Expr


@record
class Mul(Expr):
    a: Expr
    b: Expr


@record
class Transpose(Expr):
    a: Expr


@record
class ElemMul(Expr):
    a: Expr
    b: Expr


@record
class ElemPow(Expr):
    a: Expr
    exponent: Expr


@record
class ElemAbs(Expr):
    a: Expr


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\.\*|\^\.|[+\-*'()|])"
    r"|(?P<bad>.)",
    re.DOTALL,
)

# The binary operator levels, loosest first: each operator with the node it builds.
_BINARY = (
    {"+": Add, "-": lambda a, b: Add(a, Mul(ScalarLit(-1.0), b))},
    {"*": Mul, ".*": ElemMul},
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then an ``eof`` token; an operator's kind is its text."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(m.start(), f"a token (got {m.group()!r})")
        if m.lastgroup != "ws":
            tokens.append((m.group() if m.lastgroup == "op" else m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def accept(self, *kinds: str) -> str | None:
        """Take the next token if its kind is one of ``kinds`` and return its text."""
        kind, text, _ = self.toks[self.i]
        if kind not in kinds:
            return None
        self.i += 1
        return text

    def expect(self, op: str) -> None:
        if not self.accept(op):
            raise ParseError(self.toks[self.i][2], f"'{op}'")

    def expr(self, level: int = 0) -> Expr:
        # the tightest level calls factor itself, so each bracket nests four frames deep (expr, expr, factor, atom)
        operand = functools.partial(self.expr, level + 1) if level + 1 < len(_BINARY) else self.factor
        node = operand()
        while op := self.accept(*_BINARY[level]):
            node = _BINARY[level][op](node, operand())
        return node

    def factor(self) -> Expr:
        if self.accept("-"):
            if number := self.accept("num"):  # negative literal, not a -1 wrapper
                return self.postfix(ScalarLit(-float(number)))
            return Mul(ScalarLit(-1.0), self.factor())
        return self.postfix(self.atom())

    def postfix(self, node: Expr) -> Expr:
        while op := self.accept("'", "^."):
            node = Transpose(node) if op == "'" else ElemPow(node, self.atom())
        return node

    def atom(self) -> Expr:
        if number := self.accept("num"):
            return ScalarLit(float(number))
        if name := self.accept("ident"):
            return Sym(name)
        if bracket := self.accept("(", "|"):
            node = self.expr()
            self.expect(")" if bracket == "(" else "|")
            return node if bracket == "(" else ElemAbs(node)
        raise ParseError(self.toks[self.i][2], "an identifier, number, '(', '|', or '-'")


def parse_expr(text: str) -> Expr:
    """Parse expression text to an AST; raises ParseError with the failing
    character position, also for nesting deeper than the recursion limit allows."""
    parser = _Parser(text)
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError(parser.toks[parser.i][2], "shallower nesting (the recursion limit was reached)") from None
    kind, tok, pos = parser.toks[parser.i]
    if kind != "eof":
        raise ParseError(pos, f"end of input (got {tok!r})")
    return node


# ---------------------------------------------------------------------------
# Inference


class _Mismatch(Exception):
    """The rule a node breaks and the message; the walk adds the node's ``path``."""

    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule, self.path = rule, ()


def _as_matrix(shape: Shape) -> tuple[int, int]:
    """(rows, cols): a vector is a column, a scalar is 1-by-1."""
    return (*shape.dims, 1, 1)[:2]


def _collapse(rows: int, cols: int) -> Shape:
    if rows == 1 and cols == 1:
        return Shape.scalar()
    if cols == 1:
        return Shape.vector(rows)
    return Shape.matrix(rows, cols)


# The operations no unknown symbol may stand in, by node class, with the message for one that does.
_NO_UNKNOWN = {
    Transpose: "cannot transpose unknown symbol {}",
    ElemMul: "component-wise product cannot involve an unknown symbol",
    ElemPow: "component-wise power cannot involve an unknown symbol",
    ElemAbs: "cannot take the modulus of unknown symbol {}",
}


def _infer(e: Expr, env: ShapeEnv, cons: dict[str, list[Shape]]) -> Shape | str:
    """The shape of ``e``, or the name of the audited unknown symbol when ``e``
    is an (optionally scalar-scaled) occurrence of it.  The tree is walked
    with a stack of its own, so it works at any depth a tree is built to.
    Children are inferred in field order, so the leftmost mismatch wins.  A
    node's place is a link (parent's place, child index), unrolled into a
    path only for a mismatch."""
    done, todo = [], [(e, None, None)]  # (node, place, its child count once its children are pushed)
    while todo:
        node, place, count = todo.pop()
        if isinstance(node, Sym):
            if node.name not in env.unknown and node.name not in env.bindings:
                raise UnboundSymbol(f"symbol {node.name!r} has no declared shape")
            done.append(node.name if node.name in env.unknown else env.bindings[node.name])
        elif isinstance(node, ScalarLit):
            done.append(Shape.scalar())
        elif count is None:
            children = [getattr(node, name) for name in node.__match_args__]
            todo.append((node, place, len(children)))
            todo.extend((child, (place, i), None) for i, child in reversed(list(enumerate(children))))
        else:
            shapes = done[-count:]
            del done[-count:]
            try:
                done.append(_combine(node, shapes, cons))
            except _Mismatch as exc:
                path = []
                while place is not None:
                    place, i = place
                    path.append(i)
                exc.path = tuple(reversed(path))
                raise
    return done[0]


def _combine(e: Expr, shapes: list, cons: dict[str, list[Shape]]) -> Shape | str:
    """The shape of node ``e`` from its children's ``shapes``; one block places an unknown child."""
    unknowns = [s for s in shapes if isinstance(s, str)]
    if unknowns:
        unk = unknowns[0]
        if type(e) in _NO_UNKNOWN:
            raise _Mismatch("unknown-position", _NO_UNKNOWN[type(e)].format(unk))
        if len(unknowns) == 2:
            raise _Mismatch("unknown-position", "cannot relate two unknown symbols")
        (known,) = (s for s in shapes if not isinstance(s, str))
        if isinstance(e, Add):  # the unknown takes the other side's shape
            cons.setdefault(unk, []).append(known)
            return known
        if known.kind == "scalar":
            return unk  # a scalar factor leaves the unknown untouched
        if known.is_vector:  # a product with a column vector only works for a scalar factor
            cons.setdefault(unk, []).append(Shape.scalar())
            return known
        raise _Mismatch("unknown-position", f"cannot pin the shape of {unk} multiplied with {known}")

    ta, tb = shapes[0], shapes[-1]  # tb is ta again for a one-child node
    if isinstance(e, Mul):
        if ta.kind == "scalar":
            return tb
        if tb.kind == "scalar":
            return ta
        if ta.is_vector and tb.is_vector and (ta.dims[0] > 1 or tb.dims[0] > 1):
            raise _Mismatch(
                "mul-vector-vector",
                f"cannot multiply {ta} and {tb}: the plain product of two vectors is "
                "undefined (transpose one side for a dyad or an inner product)",
            )
        (ra, ca), (rb, cb) = _as_matrix(ta), _as_matrix(tb)
        if ca != rb:
            raise _Mismatch(
                "mul-inner-dim", f"cannot multiply {ta} and {tb}: inner dimensions {ca} and {rb} differ"
            )
        return _collapse(ra, cb)

    if isinstance(e, Transpose):
        if ta.kind == "scalar":
            return ta
        rows, cols = _as_matrix(ta)
        return Shape.matrix(cols, rows)

    if isinstance(e, Add) and ta != tb:
        raise _Mismatch("add-shape", f"cannot add {ta} and {tb}")
    if isinstance(e, ElemMul) and not (ta.is_vector and tb.is_vector and ta.dims == tb.dims):
        raise _Mismatch(
            "elemmul-operands", f"component-wise product needs two vectors of equal length, got {ta} and {tb}"
        )
    if isinstance(e, ElemPow) and tb.kind != "scalar":
        raise _Mismatch("elempow-exponent", f"component-wise power needs a scalar exponent, got {tb}")
    return ta  # +, .*, ^. and |...| keep the shape of their first operand


def resolve_constraints(constraints: dict[str, list[Shape]]) -> ShapeVerdict | None:
    """Return an unsatisfiable verdict if any symbol collected two different
    shapes, else None."""
    for name, shapes in constraints.items():
        distinct = list(dict.fromkeys(shapes))
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
        ty = _infer(expr, env, cons)
    except _Mismatch as exc:
        return ShapeVerdict.mismatch(exc.path, exc.rule, str(exc))
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
    for eq_id, block in (("eq8_original", 2), ("eq10star_corrected", 3)):  # a block of length m = 2, then l = 3
        env = ShapeEnv(bindings={"Psi_i": Shape.vector(block), "q_i": Shape.scalar(), "c": Shape.vector(3)})
        rows.append((eq_id, infer_shape(summand, env)))

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


def audit_report(rows=None) -> list[dict]:
    """JSON-ready audit rows: {equation_id, verdict, message}, of ``rows`` or else of :func:`audit_corpus`."""
    report = []
    for eq_id, verdict in audit_corpus() if rows is None else rows:
        message = verdict.describe()
        note = AUDIT_NOTES.get(eq_id)
        if note:
            message = f"{message} | {note}"
        report.append({"equation_id": eq_id, "verdict": verdict.outcome, "message": message})
    return report
