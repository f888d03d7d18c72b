import numpy as np
import pytest

from harxlab.errors import ParseError, UnboundSymbol
from harxlab.shapecheck import (
    Add,
    ElemAbs,
    ElemMul,
    ElemPow,
    Mul,
    ScalarLit,
    Shape,
    ShapeEnv,
    ShapeVerdict,
    Sym,
    Transpose,
    audit_corpus,
    audit_report,
    check_equation,
    infer_shape,
    parse_expr,
    resolve_constraints,
)

SC = Shape.scalar()
V = Shape.vector
M = Shape.matrix

BASE_ENV = ShapeEnv(
    bindings={
        "Psi": V(9),
        "Omega": V(9),
        "Omega_opt": V(9),
        "DOmega": V(9),
        "R": M(9, 9),
        "s": SC,
        "eta": SC,
        "v": SC,
        "lam": SC,
    },
    unknown=frozenset({"F"}),
)


# ---------------------------------------------------------------------------
# parser


def test_parse_inner_product():
    assert parse_expr("Psi' * Omega") == Mul(Transpose(Sym("Psi")), Sym("Omega"))


def test_parse_elempow_with_scalar_expression():
    got = parse_expr("1 + Omega ^. (1-v)")
    expected = Add(
        ScalarLit(1.0),
        ElemPow(Sym("Omega"), Add(ScalarLit(1.0), Mul(ScalarLit(-1.0), Sym("v")))),
    )
    assert got == expected


def test_parse_truncated_input():
    with pytest.raises(ParseError) as exc:
        parse_expr("Psi *")
    assert exc.value.position == 5


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_expr("Psi + * Omega")
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse_expr("Psi $ Omega")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("(Psi + Omega")


def test_parse_operators():
    assert parse_expr("Psi .* Omega") == ElemMul(Sym("Psi"), Sym("Omega"))
    assert parse_expr("|Omega|") == ElemAbs(Sym("Omega"))
    assert parse_expr("-Psi'") == Mul(ScalarLit(-1.0), Transpose(Sym("Psi")))
    assert parse_expr("-2 * Psi") == Mul(ScalarLit(-2.0), Sym("Psi"))
    assert parse_expr("Omega ^. 2") == ElemPow(Sym("Omega"), ScalarLit(2.0))


def test_parse_precedence():
    # * binds tighter than +, postfix tighter than *
    assert parse_expr("a + b * c") == Add(Sym("a"), Mul(Sym("b"), Sym("c")))
    assert parse_expr("a * b'") == Mul(Sym("a"), Transpose(Sym("b")))
    assert parse_expr("(a * b)'") == Transpose(Mul(Sym("a"), Sym("b")))


# ---------------------------------------------------------------------------
# inference rules


def infer(text, env=BASE_ENV, constraints=None):
    return infer_shape(parse_expr(text), env, constraints=constraints)


def test_inner_product_is_scalar():
    verdict = infer("Psi' * Omega")
    assert verdict.outcome == "well_formed"
    assert verdict.shape == SC


def test_dyad_is_matrix():
    verdict = infer("Psi * Psi'")
    assert verdict.shape == M(9, 9)


def test_matrix_vector_product_is_vector():
    assert infer("R * Omega").shape == V(9)
    assert infer("Psi' * R").shape == M(1, 9)


def test_scalar_broadcasts():
    assert infer("eta * Psi").shape == V(9)
    assert infer("Psi * eta").shape == V(9)
    assert infer("eta * R").shape == M(9, 9)
    assert infer("eta + s").shape == SC


def test_add_scalar_vector_mismatch():
    verdict = infer("1 + Omega")
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "add-shape"
    assert verdict.node_path == ()
    assert "scalar" in verdict.message and "vector(9)" in verdict.message


def test_vector_vector_product_mismatch():
    verdict = infer("Psi * Omega")
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "mul-vector-vector"


def test_inner_dimension_mismatch():
    env = ShapeEnv(bindings={"A": M(2, 3), "B": M(4, 5)})
    verdict = infer_shape(parse_expr("A * B"), env)
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "mul-inner-dim"
    assert "3 and 4" in verdict.message


def test_elemmul_rules():
    assert infer("Psi .* Omega").shape == V(9)
    verdict = infer("Psi .* s")
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "elemmul-operands"
    verdict = infer("R .* R")
    assert verdict.rule_violated == "elemmul-operands"


def test_elempow_rules():
    assert infer("Omega ^. 2").shape == V(9)
    assert infer("Omega ^. (1 - v)").shape == V(9)
    verdict = infer("Omega ^. Psi")
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "elempow-exponent"


def test_transpose_shapes():
    assert infer("Psi'").shape == M(1, 9)
    assert infer("R'").shape == M(9, 9)
    assert infer("s'").shape == SC
    env = ShapeEnv(bindings={"A": M(2, 3)})
    assert infer_shape(parse_expr("A'"), env).shape == M(3, 2)


def test_unbound_symbol_raises():
    with pytest.raises(UnboundSymbol):
        infer("Psi' * Nope")


def test_unknown_constraint_collection():
    cons = {}
    verdict = infer("Omega * F", constraints=cons)
    assert verdict.outcome == "well_formed" and verdict.shape == V(9)
    assert cons["F"] == [SC]
    verdict = infer("R + F", constraints=cons)
    assert verdict.outcome == "unsatisfiable"
    assert verdict.symbol == "F"
    assert {str(verdict.constraint_a), str(verdict.constraint_b)} == {"scalar", "matrix(9,9)"}


def test_unknown_scalar_passthrough_via_subtraction():
    cons = {}
    verdict = infer("lam - F", constraints=cons)
    assert verdict.outcome == "well_formed" and verdict.shape == SC
    assert cons["F"] == [SC]
    assert resolve_constraints(cons) is None


def test_unknown_unresolved_root():
    verdict = infer("eta * F", constraints={})
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "unknown-unresolved"


def test_check_equation_sides():
    verdict = check_equation(parse_expr("Psi"), parse_expr("Psi' * Omega"), BASE_ENV)
    assert verdict.outcome == "mismatch"
    assert verdict.rule_violated == "equation-sides"
    verdict = check_equation(parse_expr("R * Omega"), parse_expr("Psi"), BASE_ENV)
    assert verdict.outcome == "well_formed" and verdict.shape == V(9)
    # an ill-formed side is the equation's verdict, on either side
    left = check_equation(parse_expr("1 + Psi"), parse_expr("Psi"), BASE_ENV)
    assert left.rule_violated == "add-shape" and left == infer("1 + Psi")
    right = check_equation(parse_expr("Psi"), parse_expr("Psi * Omega"), BASE_ENV)
    assert right.rule_violated == "mul-vector-vector" and right == infer("Psi * Omega")


def test_bad_shapes_and_trailing_input_raise():
    with pytest.raises(ValueError, match=r"bad dims \(1, 2, 3\)"):
        Shape((1, 2, 3))
    with pytest.raises(ValueError, match=r"bad dims \(0,\)"):
        Shape.vector(0)
    with pytest.raises(ParseError, match=r"end of input \(got 'b'\)") as exc:
        parse_expr("a b")
    assert exc.value.position == 2


TWO_UNKNOWNS = ShapeEnv(bindings=BASE_ENV.bindings, unknown=frozenset({"F", "G"}))


# (expression, path of the offending node, message) for each position that cannot pin an unknown
UNKNOWN_POSITIONS = {
    "add_two": ("F + G", (), "cannot relate two unknown symbols"),
    "mul_two": ("eta * (F * G)", (1,), "cannot relate two unknown symbols"),
    "mul_matrix": ("R * F", (), "cannot pin the shape of F multiplied with matrix(9,9)"),
    "transpose": ("Psi + F'", (1,), "cannot transpose unknown symbol F"),
    "elemmul": ("F .* Psi", (), "component-wise product cannot involve an unknown symbol"),
    "elempow": ("Psi ^. F", (), "component-wise power cannot involve an unknown symbol"),
    "abs": ("|F| + Psi", (0,), "cannot take the modulus of unknown symbol F"),
}


@pytest.mark.parametrize("text,path,message", UNKNOWN_POSITIONS.values(), ids=UNKNOWN_POSITIONS)
def test_unknown_in_a_position_that_cannot_pin_it(text, path, message):
    verdict = infer(text, env=TWO_UNKNOWNS, constraints={})
    assert (verdict.outcome, verdict.rule_violated, verdict.node_path) == ("mismatch", "unknown-position", path)
    assert verdict.message == message


def test_unknown_at_the_root_takes_an_earlier_constraint():
    cons = {"F": [M(9, 9)]}
    assert infer("2 * F", constraints=cons) == ShapeVerdict.well_formed(M(9, 9))
    assert cons == {"F": [M(9, 9)]}


# ---------------------------------------------------------------------------
# soundness / detection properties on generated trees

_GEN_SYMBOLS = {
    "x": SC,
    "y": SC,
    "u": V(3),
    "w": V(3),
    "p": V(5),
    "A": M(3, 3),
    "B": M(3, 5),
}
_GEN_ENV = ShapeEnv(bindings=_GEN_SYMBOLS)


def children(expr):
    if isinstance(expr, (Sym, ScalarLit)):
        return ()
    if isinstance(expr, (Add, Mul, ElemMul)):
        return (expr.a, expr.b)
    if isinstance(expr, ElemPow):
        return (expr.a, expr.exponent)
    return (expr.a,)


def iter_paths(expr):
    """Yield (path, node) pairs in preorder; paths are child-index tuples."""
    stack = [((), expr)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def replace_at(expr, path, new):
    """Return a copy of ``expr`` with the node at ``path`` swapped for ``new``."""
    if not path:
        return new
    kids = list(children(expr))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return type(expr)(*kids)


def _gen_expr(rng, shape, depth):
    """Build a well-formed expression of the requested shape, bottom-up."""
    leaves = [name for name, sh in _GEN_SYMBOLS.items() if sh == shape]
    if depth <= 0:
        if shape == SC:
            return Sym(rng.choice(["x", "y"])) if rng.random() < 0.7 else ScalarLit(float(rng.integers(0, 5)))
        if leaves:
            return Sym(rng.choice(leaves))
        # no leaf of this shape: synthesize from products
        if shape.kind == "matrix" and shape.dims == (3, 3):
            return Mul(Sym("u"), Transpose(Sym("w")))
        raise AssertionError(f"no leaf for {shape}")
    pick = rng.random()
    if pick < 0.25:
        return Add(_gen_expr(rng, shape, depth - 1), _gen_expr(rng, shape, depth - 1))
    if pick < 0.4:
        return Mul(_gen_expr(rng, SC, depth - 1), _gen_expr(rng, shape, depth - 1))
    if shape == SC:
        if pick < 0.6:
            return Mul(Transpose(_gen_expr(rng, V(3), depth - 1)), _gen_expr(rng, V(3), depth - 1))
        if pick < 0.8:
            return ElemPow(_gen_expr(rng, SC, depth - 1), ScalarLit(float(rng.integers(0, 4))))
        return ElemAbs(_gen_expr(rng, SC, depth - 1))
    if shape.is_vector:
        n = shape.dims[0]
        if pick < 0.55 and n == 3:
            return Mul(_gen_expr(rng, M(3, 3), depth - 1), _gen_expr(rng, V(3), depth - 1))
        if pick < 0.7:
            return ElemMul(_gen_expr(rng, shape, depth - 1), _gen_expr(rng, shape, depth - 1))
        if pick < 0.85:
            return ElemPow(_gen_expr(rng, shape, depth - 1), ScalarLit(float(rng.integers(0, 4))))
        return ElemAbs(_gen_expr(rng, shape, depth - 1))
    # matrix shapes
    r, c = shape.dims
    if pick < 0.6 and (r, c) == (3, 5):
        return Mul(_gen_expr(rng, M(3, 3), depth - 1), Sym("B"))
    if pick < 0.6 and (r, c) == (3, 3):
        return Mul(_gen_expr(rng, V(3), depth - 1), Transpose(_gen_expr(rng, V(3), depth - 1)))
    return ElemAbs(_gen_expr(rng, shape, depth - 1))


def _gen_case(rng):
    shape = [SC, V(3), V(5), M(3, 3), M(3, 5)][int(rng.integers(0, 5))]
    return _gen_expr(rng, shape, int(rng.integers(1, 4))), shape


def test_soundness_on_500_generated_expressions():
    rng = np.random.default_rng(0)
    for _ in range(500):
        expr, shape = _gen_case(rng)
        verdict = infer_shape(expr, _GEN_ENV)
        assert verdict.outcome == "well_formed", f"{expr!r} -> {verdict.describe()}"
        assert verdict.shape == shape, f"{expr!r}: {verdict.shape} != {shape}"


def test_single_injected_violation_is_located_exactly():
    rng = np.random.default_rng(1)
    bad_node = Add(ScalarLit(1.0), Sym("u"))  # scalar + vector(3)
    checked = 0
    while checked < 200:
        expr, _ = _gen_case(rng)
        paths = [p for p, _ in iter_paths(expr)]
        path = paths[int(rng.integers(0, len(paths)))]
        # skip exponent positions: the injected node would first fail the
        # scalar-exponent rule at the parent instead
        parent = expr
        ok = True
        for idx in path[:-1]:
            parent = children(parent)[idx]
        if path and isinstance(parent, ElemPow) and path[-1] == 1:
            ok = False
        if not ok:
            continue
        mutated = replace_at(expr, path, bad_node)
        verdict = infer_shape(mutated, _GEN_ENV)
        assert verdict.outcome == "mismatch"
        assert verdict.node_path == path, f"{mutated!r}: {verdict.node_path} != {path}"
        checked += 1


def test_innermost_node_reported():
    # the defective product sits inside a larger, otherwise valid sum
    verdict = infer("Omega + eta * (Psi * Omega)")
    assert verdict.outcome == "mismatch"
    node = parse_expr("Omega + eta * (Psi * Omega)")
    for idx in verdict.node_path:
        node = children(node)[idx]
    assert node == Mul(Sym("Psi"), Sym("Omega"))


@pytest.mark.parametrize("op", ["+", ".*"])
def test_inference_works_at_any_depth_the_parser_builds(op):
    # parse_expr builds a 5000-term chain left-deep, 5000 nodes down; inference walks it with its own stack
    chain = lambda first, rest: parse_expr(first + f" {op} {rest}" * 5000)  # noqa: E731
    assert infer_shape(chain("Psi", "Psi"), BASE_ENV) == ShapeVerdict.well_formed(V(9))
    # a mismatch at the bottom of the chain is the leftmost, and wins over the one at its top
    bad = chain("R", "Psi")
    bad = Add(bad, Sym("R")) if op == "+" else ElemMul(bad, Sym("R"))
    verdict = infer_shape(bad, BASE_ENV)
    assert verdict.outcome == "mismatch" and verdict.node_path == (0,) * 5000
    assert verdict.rule_violated == ("add-shape" if op == "+" else "elemmul-operands")


# ---------------------------------------------------------------------------
# audit corpus


EXPECTED_AUDIT = {
    "eq8_original": ("mismatch", "mul-inner-dim"),
    "eq10star_corrected": ("well_formed", None),
    "eq23": ("mismatch", "add-shape"),
    "eq24": ("mismatch", "mul-vector-vector"),
    "eq25": ("mismatch", "equation-sides"),
    "eq27": ("mismatch", "mul-vector-vector"),
    "F": ("unsatisfiable", None),
}


def test_audit_corpus_matches_expected_verdicts():
    rows = audit_corpus()
    assert [eq for eq, _ in rows] == list(EXPECTED_AUDIT)
    for eq_id, verdict in rows:
        outcome, rule = EXPECTED_AUDIT[eq_id]
        assert verdict.outcome == outcome, f"{eq_id}: {verdict.describe()}"
        if rule is not None:
            assert verdict.rule_violated == rule


def test_audit_corpus_details():
    rows = dict(audit_corpus())
    assert rows["eq10star_corrected"].shape == SC
    assert "scalar" in rows["eq23"].message and "vector(9)" in rows["eq23"].message
    assert rows["eq25"].message == "left side is vector(9), right side is scalar"
    assert rows["F"].symbol == "F"
    assert {str(rows["F"].constraint_a), str(rows["F"].constraint_b)} == {"scalar", "matrix(9,9)"}
    # the defective term of the expanded recursion is located inside the sum
    assert rows["eq27"].node_path == (1,)


def test_audit_report_rows():
    report = audit_report()
    assert len(report) == 7
    for row in report:
        assert set(row) == {"equation_id", "verdict", "message"}
    f_row = next(r for r in report if r["equation_id"] == "F")
    assert "division" in f_row["message"]
