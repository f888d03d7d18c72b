"""The frozen records of the CLI path and of the shape checker: built by ``errors.record`` without generated code,
and behaving as the frozen dataclasses they replace."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from harxlab import analysis, cli, errors, filters, plant, shapecheck
from harxlab.analysis import BinomialReport, CorrelationEstimate, RunRecord, SeedData, StabilityProbe
from harxlab.errors import ExperimentSpecError
from harxlab.filters import FilterConfig, FilterState, StepRecord, initial_state
from harxlab.plant import BasisSet, Dataset, Section, polynomial_basis
from harxlab.shapecheck import Shape, ShapeVerdict


def test_only_the_public_configs_are_built_by_generated_code():
    # dataclasses compiles each generated method with exec, so its code comes from "<string>"
    def generated(cls):
        return any(getattr(getattr(value, "__code__", None), "co_filename", None) == "<string>"
                   for value in vars(cls).values())

    modules = (errors, filters, plant, analysis, cli, shapecheck)
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert len(classes) > 20
    assert {cls.__name__ for cls in classes if generated(cls)} == {"FilterConfig", "HarxPlant"}


def _state():
    return initial_state(FilterConfig(variant="lms", eta=0.1, dim=2))


# each record with its field names, in constructor order, and one valid value per field
RECORDS = [
    (FilterState, ("w", "w_prev", "iteration", "complex_events"), (np.ones(2), np.zeros(2), 3, 1)),
    (StepRecord, ("error", "imag_norm"), (0.5, 0.0)),
    (BasisSet, ("l",), (3,)),
    (Dataset, ("inputs", "X", "outputs"), (np.ones(4), np.ones((3, 1)), np.ones(3))),
    (CorrelationEstimate, ("R", "p", "eigenvalues", "sample_count"),
     (np.diag([2.0, 1.0]), np.ones(2), np.array([2.0, 1.0]), 10)),
    (RunRecord, ("mse_curve", "weight_error_curve", "imag_curve", "diverged", "final_state", "omega_opt", "summary"),
     (np.ones(2), np.ones(2), np.zeros(2), False, _state(), np.zeros(2), {"diverged": False})),
    (SeedData, ("X", "outputs", "omega", "lambda_max"),
     (np.ones((1, 3, 2)), np.ones((1, 3)), np.zeros((1, 2)), np.ones(1))),
    (BinomialReport, ("scalar_residuals", "vector_verdict", "notes"), (np.zeros(3), "type_mismatch", "notes")),
    (StabilityProbe, ("cells", "lambda_max"), (({"diverged_fraction": 0.0},), 2.0)),
    (cli.ExperimentSpec, ("experiment", "plant", "plant_ref", "filters", "T", "seeds", "outputs", "emit",
                          "input_kind"),
     (Section(ExperimentSpecError, "run.spec"), None, "lin.scenario", (), 100, (1,), Path("out"), "both",
      "white_gaussian")),
    (Shape, ("dims",), ((2, 3),)),
    (ShapeVerdict, ("outcome", "shape", "node_path", "rule_violated", "message", "symbol", "constraint_a",
                    "constraint_b"),
     ("unsatisfiable", Shape(), (0, 1), "add-shape", "cannot add", "F", Shape((3,)), Shape((3, 3)))),
]
EQ_RECORDS = {StepRecord, BasisSet, StabilityProbe, Shape, ShapeVerdict}


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, names, values):
    assert cls.__match_args__ == names
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_position).startswith(f"{cls.__name__}({names[0]}=")
    for rec in (by_position, by_keyword):
        for name, value in zip(names, values):
            assert np.array_equal(getattr(rec, name), value) if isinstance(value, np.ndarray) else (
                getattr(rec, name) is value or getattr(rec, name) == value)

    required = [] if names[0] in vars(cls) else [((), {}, f"missing .*'{names[0]}'")]  # Shape() is the scalar
    for args, kwargs, fault in required + [
        (values, {"unknown": 1}, "unexpected keyword argument 'unknown'"),
        (values, {names[0]: values[0]}, f"multiple values for argument '{names[0]}'"),
        ((*values, None), {}, "positional arguments but"),
    ]:
        with pytest.raises(TypeError, match=fault):
            cls(*args, **kwargs)

    for name in (names[0], "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_position, name, values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(by_position, names[0])
    assert cls in EQ_RECORDS or by_position != by_keyword  # the others compare by identity


def test_filter_state_takes_its_defaults():
    state = FilterState(np.ones(2), np.zeros(2))
    assert (state.iteration, state.complex_events) == (0, 0)
    assert FilterState(w=np.ones(2), w_prev=np.zeros(2), complex_events=2).complex_events == 2


def test_record_reprs_are_the_dataclass_form():
    assert repr(polynomial_basis(3)) == "BasisSet(l=3)"
    assert repr(StepRecord(0.25, 0.0)) == "StepRecord(error=0.25, imag_norm=0.0)"
    assert repr(Shape()) == "Shape(dims=())" and Shape() == Shape.scalar()
    # a field that is itself a record prints inline, in a field that is not (a tuple) by its own repr
    assert repr(ShapeVerdict.unsatisfiable("F", Shape(), Shape((2, 2)))) == (
        "ShapeVerdict(outcome='unsatisfiable', shape=None, node_path=None, rule_violated=None, message=None, "
        "symbol='F', constraint_a=Shape(dims=()), constraint_b=Shape(dims=(2, 2)))")
    assert repr(StabilityProbe((BasisSet(2),), 2.0)) == "StabilityProbe(cells=(BasisSet(l=2),), lambda_max=2.0)"


@pytest.mark.parametrize("cls, values, other", [
    (BasisSet, (3,), (2,)),
    (StepRecord, (0.5, 0.0), (0.5, 1e-300)),
    (StabilityProbe, ((), 2.0), ((), 3.0)),
    (Shape, ((2, 3),), ((3, 2),)),
], ids=lambda arg: arg.__name__ if isinstance(arg, type) else None)
def test_value_records_compare_and_hash_by_their_fields(cls, values, other):
    rec = cls(*values)
    assert rec == cls(*values) and rec is not cls(*values)
    assert hash(rec) == hash(cls(*values)) == hash(values)
    assert rec != cls(*other) and rec != values
    assert {rec: 1}[cls(*values)] == 1


def test_value_records_with_dict_cells_compare_but_do_not_hash():
    cells = ({"diverged_fraction": 0.5},)
    assert StabilityProbe(cells, 2.0) == StabilityProbe(({"diverged_fraction": 0.5},), 2.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(StabilityProbe(cells, 2.0))
