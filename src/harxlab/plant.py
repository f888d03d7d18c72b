"""Hammerstein ARX plant simulation.

A Hammerstein ARX (H-ARX) plant pushes the input through a static
nonlinearity expanded in a scalar basis and then through a linear FIR block
with ``m`` taps.  The regressor is stacked delay by delay: block ``i`` holds
every basis function evaluated on the single delayed sample ``r(t-i)``, so
the noise-free output is a plain inner product between the regressor and the
Kronecker interleaving of the linear taps ``q`` and the nonlinearity
coefficients ``c``.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, HarxlabError, ScenarioError, record

INPUT_KINDS = ("white_gaussian", "uniform")


@record(eq=True)
class BasisSet:
    """The monomial basis r, r**2, ..., r**l applied to delayed input samples."""

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"l must be >= 1 (polynomial basis order), got {self.l}")

    def evaluate_many(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the basis on a sample vector; returns shape (len(r), l),
        written into ``out`` when given (any float64 (len(r), l) array or view).

        Column k is column k - 1 times r (r, r*r, (r*r)*r, ...), so the result
        depends on the samples and IEEE multiplication alone.  Powers that
        overflow become inf without a warning; the caller's finiteness checks
        report them.
        """
        r = np.asarray(r, dtype=np.float64)
        F = np.empty((r.shape[0], self.l)) if out is None else out
        F[:, 0] = r
        with np.errstate(over="ignore"):
            for k in range(1, self.l):
                np.multiply(F[:, k - 1], r, out=F[:, k])
        return F


def polynomial_basis(l: int) -> BasisSet:
    """Monomial basis r, r**2, ..., r**l."""
    return BasisSet(l)


@dataclass(frozen=True, eq=False)
class HarxPlant:
    """Ground-truth H-ARX system.

    ``q`` are the linear FIR taps over ``m`` delays, ``c`` the nonlinearity
    coefficients (one per basis function), ``noise_std`` the additive white
    Gaussian output noise, and ``seed`` (>= 0) the default random stream of
    :func:`generate_sequence`.  Instances are immutable; the tap arrays are
    frozen, so a plant can be shared across concurrent generation runs.
    """

    m: int
    basis: BasisSet
    q: np.ndarray
    c: np.ndarray
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64)
        c = np.array(self.c, dtype=np.float64)
        q.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        if self.m < 1:
            raise ValueError(f"m must be >= 1 (linear memory order), got {self.m}")
        if q.shape != (self.m,):
            raise ValueError(f"q must have length m={self.m}, got {q.shape[0] if q.ndim == 1 else q.shape}")
        if c.shape != (self.basis.l,):
            raise ValueError(f"c must have length l={self.basis.l}, got {c.shape[0] if c.ndim == 1 else c.shape}")
        for name, arr in (("q", q), ("c", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        with np.errstate(over="ignore"):
            if not np.isfinite(true_weight_vector(self)).all():
                raise ValueError("q times c overflows: every product q_i * c_k must be a finite float64")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n(self) -> int:
        """Length of the stacked regressor / true weight vector (m * l)."""
        return self.m * self.basis.l


@record
class Dataset:
    """Aligned identification data from one simulated run.

    ``X`` is the read-only (T - m, n) regressor matrix: row k is the
    regressor at time m + k, and ``outputs[k]`` is the (noisy) plant response
    to it.
    """

    inputs: np.ndarray
    X: np.ndarray
    outputs: np.ndarray

    def __len__(self) -> int:
        return self.X.shape[0]


def true_weight_vector(plant: HarxPlant) -> np.ndarray:
    """Kronecker interleaving of taps and coefficients.

    Element (i-1)*l + (k-1) equals q_i * c_k, matching the block-by-delay
    regressor layout: the raveled outer product, each entry the one product
    ``np.kron`` makes too, in a fraction of its time.
    """
    return np.outer(plant.q, plant.c).ravel()


def draw_signals(
    plant: HarxPlant, input_kind: str = "white_gaussian", *, T: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray] | None]:
    """The random stream of a length-``T`` run: its read-only T input samples
    and, for a noisy plant, a function ``noise(out)`` that draws the run's
    next ``len(out)`` output noise samples into ``out``, scaled, and returns
    it (None for a noise-free plant).

    The inputs are drawn first and the T - m noise samples after them, so a
    fixed seed reproduces the run bit for bit, however the noise is split
    into calls: the generator gives the same normals, and ends in the same
    state, drawn in pieces or at once.  ``input_kind`` is ``white_gaussian``
    (standard normal) or ``uniform`` (on [-1, 1)); ``rng`` defaults to the
    plant's seed.  Noise that overflows becomes inf; its callers draw it
    under an errstate that ignores the overflow, and the correlations report
    it.
    """
    if input_kind not in INPUT_KINDS:
        raise ValueError(f"input_kind must be one of {INPUT_KINDS}, got {input_kind!r}")
    if T <= plant.m:
        raise BadLength(f"T must exceed the plant memory m={plant.m}; got T={T}")
    if rng is None:
        rng = np.random.default_rng(plant.seed)
    if input_kind == "white_gaussian":
        inputs = rng.standard_normal(T)
    else:
        inputs = rng.uniform(-1.0, 1.0, T)
    inputs.setflags(write=False)
    if plant.noise_std == 0.0:
        return inputs, None

    def noise(out: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=out)
        out *= plant.noise_std
        return out

    return inputs, noise


def regressor_rows(plant: HarxPlant, inputs: np.ndarray, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """Write rows ``a`` to ``b`` (exclusive, b > a) of the regressor matrix of
    ``inputs`` into ``out``, a float64 (b - a, n) array or view, and return it.

    Row k is the regressor at t = m + k; its block i is the basis of r(t - i).
    The basis is evaluated once per sample, newest sample first, into a
    (b - a + m - 1, l) window, so every row is a contiguous m * l slice of
    it, one sample (l values) before the row above: all the rows are one
    copy of a view with a negative row stride.  A one-delay plant's basis is
    its rows, and goes straight into ``out``.  A row depends on its own
    samples alone, so rows built a slice at a time equal those built all at
    once.
    """
    m, l = plant.m, plant.basis.l
    if m == 1:
        return plant.basis.evaluate_many(inputs[a:b], out=out)
    k = b - a
    window = plant.basis.evaluate_many(inputs[a : b + m - 1][::-1])
    np.copyto(out, np.ndarray((k, m * l), np.float64, window, (k - 1) * l * 8, (-l * 8, 8)))
    return out


def generate_sequence(
    plant: HarxPlant, input_kind: str = "white_gaussian", *, T: int, rng: np.random.Generator | None = None
) -> Dataset:
    """Simulate a length-``T`` run and return the T - m aligned pairs.

    The inputs and noise are those of :func:`draw_signals`, the noise drawn
    in one piece; the regressor matrix is built whole and the outputs are
    one product with it.
    """
    inputs, noise = draw_signals(plant, input_kind, T=T, rng=rng)
    N = T - plant.m
    X = regressor_rows(plant, inputs, 0, N, np.empty((N, plant.n)))
    with np.errstate(over="ignore", invalid="ignore"):  # estimate_correlations reports an overflow, once
        outputs = X @ true_weight_vector(plant)
        if noise is not None:
            outputs += noise(np.empty(N))
    X.setflags(write=False)
    outputs.setflags(write=False)
    return Dataset(inputs=inputs, X=X, outputs=outputs)


# ---------------------------------------------------------------------------
# The text format of scenario and experiment-spec files: "key = value" lines,
# "#" comments and blank lines, grouped by "[section]" headers.  Keys before
# any header form an unnamed section, which is all a scenario has.

_REQUIRED = object()


class Section:
    """One section's keys, each with its value and line.

    Every fault is raised as ``error`` (ScenarioError or ExperimentSpecError)
    at ``path``, on the line of the key it names, else on the header's line
    (None for the unnamed section).
    """

    def __init__(self, error: type[HarxlabError], path: str | None, name: str | None = None, line: int | None = None):
        self.error, self.path, self.name, self.line = error, path, name, line
        self.values: dict[str, str] = {}  # the keys not taken yet
        self.lines: dict[str, int] = {}  # every key's line

    def fail(self, message: str, key: str | None = None) -> HarxlabError:
        return self.error(message, self.path, self.lines.get(key, self.line))

    def take(self, key: str, convert=str, what: str = "", default=_REQUIRED):
        """Remove ``key`` and return its value through ``convert``; an absent key
        gives ``default`` or, with none given, fails as missing."""
        if key not in self.values:
            if default is _REQUIRED:
                raise self.fail(f"missing required key {key!r}")
            return default
        value = self.values.pop(key)
        try:
            return convert(value)
        except ValueError:
            raise self.fail(f"{key} must be {what}, got {value!r}", key) from None

    def reject_unknown(self) -> None:
        for key in self.values:
            raise self.fail(f"unknown key {key!r}", key)

    @contextlib.contextmanager
    def located(self):
        """Raise a ValueError as a fault on the line of the field its message starts with."""
        try:
            yield
        except ValueError as exc:
            raise self.fail(str(exc), str(exc).split(None, 1)[0]) from None


def read_sections(text: str, path: str | None, error: type[HarxlabError]) -> list[Section]:
    """Split ``text`` into sections, the unnamed one (maybe empty) first."""
    sections = [Section(error, path)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise error("unterminated section header", path, lineno)
            sections.append(Section(error, path, line[1:-1].strip(), lineno))
            continue
        if "=" not in line:
            raise error("expected 'key = value'", path, lineno)
        key, _, value = line.partition("=")
        key, section = key.strip(), sections[-1]
        if key in section.lines:
            raise error(f"duplicate key {key!r}", path, lineno)
        section.values[key], section.lines[key] = value.strip(), lineno
    return sections


def _floats(value: str) -> np.ndarray:
    return np.array([float(x) for x in value.split(",")])


def parse_scenario(text: str, path: str | None = None) -> HarxPlant:
    """Parse scenario text (keys m, l, basis, q, c, noise_std, seed) into a
    plant; errors carry the offending line."""
    scenario, *headed = read_sections(text, path, ScenarioError)
    if headed:
        raise headed[0].fail(f"unknown section [{headed[0].name}]")
    m, l, basis = scenario.take("m", int, "an integer"), scenario.take("l", int, "an integer"), scenario.take("basis")
    if basis != "polynomial":
        raise scenario.fail(f"basis must be 'polynomial', got {basis!r}", "basis")
    with scenario.located():
        plant = HarxPlant(
            m=m,
            basis=polynomial_basis(l),
            q=scenario.take("q", _floats, "comma-separated numbers"),
            c=scenario.take("c", _floats, "comma-separated numbers"),
            noise_std=scenario.take("noise_std", float, "a number", 0.0),
            seed=scenario.take("seed", int, "an integer", 0),
        )
    scenario.reject_unknown()
    return plant


def read_utf8(path, error: type[HarxlabError]) -> str:
    """The text of the file at ``path``; text that is not UTF-8 raises ``error``
    naming ``path``, and an OSError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"not valid UTF-8: {exc}", str(path)) from None


def load_scenario(path) -> HarxPlant:
    """Read and parse a scenario file."""
    return parse_scenario(read_utf8(path, ScenarioError), path=str(path))


def muscle_preset() -> HarxPlant:
    """The shipped stimulated-muscle stand-in scenario (m=3, cubic basis).

    The tap values are synthetic: the structure is the modeled part, the
    numbers are a reproducible placeholder.
    """
    import importlib.resources  # here, so that importing harxlab loads neither it nor tempfile

    text = importlib.resources.files("harxlab").joinpath("scenarios/muscle.scenario").read_text("utf-8")
    return parse_scenario(text, path="builtin:muscle")

