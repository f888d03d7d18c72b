"""The benchmark's three workloads: one fixed `harxlab` command line each.

A workload turns the benchmark seed into an experiment spec; only the spec's
seed list depends on it.  Why each workload exists, and which layer it
stresses, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCENARIOS = BENCH_DIR / "scenarios"
DEFAULT_SEED = 1

# Analytic 2 / lambda_max of the criterion-3 plant under white Gaussian input:
# psi = [r, r^2] gives R = diag(1, 3), so lambda_max = 3.
_CRIT3_ETA_REF = 2.0 / 3.0
_SWEEP_MULTIPLES = (0.05, 0.0786, 0.124, 0.195, 0.307, 0.484, 0.762, 1.2, 1.89, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | sweep | wiener
    plant_ref: str  # as written in the spec
    scenario: str  # file under scenarios/ with the same plant, read by the reference model
    T: int
    n_seeds: int
    emit: str = "both"
    filters: tuple[tuple[str, dict], ...] = ()
    grid: tuple[float, ...] = ()

    def seeds(self, seed: int) -> tuple[int, ...]:
        """The spec's seed list: n_seeds consecutive integers starting at 1000 * seed + 1."""
        if seed < 0:
            raise ValueError("the benchmark seed must be >= 0")
        return tuple(1000 * seed + 1 + i for i in range(self.n_seeds))

    def spec_text(self, seed: int) -> str:
        lines = [
            "[experiment]",
            f"plant = {self.plant_ref}",
            f"T = {self.T}",
            "seeds = " + ", ".join(str(s) for s in self.seeds(seed)),
            "outputs = out",
            f"emit = {self.emit}",
        ]
        for name, params in self.filters:
            lines += ["", f"[filter {name}]"] + [f"{k} = {v}" for k, v in params.items()]
        return "\n".join(lines) + "\n"

    def write_inputs(self, seed: int, workdir: Path) -> Path:
        """Write the spec (and the scenario it names) into ``workdir``; returns the spec path."""
        workdir.mkdir(parents=True, exist_ok=True)
        if not self.plant_ref.startswith("builtin:"):
            (workdir / self.plant_ref).write_text((SCENARIOS / self.scenario).read_text("utf-8"), "utf-8")
        spec = workdir / "bench.spec"
        spec.write_text(self.spec_text(seed), "utf-8")
        return spec

    def argv(self, spec: Path, outdir: Path) -> list[str]:
        if self.command == "simulate":
            return ["simulate", str(spec)]
        if self.command == "sweep":
            return ["sweep", str(spec), "--param", "eta", "--grid", ",".join(repr(g) for g in self.grid)]
        return ["wiener", str(spec), "--out", str(outdir / "wiener.json")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_long",
            command="simulate",
            plant_ref="muscle_neg.scenario",
            scenario="muscle_neg.scenario",
            T=5000,
            n_seeds=2,
            filters=(
                ("lms", {"variant": "lms", "eta": 0.002}),
                ("momentum", {"variant": "momentum_lms", "eta": 0.002, "beta": 0.3}),
                ("signed", {"variant": "flms_signed", "eta": 0.002, "beta": 0.2, "v": 0.75}),
                ("modulus", {"variant": "mflms_modulus", "eta": 0.002, "beta": 0.2, "v": 0.75}),
            ),
        ),
        Workload(
            name="sweep_many_seeds",
            command="sweep",
            plant_ref="criterion3.scenario",
            scenario="criterion3.scenario",
            T=300,
            n_seeds=20,
            emit="summary",
            filters=(("signed", {"variant": "flms_signed", "eta": 0.01, "beta": 0.2, "v": 0.5}),),
            grid=tuple(float(f"{k * _CRIT3_ETA_REF:.6g}") for k in _SWEEP_MULTIPLES),
        ),
        Workload(
            name="wiener_long",
            command="wiener",
            plant_ref="builtin:muscle",
            scenario="muscle.scenario",
            T=200000,
            n_seeds=1,
            # a spec needs one filter section; `harxlab wiener` does not run it
            filters=(("lms", {"variant": "lms", "eta": 0.002}),),
        ),
    )
}
