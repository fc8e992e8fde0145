"""Layered-tissue synthetic data generator and the benchmark harness that
scores segmentation methods against the generated ground truth."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .cluster import DomainLabels
from .dataset import ExpressionDataset
from .metrics import hom, nmi


@dataclass
class SyntheticSpec:
    """Banded-tissue generator parameters."""

    n_cells: int = 2000
    n_genes: int = 200
    n_domains: int = 5
    band_axis: str = "x"
    program_strength: float = 5.0
    noise_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 1 or self.n_genes < 1:
            raise ValueError("n_cells and n_genes must be positive")
        if not 1 <= self.n_domains <= self.n_genes:
            raise ValueError("need 1 <= n_domains <= n_genes")
        if self.band_axis not in ("x", "y"):
            raise ValueError("band_axis must be 'x' or 'y'")
        if self.program_strength < 0 or self.noise_sd < 0:
            raise ValueError("program_strength and noise_sd must be non-negative")
        for value in (self.program_strength, self.noise_sd):
            if not np.isfinite(value):
                raise ValueError("generator parameters must be finite")


def generate_tissue(spec: SyntheticSpec) -> tuple[ExpressionDataset, DomainLabels]:
    """Cells uniform in the unit square, domains as bands along one axis.

    Each domain owns a block of program genes with boosted Poisson rates.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    coords = rng.random((2, spec.n_cells))
    axis = 0 if spec.band_axis == "x" else 1
    domains = np.minimum(
        (coords[axis] * spec.n_domains).astype(np.int64), spec.n_domains - 1
    )
    per_domain = spec.n_genes // spec.n_domains
    lam = np.full((spec.n_genes, spec.n_cells), 1.0)
    for d in range(spec.n_domains):
        genes = slice(d * per_domain, (d + 1) * per_domain)
        lam[genes, domains == d] += spec.program_strength
    X = rng.poisson(lam).astype(np.float64)
    if spec.noise_sd > 0:
        X = np.maximum(X + rng.normal(0.0, spec.noise_sd, X.shape), 0.0)
    ds = ExpressionDataset(
        X=X,
        coords=coords,
        gene_names=[f"g{i}" for i in range(spec.n_genes)],
        cell_ids=[f"c{j}" for j in range(spec.n_cells)],
        raw_counts=X.copy(),
    )
    return ds, DomainLabels(labels=domains, n_domains=spec.n_domains)


@dataclass
class BenchmarkRun:
    method: str
    seed: int
    nmi: float
    hom: float
    error: str | None = None


@dataclass
class BenchmarkReport:
    runs: list[BenchmarkRun] = field(default_factory=list)

    def summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        methods = []
        for run in self.runs:
            if run.method not in methods:
                methods.append(run.method)
        for method in methods:
            rows = [r for r in self.runs if r.method == method]
            ok = [r for r in rows if r.error is None]
            nmis = [r.nmi for r in ok]
            homs = [r.hom for r in ok]
            out[method] = {
                "nmi_mean": float(np.mean(nmis)) if nmis else float("nan"),
                "nmi_sd": float(np.std(nmis, ddof=1)) if len(nmis) > 1 else 0.0,
                "hom_mean": float(np.mean(homs)) if homs else float("nan"),
                "hom_sd": float(np.std(homs, ddof=1)) if len(homs) > 1 else 0.0,
                "nmi_values": nmis,
                "hom_values": homs,
                "failures": len(rows) - len(ok),
            }
        return out


def run_benchmark(ds: ExpressionDataset, truth: DomainLabels,
                  methods: list[tuple[str, object]], repeats: int = 5,
                  base_seed: int = 0) -> BenchmarkReport:
    """Score each (name, fn) method over seeded repetitions.

    A method is a callable ``fn(ds, n_domains, seed) -> labels``; failures are
    recorded per run rather than aborting the table.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    report = BenchmarkReport()
    for rep in range(repeats):
        seed = base_seed + rep
        for name, fn in methods:
            try:
                labels = fn(ds, truth.n_domains, seed)
                score_n = nmi(truth.labels, labels)
                score_h = hom(truth.labels, labels)
                report.runs.append(BenchmarkRun(name, seed, score_n, score_h))
            except Exception as exc:  # recorded, not fatal
                report.runs.append(
                    BenchmarkRun(name, seed, float("nan"), float("nan"), str(exc))
                )
    return report


def write_benchmark_report(json_path, csv_path, report: BenchmarkReport) -> None:
    with open(json_path, "w") as fh:
        json.dump(
            {
                "summary": report.summary(),
                "runs": [
                    {"method": r.method, "seed": r.seed, "nmi": r.nmi,
                     "hom": r.hom, "error": r.error}
                    for r in report.runs
                ],
            },
            fh,
            indent=2,
            allow_nan=True,
        )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "seed", "nmi", "hom", "error"])
        for r in report.runs:
            writer.writerow([r.method, r.seed, r.nmi, r.hom, r.error or ""])
