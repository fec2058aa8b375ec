"""Per-instance and aggregate statistics over full explanation enumeration."""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .dual import enumerate_all
from .explain import make_problem
from .hitting import DEFAULT_NODE_BUDGET
from .model import Classifier, Instance
from .oracle import DEFAULT_COMPLETION_CAP, Oracle


@dataclass
class InstanceStats:
    row: int
    predicted: str
    n_axps: int
    n_cxps: int
    axp_size_avg: float
    axp_size_max: int
    cxp_size_avg: float
    cxp_size_max: int
    oracle_calls: int
    wall_time: float


@dataclass
class StatsReport:
    rows: list[InstanceStats] = field(default_factory=list)

    @property
    def total_axps(self) -> int:
        return sum(r.n_axps for r in self.rows)

    @property
    def total_cxps(self) -> int:
        return sum(r.n_cxps for r in self.rows)

    def _avg(self, num: float, den: int) -> float:
        return num / den if den else 0.0

    @property
    def avg_axp_size(self) -> float:
        return self._avg(sum(r.axp_size_avg * r.n_axps for r in self.rows),
                         self.total_axps)

    @property
    def avg_cxp_size(self) -> float:
        return self._avg(sum(r.cxp_size_avg * r.n_cxps for r in self.rows),
                         self.total_cxps)

    @property
    def total_oracle_calls(self) -> int:
        return sum(r.oracle_calls for r in self.rows)

    def to_csv(self, timing: bool = False) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = ["row", "prediction", "n_axps", "n_cxps",
                  "axp_size_avg", "axp_size_max", "cxp_size_avg",
                  "cxp_size_max", "oracle_calls"]
        if timing:
            header.append("wall_ms")
        writer.writerow(header)
        for r in self.rows:
            row = [r.row, r.predicted, r.n_axps, r.n_cxps,
                   f"{r.axp_size_avg:.4f}", r.axp_size_max,
                   f"{r.cxp_size_avg:.4f}", r.cxp_size_max, r.oracle_calls]
            if timing:
                row.append(f"{r.wall_time * 1000:.1f}")
            writer.writerow(row)
        total = ["all", "", self.total_axps, self.total_cxps,
                 f"{self.avg_axp_size:.4f}",
                 max((r.axp_size_max for r in self.rows), default=0),
                 f"{self.avg_cxp_size:.4f}",
                 max((r.cxp_size_max for r in self.rows), default=0),
                 self.total_oracle_calls]
        if timing:
            total.append(f"{sum(r.wall_time for r in self.rows) * 1000:.1f}")
        writer.writerow(total)
        return out.getvalue()


def collect_stats(classifier: Classifier, instances: Sequence[Instance],
                  order: Optional[Sequence[int]] = None,
                  completion_cap: int = DEFAULT_COMPLETION_CAP,
                  mhs_budget: int = DEFAULT_NODE_BUDGET) -> StatsReport:
    """Run full enumeration per instance with a fresh oracle session each."""
    report = StatsReport()
    for row, instance in enumerate(instances):
        oracle = Oracle(classifier, completion_cap=completion_cap)
        t0 = time.perf_counter()
        problem = make_problem(oracle, instance)
        axps, cxps = enumerate_all(problem, order=order, mhs_budget=mhs_budget)
        elapsed = time.perf_counter() - t0
        axp_sizes = [len(a.features) for a in axps]
        cxp_sizes = [len(c.features) for c in cxps]
        report.rows.append(InstanceStats(
            row=row,
            predicted=classifier.classes[problem.predicted],
            n_axps=len(axps),
            n_cxps=len(cxps),
            axp_size_avg=sum(axp_sizes) / len(axp_sizes) if axp_sizes else 0.0,
            axp_size_max=max(axp_sizes, default=0),
            cxp_size_avg=sum(cxp_sizes) / len(cxp_sizes) if cxp_sizes else 0.0,
            cxp_size_max=max(cxp_sizes, default=0),
            oracle_calls=oracle.stats.total_calls,
            wall_time=elapsed,
        ))
    return report
