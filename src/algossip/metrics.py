"""Time-stamped run metrics and their CSV form.

One row per checkpoint: outer slot, cumulative inner events, cumulative
transmissions (m-vector sends, failed attempts included), a coarse flop
estimate, the mean objective gap across nodes, the current augmented
Lagrangian, the worst disagreement between the two copies of any link dual,
and an all-nodes feasibility flag. Floats are written with 17 significant
digits so a parsed file reproduces the in-memory log exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

COLUMNS = ("t", "k", "transmissions", "flops", "err_f", "L_value",
           "max_dual_gap", "feasible")


@dataclass
class MetricsRow:
    t: int
    k: int
    transmissions: int
    flops: int
    err_f: float
    L_value: float
    max_dual_gap: float
    feasible: bool

    def to_csv_line(self) -> str:
        return ",".join([
            str(self.t), str(self.k), str(self.transmissions),
            str(self.flops),
            format(self.err_f, ".17g"), format(self.L_value, ".17g"),
            format(self.max_dual_gap, ".17g"),
            "1" if self.feasible else "0",
        ])

    @classmethod
    def from_csv_line(cls, line: str) -> "MetricsRow":
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"malformed metrics line {line!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]),
                   float(parts[4]), float(parts[5]), float(parts[6]),
                   parts[7] == "1")


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


class MetricsLog:
    """Append-only sequence of metric rows with monotone counters."""

    def __init__(self):
        self.rows: list[MetricsRow] = []

    def append(self, row: MetricsRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if (row.k < last.k or row.transmissions < last.transmissions
                    or row.flops < last.flops):
                raise ValueError("counters must be nondecreasing")
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if not isinstance(other, MetricsLog):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(
            all(_same(getattr(a, f.name), getattr(b, f.name))
                for f in fields(MetricsRow))
            for a, b in zip(self.rows, other.rows)
        )

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for row in self.rows:
                fh.write(row.to_csv_line() + "\n")

    @classmethod
    def from_csv(cls, path) -> "MetricsLog":
        log = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(COLUMNS):
                raise ValueError(f"{path}: unexpected header {header!r}")
            for line in fh:
                line = line.strip()
                if line:
                    log.append(MetricsRow.from_csv_line(line))
        return log

    def first_crossing(self, threshold: float,
                       column: str = "err_f") -> MetricsRow | None:
        """First row at which ``column`` drops to or below ``threshold``."""
        for row in self.rows:
            value = getattr(row, column)
            if not math.isnan(value) and value <= threshold:
                return row
        return None

