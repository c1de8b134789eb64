"""Answer oracle of the perfbench benchmark.

An answer is the part of an analysis the paper makes claims about: the
iteration period, and per detected cluster its instance count, its modal
ground-truth phase and whether it was folded. The CLI prints all of it in
the `unveil analyze` report; perfbench_probe prints the same shape as JSON
for in-process calls.

An answer is right when
  - its period equals the true period, and
  - the modal truth phases of the folded clusters map one-to-one onto the
    true phases: every true phase is the modal phase of exactly one folded
    cluster, and no folded cluster has another or no modal phase.

The truth (phase set and period) comes from the simulator's application
model, never from the analysis under test.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

TABLE_TITLE = "== detected computation phases =="
_PERIOD_RE = re.compile(r"^iteration period: (\d+) ")


@dataclass(frozen=True)
class Answer:
    period: int
    bursts: int
    noise: int
    # One (instances, modal truth phase or -1, folded) triple per cluster.
    clusters: tuple[tuple[int, int, bool], ...]

    @staticmethod
    def from_json(obj: dict) -> "Answer":
        return Answer(
            period=int(obj["period"]),
            bursts=int(obj["bursts"]),
            noise=int(obj["noise"]),
            clusters=tuple((int(i), int(m), bool(f)) for i, m, f in obj["clusters"]),
        )


@dataclass(frozen=True)
class Truth:
    phases: frozenset[int]
    period: int

    @staticmethod
    def from_json(obj: dict) -> "Truth":
        return Truth(phases=frozenset(int(p) for p in obj["phases"]), period=int(obj["period"]))


@dataclass
class Verdict:
    ok: bool
    reasons: list[str] = field(default_factory=list)


class ReportError(ValueError):
    """The text is not an `unveil analyze` report."""


def report_table(text: str) -> str:
    """The cluster table block of a report: title line through its last row."""
    lines = text.splitlines()
    try:
        start = lines.index(TABLE_TITLE)
    except ValueError as e:
        raise ReportError("no cluster table in report") from e
    end = start
    while end < len(lines) and lines[end].strip():
        end += 1
    return "\n".join(lines[start:end]) + "\n"


def parse_report(text: str) -> Answer:
    """Parses the answer out of `unveil analyze` stdout."""
    rows = report_table(text).splitlines()[3:]  # title, header, rule
    clusters = []
    noise = 0
    for row in rows:
        cols = row.split()
        if len(cols) != 8:
            raise ReportError(f"malformed cluster row: {row!r}")
        if cols[0] == "noise":
            noise = int(cols[1])
            continue
        modal = -1 if cols[6] == "-" else int(cols[6])
        if cols[7] not in ("yes", "no"):
            raise ReportError(f"malformed folded column: {row!r}")
        clusters.append((int(cols[1]), modal, cols[7] == "yes"))
    periods = [m.group(1) for m in map(_PERIOD_RE.match, text.splitlines()) if m]
    if len(periods) != 1:
        raise ReportError("report has no single 'iteration period' line")
    return Answer(
        period=int(periods[0]),
        bursts=sum(c[0] for c in clusters) + noise,
        noise=noise,
        clusters=tuple(clusters),
    )


def judge(answer: Answer, truth: Truth) -> Verdict:
    reasons = []
    if answer.period != truth.period:
        reasons.append(f"period {answer.period}, true period {truth.period}")
    modal = Counter(m for _, m, folded in answer.clusters if folded)
    if modal != Counter(truth.phases):
        reasons.append(
            f"folded clusters per modal phase {dict(sorted(modal.items()))}"
            f" do not map one-to-one onto true phases {sorted(truth.phases)}"
        )
    return Verdict(ok=not reasons, reasons=reasons)
