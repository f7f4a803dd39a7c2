"""Text renderer for Table 5: Why-Not vs NedExplain answers per use
case (``repro.cli evaluate``).  The Fig. 5/6 and ablation tables are
rendered from a gate report by :mod:`repro.bench.artifacts`.
"""

from __future__ import annotations

from typing import Sequence

from .runner import UseCaseResult


def _truncate(text: str, width: int) -> str:
    if len(text) <= width:
        return text
    return text[: width - 3] + "..."


def render_table5(results: Sequence[UseCaseResult]) -> str:
    """Table 5: Why-Not and NedExplain answers, per use case."""
    lines = [
        "Table 5: Why-Not and NedExplain answers, per use case",
        f"{'Use case':<10}{'Why-Not':<18}{'Detailed':<46}"
        f"{'Condensed':<18}{'Secondary'}",
        "-" * 110,
    ]
    for result in results:
        detailed = _truncate(result.ned_answer_text(), 44)
        condensed = _truncate(
            " ; ".join(
                ("{" + ", ".join(a.condensed_labels) + "}")
                for a in result.ned.answers
            ),
            16,
        )
        secondary = ", ".join(result.ned.secondary_labels) or "-"
        lines.append(
            f"{result.use_case.name:<10}"
            f"{_truncate(result.whynot_answer_text(), 16):<18}"
            f"{detailed:<46}{condensed:<18}{secondary}"
        )
    return "\n".join(lines)
