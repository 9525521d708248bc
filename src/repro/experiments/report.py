"""Reproduction report generator.

Reads the numbers a benchmark run saved under ``benchmarks/out/``
(``<stem>.json``, written by :meth:`ArtifactResult.save`) and assembles
one markdown report: every claim of every artifact in
:data:`~repro.experiments.artifacts.ARTIFACTS`, evaluated by the same
predicates the benchmark suite asserts, then the rendered artifacts.
Nothing is trained.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.artifacts import ARTIFACTS, ArtifactResult, ClaimCheck

__all__ = ["build_report"]


def build_report(out_dir: str | Path = "benchmarks/out") -> str:
    """Assemble the markdown reproduction report from saved artifacts."""
    out_dir = Path(out_dir)
    checks: list[ClaimCheck] = []
    for artifact in ARTIFACTS.values():
        path = out_dir / f"{artifact.stem}.json"
        if path.exists():
            checks.extend(ArtifactResult.load(path).claims())
        else:
            checks.extend(
                ClaimCheck(claim.text, None, f"{path.name} missing") for claim in artifact.claims
            )
    lines = [
        "# Reproduction report",
        "",
        "Auto-generated from the artifacts in `benchmarks/out/`.",
        "",
        "## Claim checklist",
        "",
    ]
    lines.extend(check.render() for check in checks)
    lines.append("")
    lines.append("## Raw artifacts")
    lines.append("")
    for path in sorted(out_dir.glob("*.txt")):
        lines.append(f"### {path.name}")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
