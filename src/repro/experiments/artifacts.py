"""The paper's evaluation, declared once.

§IV is ten artifacts — Fig. 2(a)/(b), the §IV-C receive rates, Tables
II-VII and Fig. 3 — and this repo adds three ablations.  Each is one
entry of :data:`ARTIFACTS`: the runs that make it up, what is measured
on them, its title, the ``benchmarks/out/`` file it is saved under, and
the inequalities that count as "reproduced".  :func:`produce` is the
one way to make them: ``repro table|fig|rates`` and
``benchmarks/test_artifacts.py`` call it, and ``repro report`` evaluates
the same claims on the numbers it saved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.experiments.analysis import relative_slowdown, time_to_threshold
from repro.experiments.configs import ExperimentScale, get_scale
from repro.experiments.render import render_curves, render_table
from repro.experiments.runner import (
    RunSpec,
    build_context,
    online_evaluate,
    register_context,
)
from repro.parallel import run_specs
from repro.sim.evaluate import DrivingCondition

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "ArtifactResult",
    "Claim",
    "ClaimCheck",
    "Run",
    "produce",
]

CONDITIONS = [cond.value for cond in DrivingCondition]
MAIN_METHODS = ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")
#: Samples per loss curve (the figures print every other one).
N_POINTS = 21
DENSE = "Navi. (Dense)"


@dataclass(frozen=True)
class Run:
    """One training run of an artifact; ``label`` names its column or row."""

    label: str
    method: str
    wireless: bool
    coreset_size: int | None = None
    coreset_strategy: str | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Measured for the claims only, not rendered (full LbChat beside an ablation).
    reference: bool = False

    def spec(self, scale: ExperimentScale, seed: int, overrides: Mapping[str, Any]) -> RunSpec:
        """The job this run is at ``scale``/``seed``; its own overrides win."""
        return RunSpec(
            method=self.method,
            scale=scale,
            wireless=self.wireless,
            seed=seed,
            coreset_size=self.coreset_size,
            coreset_strategy=self.coreset_strategy,
            overrides={**overrides, **self.overrides},
        )


@dataclass(frozen=True)
class Claim:
    """One of the paper's qualitative claims: ``check(result) -> (held, detail)``."""

    text: str
    check: Callable[["ArtifactResult"], tuple[bool, str]]


@dataclass
class ClaimCheck:
    """A claim evaluated on measured numbers (``verdict`` None: none saved)."""

    claim: str
    verdict: bool | None
    detail: str

    def render(self) -> str:
        """One markdown checklist line for this claim."""
        mark = "?" if self.verdict is None else ("x" if self.verdict else " ")
        return f"- [{mark}] {self.claim} — {self.detail}"


@dataclass(frozen=True)
class Artifact:
    """One table or figure of the evaluation.

    ``kind`` says what is measured on each run: ``"success"`` (success
    rate per driving condition, needs the online evaluation), ``"loss"``
    (the fleet's validation-loss curve), ``"receive"`` (the §IV-C
    receive rate) or ``"summary"`` (final loss, receive rate and mean
    chat length; one ``row`` per run).
    """

    name: str
    title: str
    #: ``benchmarks/out/<stem>.txt`` and ``.json`` (EXPERIMENTS.md cites these).
    stem: str
    kind: str
    #: A function of the scale where the runs depend on it (Table IV's sizes).
    runs: tuple[Run, ...] | Callable[[ExperimentScale], tuple[Run, ...]]
    claims: tuple[Claim, ...]
    #: Line template of the ``receive`` and ``summary`` kinds.
    row: str = ""

    def runs_for(self, scale: ExperimentScale) -> tuple[Run, ...]:
        """This artifact's runs at ``scale``."""
        return self.runs(scale) if callable(self.runs) else self.runs


@dataclass
class ArtifactResult:
    """A reproduced artifact: plain numbers, so it saves and loads as JSON.

    ``numbers[label]`` is one run's measurement — ``{condition: %}``,
    a loss curve over ``grid``, a receive rate, or a summary dict, by
    the artifact's kind — reference runs included; ``columns`` are the
    labels that render.
    """

    artifact: Artifact
    scale: str
    seed: int
    columns: list[str]
    numbers: dict[str, Any]
    receive_rates: dict[str, float]
    grid: list[float] | None = None

    @property
    def title(self) -> str:
        return self.artifact.title

    @property
    def values(self) -> dict[str, dict[str, float]]:
        """A success table the way the paper prints it: ``[condition][column]``."""
        return {
            cond: {label: rates[cond] for label, rates in self.numbers.items()}
            for cond in CONDITIONS
        }

    def cell(self, condition: str, column: str) -> float:
        """One success-table value by condition and column."""
        return self.numbers[column][condition]

    def final(self, label: str) -> float:
        """A run's final loss in a loss figure."""
        return float(self.numbers[label][-1])

    def render(self) -> str:
        """The artifact as aligned text, paper-shaped."""
        kind, title = self.artifact.kind, self.title
        if kind == "success":
            return render_table(title, CONDITIONS, self.columns, self.values)
        if kind == "loss":
            return render_curves(title, self.grid, {c: self.numbers[c] for c in self.columns})
        row = self.artifact.row
        if kind == "receive":
            rows = [row.format(label=c, receive_rate=self.numbers[c]) for c in self.columns]
            return "\n".join([title, *rows])
        rows = [row.format(label=c, **self.numbers[c]) for c in self.columns]
        return "\n".join([title, "=" * len(title), *rows])

    def claims(self) -> list[ClaimCheck]:
        """Every claim of the artifact, evaluated on these numbers."""
        checks = []
        for claim in self.artifact.claims:
            held, detail = claim.check(self)
            checks.append(ClaimCheck(claim.text, bool(held), detail))
        return checks

    def save(self, out_dir: str | Path) -> None:
        """Write ``<stem>.txt`` (the rendering) and ``<stem>.json`` (the numbers)."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{self.artifact.stem}.txt").write_text(self.render() + "\n")
        payload = {
            "artifact": self.artifact.name,
            "scale": self.scale,
            "seed": self.seed,
            "columns": self.columns,
            "numbers": self.numbers,
            "receive_rates": self.receive_rates,
            "grid": self.grid,
        }
        (out_dir / f"{self.artifact.stem}.json").write_text(json.dumps(payload, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ArtifactResult":
        """The result :meth:`save` wrote to ``path`` (a ``.json``)."""
        payload = json.loads(Path(path).read_text())
        return cls(artifact=ARTIFACTS[payload.pop("artifact")], **payload)


def _summary(result) -> dict[str, float]:
    """The ``summary`` kind's measurement of one run."""
    chats = result.counters.get("chats", 0.0)
    return {
        "final_loss": float(result.loss_curve(N_POINTS)[1][-1]),
        "receive_rate": result.receive_rate,
        "mean_chat_s": result.counters.get("chat_seconds", 0.0) / max(chats, 1),
    }


def produce(
    names,
    scale: ExperimentScale | str = "ci",
    seed: int = 1,
    jobs: int = 1,
    overrides: Mapping[str, Any] | None = None,
) -> dict[str, ArtifactResult]:
    """Train, measure and assemble the artifacts named.

    Takes the union of their runs, trains each distinct
    :class:`RunSpec` once (``jobs`` worker processes), online-evaluates
    once each run a success table needs, and returns
    ``{name: ArtifactResult}``.  ``overrides`` reaches every spec (it is
    how the CLI's execution flags arrive); a run's own overrides win
    over it.
    """
    scale = get_scale(scale) if isinstance(scale, str) else scale
    overrides = overrides or {}
    context = build_context(scale)
    register_context(context)
    specs: list[RunSpec] = []  # distinct, in first-use order (a spec is unhashable)
    plan: dict[str, list[tuple[Run, int]]] = {}
    for name in names:
        plan[name] = []
        for run in ARTIFACTS[name].runs_for(scale):
            spec = run.spec(scale, seed, overrides)
            if spec not in specs:
                specs.append(spec)
            plan[name].append((run, specs.index(spec)))
    trained = run_specs(specs, jobs=jobs)
    success: dict[int, dict[str, float]] = {}
    out = {}
    for name, runs in plan.items():
        artifact = ARTIFACTS[name]
        numbers: dict[str, Any] = {}
        grid = None
        for run, i in runs:
            result = trained[i]
            if artifact.kind == "success":
                if i not in success:
                    success[i] = online_evaluate(result, context, seed=seed)
                numbers[run.label] = success[i]
            elif artifact.kind == "loss":
                # The time axis is the runs' own, so a duration override
                # cannot put curves on a grid they were not sampled at.
                run_grid, curve = result.loss_curve(N_POINTS)
                if grid is None:
                    grid = run_grid
                elif not np.array_equal(run_grid, grid):
                    raise ValueError(
                        f"{name}: run {run.label!r} ends at {run_grid[-1]} s, "
                        f"{runs[0][0].label!r} at {grid[-1]} s; the curves of "
                        "one figure must share a time grid"
                    )
                numbers[run.label] = curve.tolist()
            elif artifact.kind == "receive":
                numbers[run.label] = result.receive_rate
            else:
                numbers[run.label] = _summary(result)
        out[name] = ArtifactResult(
            artifact=artifact,
            scale=scale.name,
            seed=seed,
            columns=[run.label for run, _ in runs if not run.reference],
            numbers=numbers,
            receive_rates={run.label: trained[i].receive_rate for run, i in runs},
            grid=None if grid is None else grid.tolist(),
        )
    return out


# ---------------------------------------------------------------------------
# Claims.  The thresholds are the ones the benchmark suite has always
# asserted; each check returns (held, one-line detail).
# ---------------------------------------------------------------------------


def _every_method_learns(r: ArtifactResult) -> tuple[bool, str]:
    stuck = [c for c in r.columns if not r.numbers[c][-1] < r.numbers[c][0]]
    return not stuck, f"not below its initial loss: {stuck}" if stuck else "all final < initial"


def _near_central_server(r: ArtifactResult) -> tuple[bool, str]:
    lbchat, proxskip = r.final("LbChat"), r.final("ProxSkip")
    return (
        lbchat <= 1.5 * proxskip,
        f"final loss LbChat={lbchat:.3f} vs ProxSkip={proxskip:.3f} (bound 1.5x)",
    )


def _below_decentralized(r: ArtifactResult) -> tuple[bool, str]:
    lbchat, dds, dp = r.final("LbChat"), r.final("DFL-DDS"), r.final("DP")
    return (
        lbchat <= dds and lbchat <= dp,
        f"final loss LbChat={lbchat:.3f}, DFL-DDS={dds:.3f}, DP={dp:.3f}",
    )


def _fig2_claims(setting: str, fig: str) -> tuple[Claim, ...]:
    return (
        Claim(f"Every method learns ({fig})", _every_method_learns),
        Claim(f"{setting} LbChat converges like the central server", _near_central_server),
        Claim(f"LbChat ends no higher than the fully decentralized baselines ({fig})",
              _below_decentralized),
    )


def _receive_gap(r: ArtifactResult) -> tuple[bool, str]:
    lbchat, dds, dp = (r.numbers[m] for m in ("LbChat", "DFL-DDS", "DP"))
    return (
        lbchat > dds and lbchat > dp,
        f"LbChat={lbchat:.0%}, DFL-DDS={dds:.0%}, DP={dp:.0%}",
    )


def _receive_regime(r: ArtifactResult) -> tuple[bool, str]:
    return r.numbers["LbChat"] >= 0.6, f"LbChat={r.numbers['LbChat']:.0%} (bound 60%)"


def _straight_solved(r: ArtifactResult) -> tuple[bool, str]:
    rate = r.cell("Straight", "LbChat")
    return rate >= 80.0, f"LbChat Straight={rate:.0f}% (bound 80%)"


def _dense_vs_decentralized(slack: float) -> Callable[[ArtifactResult], tuple[bool, str]]:
    def check(r: ArtifactResult) -> tuple[bool, str]:
        lbchat, dds, dp = (r.cell(DENSE, m) for m in ("LbChat", "DFL-DDS", "DP"))
        return (
            lbchat >= dds - slack and lbchat >= dp - slack,
            f"{DENSE}: LbChat={lbchat:.0f}, DFL-DDS={dds:.0f}, DP={dp:.0f} (slack {slack:.0f})",
        )

    return check


def _difficulty_ladder(r: ArtifactResult) -> tuple[bool, str]:
    dense, empty = r.cell(DENSE, "LbChat"), r.cell("Navi. (Empty)", "LbChat")
    return dense <= empty + 10.0, f"LbChat {DENSE}={dense:.0f} vs Navi. (Empty)={empty:.0f}"


def _default_size_competitive(r: ArtifactResult) -> tuple[bool, str]:
    default = r.cell(DENSE, "LbChat")
    large, small = (r.cell(DENSE, column) for column in r.columns[:2])  # the two W/O columns
    return (
        default >= min(large, small) - 10.0,
        f"{DENSE} w/o loss: default={default:.0f}, 10x={large:.0f}, 1/10x={small:.0f}",
    )


def _full_not_behind(r: ArtifactResult) -> tuple[bool, str]:
    full, masked = r.cell(DENSE, "LbChat"), r.cell(DENSE, "W wireless loss")
    return (
        full >= masked - 10.0,
        f"{DENSE} w loss: full LbChat={full:.0f}, ablated={masked:.0f} (slack 10)",
    )


def _sco_same_league(r: ArtifactResult) -> tuple[bool, str]:
    sco, full = r.cell(DENSE, "W/O wireless loss"), r.cell(DENSE, "LbChat")
    return sco >= full - 25.0, f"{DENSE} w/o loss: SCO={sco:.0f}, full LbChat={full:.0f} (slack 25)"


def _sco_final_league(r: ArtifactResult) -> tuple[bool, str]:
    lbchat, sco = r.final("LbChat"), r.final("SCO")
    return sco <= 1.6 * lbchat + 0.1, f"final loss LbChat={lbchat:.3f} vs SCO={sco:.3f}"


def _lbchat_converges_first(r: ArtifactResult) -> tuple[bool, str]:
    lbchat, sco = r.numbers["LbChat"], r.numbers["SCO"]
    threshold = 1.3 * max(lbchat[-1], sco[-1])
    t_lbchat = time_to_threshold(r.grid, lbchat, threshold)
    t_sco = time_to_threshold(r.grid, sco, threshold)
    if np.isinf(t_lbchat):
        return False, f"LbChat never reaches loss {threshold:.3f}"
    if np.isinf(t_sco):
        return True, f"only LbChat reaches loss {threshold:.3f} (at {t_lbchat:.0f} s)"
    return (
        t_lbchat <= 1.8 * t_sco + 30.0,
        f"time to loss {threshold:.3f}: LbChat {t_lbchat:.0f} s, SCO {t_sco:.0f} s "
        f"({relative_slowdown(r.grid, lbchat, sco, threshold):.2f}x)",
    )


def _priority_helps(r: ArtifactResult) -> tuple[bool, str]:
    full = r.numbers["LbChat (full)"]["receive_rate"]
    masked = r.numbers["LbChat (no priority)"]["receive_rate"]
    return full >= masked - 0.1, f"receive rate {full:.0%} with Eq. 5, {masked:.0%} without"


def _strategies_functional(r: ArtifactResult) -> tuple[bool, str]:
    losses = {c: r.numbers[c]["final_loss"] for c in r.columns}
    return (
        max(losses.values()) <= 1.6 * min(losses.values()) + 0.2,
        "final loss " + ", ".join(f"{c}={loss:.3f}" for c, loss in losses.items()),
    )


def _harsh_award_shortens_chats(r: ArtifactResult) -> tuple[bool, str]:
    harsh = r.numbers["lambda_c=0.5"]["mean_chat_s"]
    free = r.numbers["lambda_c=0.0"]["mean_chat_s"]
    return harsh <= free + 1.0, f"mean chat {harsh:.1f} s at 0.5 vs {free:.1f} s at 0"


def _default_award_functional(r: ArtifactResult) -> tuple[bool, str]:
    default = r.numbers["lambda_c=0.02"]["final_loss"]
    free = r.numbers["lambda_c=0.0"]["final_loss"]
    return default <= 1.5 * free + 0.2, f"final loss {default:.3f} at 0.02 vs {free:.3f} at 0"


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------


def _methods(wireless: bool) -> tuple[Run, ...]:
    return tuple(Run(method, method, wireless) for method in MAIN_METHODS)


def _both_settings(method: str, reference_wireless: bool) -> tuple[Run, ...]:
    """An ablation without and with loss, beside full LbChat for its claim."""
    return (
        Run("W/O wireless loss", method, False),
        Run("W wireless loss", method, True),
        Run("LbChat", "LbChat", reference_wireless, reference=True),
    )


def _table4_runs(scale: ExperimentScale) -> tuple[Run, ...]:
    large, small = scale.coreset_size * 10, max(scale.coreset_size // 10, 2)
    return (
        Run(f"{large} (W/O)", "LbChat", False, coreset_size=large),
        Run(f"{small} (W/O)", "LbChat", False, coreset_size=small),
        Run(f"{large} (W)", "LbChat", True, coreset_size=large),
        Run(f"{small} (W)", "LbChat", True, coreset_size=small),
        Run("LbChat", "LbChat", False, reference=True),
    )


_SUMMARY_ROW = "final loss {final_loss:6.3f}   receive rate {receive_rate:6.1%}"

ARTIFACTS: dict[str, Artifact] = {
    artifact.name: artifact
    for artifact in (
        Artifact(
            "fig2a",
            "Fig. 2: training loss vs. time (w/o wireless loss)",
            "fig2a_loss_no_wireless",
            "loss",
            _methods(False),
            _fig2_claims("Without wireless loss", "Fig. 2a"),
        ),
        Artifact(
            "fig2b",
            "Fig. 2: training loss vs. time (w wireless loss)",
            "fig2b_loss_with_wireless",
            "loss",
            _methods(True),
            _fig2_claims("Under wireless loss", "Fig. 2b"),
        ),
        Artifact(
            "rates",
            "Successful model receiving rate (w wireless loss)",
            "receive_rates",
            "receive",
            _methods(True),
            (
                Claim("LbChat's receive rate is above DFL-DDS/DP (paper: 87% vs ~51%)",
                      _receive_gap),
                Claim("LbChat's receive rate is in the high-completion regime", _receive_regime),
            ),
            row="  {label:10s} {receive_rate:6.1%}",
        ),
        Artifact(
            "table2",
            "Table II: driving success rate (w/o wireless loss) (%)",
            "table2_success_no_wireless",
            "success",
            _methods(False),
            (
                Claim("LbChat solves the easy conditions (Table II)", _straight_solved),
                Claim("LbChat keeps up with DFL-DDS/DP in dense traffic (Table II)",
                      _dense_vs_decentralized(5.0)),
                Claim("Dense traffic is no easier than empty roads (Table II)",
                      _difficulty_ladder),
            ),
        ),
        Artifact(
            "table3",
            "Table III: driving success rate (w wireless loss) (%)",
            "table3_success_with_wireless",
            "success",
            _methods(True),
            (
                Claim("LbChat solves the easy conditions (Table III)", _straight_solved),
                Claim("Under loss LbChat beats DFL-DDS/DP in dense traffic (Table III)",
                      _dense_vs_decentralized(0.0)),
            ),
        ),
        Artifact(
            "table4",
            "Table IV: success rate with different coreset sizes (%)",
            "table4_coreset_size",
            "success",
            _table4_runs,
            (Claim("The default coreset size is competitive with 10x and 1/10x (Table IV)",
                   _default_size_competitive),),
        ),
        Artifact(
            "table5",
            "Table V: success rate with equal comp. ratio (%)",
            "table5_equal_compression",
            "success",
            _both_settings("LbChat (equal comp.)", reference_wireless=True),
            (Claim("Full LbChat does not lose to equal compression (Table V)",
                   _full_not_behind),),
        ),
        Artifact(
            "table6",
            "Table VI: success rate with avg. aggregation (%)",
            "table6_avg_aggregation",
            "success",
            _both_settings("LbChat (avg. agg.)", reference_wireless=True),
            (Claim("Full LbChat does not lose to plain averaging (Table VI)",
                   _full_not_behind),),
        ),
        Artifact(
            "table7",
            "Table VII: success rate with sharing coreset only (%)",
            "table7_sco",
            "success",
            _both_settings("SCO", reference_wireless=False),
            (Claim("SCO stays in full LbChat's quality league (Table VII)", _sco_same_league),),
        ),
        Artifact(
            "fig3",
            "Fig. 3: training loss vs. time (LbChat & SCO)",
            "fig3_lbchat_vs_sco",
            "loss",
            (Run("LbChat", "LbChat", True), Run("SCO", "SCO", True)),
            (
                Claim("SCO ends in LbChat's league of final loss (Fig. 3)", _sco_final_league),
                Claim("LbChat converges at least as fast as coreset-only SCO (Fig. 3)",
                      _lbchat_converges_first),
            ),
        ),
        Artifact(
            "ablation_no_priority",
            "Extra ablation: Eq. 5 route prioritization (w wireless loss)",
            "ablation_no_prioritization",
            "summary",
            (
                Run("LbChat (full)", "LbChat", True),
                Run("LbChat (no priority)", "LbChat (no priority)", True),
            ),
            (Claim("Masking Eq. 5's ranking does not raise the receive rate", _priority_helps),),
            row="{label:22s} receive rate: {receive_rate:6.1%}",
        ),
        Artifact(
            "ablation_coreset_strategy",
            "Extra ablation: coreset construction strategy (LbChat, w loss)",
            "ablation_coreset_strategy",
            "summary",
            tuple(
                Run(strategy, "LbChat", True, coreset_strategy=strategy)
                for strategy in ("layered", "uniform", "kmeans")
            ),
            (Claim("Every coreset construction keeps LbChat functional (§V)",
                   _strategies_functional),),
            row="{label:8s}  " + _SUMMARY_ROW,
        ),
        Artifact(
            "ablation_lambda_c",
            "Extra ablation: Eq. 7 time-award coefficient lambda_c",
            "ablation_lambda_c",
            "summary",
            tuple(
                Run(f"lambda_c={lam}", "LbChat", True, overrides={"lambda_c": lam})
                for lam in (0.0, 0.02, 0.5)
            ),
            (
                Claim("A harsh time award shortens chats (Eq. 7)", _harsh_award_shortens_chats),
                Claim("The default lambda_c keeps the fleet learning", _default_award_functional),
            ),
            row="{label:14s}  " + _SUMMARY_ROW + "   mean chat {mean_chat_s:5.1f}s",
        ),
    )
}
