"""Integration: every paper experiment passes all its claims."""

import pytest

from repro.experiments import (
    coherence_exp,
    fig1,
    fig3,
    fig4,
    fig5,
    fig7,
    fig89,
    fig1011,
    litmus_matrix,
    scaling,
    staticrace_exp,
    wellsync_exp,
    xval,
)
from repro.experiments.base import Claim, ExperimentResult

_FAST_MODULES = {
    "FIG1": fig1,
    "FIG3": fig3,
    "FIG4": fig4,
    "FIG5": fig5,
    "FIG7": fig7,
    "FIG8_9": fig89,
    "FIG10_11": fig1011,
    "TAB-WSYNC": wellsync_exp,
}

_SLOW_MODULES = {
    "TAB-LITMUS": litmus_matrix,
    "TAB-XVAL": xval,
    "TAB-COHERENCE": coherence_exp,
    "TAB-SCALE": scaling,
    "TAB-STATIC": staticrace_exp,
}


@pytest.mark.parametrize("experiment_id", sorted(_FAST_MODULES))
def test_figure_experiment_passes(experiment_id):
    result = _FAST_MODULES[experiment_id].run()
    assert result.experiment_id == experiment_id
    failing = [claim for claim in result.claims if not claim.holds]
    assert not failing, "\n".join(str(claim) for claim in failing)


@pytest.mark.parametrize("experiment_id", sorted(_SLOW_MODULES))
def test_table_experiment_passes(experiment_id):
    result = _SLOW_MODULES[experiment_id].run()
    failing = [claim for claim in result.claims if not claim.holds]
    assert not failing, "\n".join(str(claim) for claim in failing)


class TestExperimentInfra:
    def test_claim_holds(self):
        assert Claim("d", 1, 1).holds
        assert not Claim("d", 1, 2).holds
        assert "FAIL" in str(Claim("d", 1, 2))

    def test_result_aggregation(self):
        result = ExperimentResult("X", "t")
        result.claim("ok", True, True)
        assert result.passed
        result.claim("bad", True, False)
        assert not result.passed
        assert "FAIL" in result.summary()

    def test_report_markdown(self):
        from repro.experiments.report import FullReport, to_markdown

        result = ExperimentResult("X", "title")
        result.claim("something", 1, 1)
        result.details = "table here"
        markdown = to_markdown(FullReport([result]))
        assert "## X — title [PASS]" in markdown
        assert "table here" in markdown
        assert "ALL EXPERIMENTS PASS" in markdown
