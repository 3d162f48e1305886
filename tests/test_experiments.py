"""Integration: every paper experiment passes all its claims."""

import pytest

from repro.experiments.base import Claim, ExperimentResult
from repro.experiments.report import ALL_EXPERIMENTS

_BY_ID = {module.EXPERIMENT_ID: module for module in ALL_EXPERIMENTS}


def _assert_passes(experiment_id):
    result = _BY_ID[experiment_id].run()
    assert result.experiment_id == experiment_id
    failing = [claim for claim in result.claims if not claim.holds]
    assert not failing, "\n".join(str(claim) for claim in failing)


def test_every_experiment_has_a_unique_id():
    assert len(_BY_ID) == len(ALL_EXPERIMENTS) == 25


@pytest.mark.parametrize("experiment_id", sorted(i for i in _BY_ID if i.startswith("FIG")))
def test_figure_experiment_passes(experiment_id):
    _assert_passes(experiment_id)


@pytest.mark.parametrize(
    "experiment_id", sorted(i for i in _BY_ID if not i.startswith("FIG"))
)
def test_table_experiment_passes(experiment_id):
    _assert_passes(experiment_id)


def test_fig1_table_renders_for_every_model():
    from repro.experiments import fig1
    from repro.models.registry import available_models, get_model

    assert "x != y" in fig1.run().details
    tables = [fig1.render_table(get_model(name)) for name in available_models()]
    assert len(tables) >= 7 and all(tables)


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
