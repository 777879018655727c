import csv
import hashlib
import io
import json
import random

import numpy as np
import pytest

from mixedrandic import ParseError, directed_cycle, population, randic_spectrum
from mixedrandic.campaign import (
    CampaignConfig,
    CampaignResult,
    GraphResult,
    edge_list_label,
    format_float,
    json_scalar,
    parse_campaign_config,
    render_csv,
    render_json,
    run_campaign,
    summary_text,
    with_overrides,
)
from mixedrandic.theorems import TheoremSuite, _inequalities


def test_population_sizes():
    assert len(population(2)) == 3
    assert len(population(3)) == 54
    # 16 trees * 27 + 15 unicyclic * 81 + 6 five-edge * 243 + 729
    assert len(population(4)) == 3834
    assert len(population(5)) == 500
    assert len(population(6)) == 500


def test_population_is_deterministic():
    assert population(5) == population(5)
    assert population(5, seed=4) != population(5, seed=5)
    for g in population(5)[:50]:
        assert g.is_connected()
        assert min(g.degrees()) >= 1


def test_population_truncation():
    assert len(population(3, sample_limit=10)) == 10


def test_parse_campaign_config():
    cfg = parse_campaign_config(
        "# campaign\nn_min 2\nn_max 3\nmin_degree 1\nsample_limit 20\nseed 99\nformat csv\n"
    )
    assert cfg.n_min == 2 and cfg.n_max == 3
    assert cfg.sample_limit == 20
    assert cfg.seed == 99
    assert cfg.format == "csv"


@pytest.mark.parametrize(
    "text",
    [
        "bogus 3\n",
        "n_min two\n",
        "connected_only maybe\n",
    ],
)
def test_parse_campaign_config_errors(text):
    with pytest.raises(ParseError) as err:
        parse_campaign_config(text)
    assert "line 1" in str(err.value)


def test_parse_campaign_config_rejects_bad_format():
    with pytest.raises(ParseError):
        parse_campaign_config("format xml\n")


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        CampaignConfig(sample_limit=-1)
    with pytest.raises(ValueError):
        CampaignConfig(format="yaml")
    # no graph on 5 vertices has degree 5
    with pytest.raises(ValueError, match="min_degree"):
        CampaignConfig(n_min=5, n_max=5, min_degree=5)
    with pytest.raises(ValueError, match="min_degree"):
        CampaignConfig(min_degree=-1)
    with pytest.raises(ParseError, match="min_degree"):
        parse_campaign_config("n_min 5\nn_max 6\nmin_degree 5\n")


def test_with_overrides_skips_none():
    base = CampaignConfig(n_min=2, n_max=3)
    assert with_overrides(base, n_max=None, seed=None) == base
    assert with_overrides(base, n_max=4).n_max == 4


def test_edge_list_label():
    assert edge_list_label(directed_cycle(3)) == "1->2 2->3 3->1"


def test_format_float_round_trips():
    rng = random.Random(5)
    for _ in range(200):
        x = rng.uniform(-2, 2)
        assert float(format_float(x)) == x
    assert format_float(0.5) == "0.5"


def test_tiny_campaign_counts():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    assert len(result.results) == 3
    assert result.checks == 84
    assert result.failures == []
    assert result.skip_count == 3  # each single-edge graph has one undeletable edge
    assert result.divergence_count == 0


def test_n3_campaign_divergences():
    result = run_campaign(CampaignConfig(n_min=3, n_max=3))
    assert len(result.results) == 54
    assert result.failures == []
    # exactly the two all-arc triangles have eigenvalue -1 without being
    # positive bipartite
    assert result.divergence_count == 2


def test_report_bytes_do_not_depend_on_output_or_jobs():
    plain = run_campaign(CampaignConfig(n_min=2, n_max=3))
    routed = run_campaign(CampaignConfig(n_min=2, n_max=3, output="elsewhere.json"))
    assert render_json(plain) == render_json(routed)
    assert render_csv(plain) == render_csv(routed)


def test_json_report_is_valid_json():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    doc = json.loads(render_json(result))
    assert doc["config"]["n_min"] == 2
    assert len(doc["graphs"]) == 3
    assert doc["summary"]["graphs"] == 3
    assert doc["summary"]["failures"] == 0


def test_csv_report_shape():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2, format="csv"))
    rows = list(csv.reader(io.StringIO(render_csv(result))))
    assert rows[0] == ["index", "n", "edges", "check", "lhs", "rhs", "slack",
                       "satisfied", "skipped", "reason"]
    assert len(rows) == 1 + result.checks
    assert all(len(row) == 10 for row in rows)


def test_csv_and_json_carry_identical_records():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    doc = json.loads(render_json(result))
    flat = {}
    for entry in doc["graphs"]:
        for name, record in entry["checks"].items():
            flat[(entry["index"], name)] = record
    rows = list(csv.reader(io.StringIO(render_csv(result))))[1:]
    assert len(rows) == len(flat)
    for index, _, _, check, lhs, rhs, slack, satisfied, skipped, reason in rows:
        record = flat[(int(index), check)]
        for text, value in ((lhs, record["lhs"]), (rhs, record["rhs"]), (slack, record["slack"])):
            if text == "":
                assert value is None
            else:
                assert float(text) == float(value)
        assert (satisfied == "true") == record["satisfied"]
        assert (skipped == "true") == record["skipped"]
        assert reason == record["reason"]


def test_summary_text():
    result = run_campaign(CampaignConfig(n_min=2, n_max=2))
    lines = summary_text(result).splitlines()
    assert lines[0] == "graphs 3"
    assert lines[1] == "checks 84"
    assert lines[2] == "failures 0"
    assert any(line.startswith("max_abs_slack ") for line in lines)


def test_numpy_inputs_give_report_scalars():
    rec, = _inequalities("probe", np.float64(0.25), np.float64(0.5))
    assert type(rec.satisfied) is bool
    for value in (rec.lhs, rec.rhs, rec.slack, rec.satisfied, rec.skipped,
                  rec.reason):
        json_scalar(value)
    g = directed_cycle(3)
    suite = TheoremSuite(g, randic_spectrum(g), (rec,))
    result = CampaignResult(CampaignConfig(n_min=3, n_max=3),
                            (GraphResult(0, g, suite),))
    doc = json.loads(render_json(result))
    assert doc["graphs"][0]["checks"]["probe"] == {
        "lhs": 0.25, "rhs": 0.5, "slack": 0.25, "satisfied": True,
        "skipped": False, "reason": ""}


def test_report_digests_are_pinned():
    # Any change to these bytes must be deliberate: update the digests in
    # the same change and say why.
    result = run_campaign(CampaignConfig(n_min=2, n_max=3))
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "f5688f5d19637e63e504b975c1674ed34ab83c2d010792bea04d48ca50a2c3f0",
        "json": "f494142b5881cb845ef88f5e2a0a74e30c1a4f52ba2712d1f7c72db070a0de61",
    }


def test_sampled_report_digests_are_pinned():
    # As above, any change to these bytes must be deliberate.  The n = 2..3
    # pin has few non-pendant edges, so few interlacing records; seeded
    # n = 5, 6 samples have many.
    result = run_campaign(CampaignConfig(n_min=5, n_max=6, sample_limit=60,
                                         seed=1729))
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "38a576b19437090f2e6056204fd6fcfcdc0ddf2792d0aa7c006c8914f6d559d7",
        "json": "d97cfb290ad5e63912bbafaff4d320c4c3b94667698273a5af799e079843eadd",
    }


def test_sampled_n56_report_digests_are_pinned():
    # The seeded n = 5, 6 campaign of the benchmark's sampled workload, as
    # above: its bytes gate every change to the exact charpoly.
    result = run_campaign(CampaignConfig(n_min=5, n_max=6, seed=1729))
    assert (len(result.results), result.checks, len(result.failures)) == (
        1000, 36423, 26)
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "909430fb35e250ab146a1fc6555ddd45ac653afdb3e68d36ac54ba32e32b1211",
        "json": "734ee28113d005f0a35beb6ef9298523bef68355f21363b83f12fecb20956435",
    }


def test_default_report_digests_are_pinned():
    # The default n <= 4 campaign, whose bytes gate every speedup; any
    # change to them must be deliberate, as above.
    result = run_campaign(CampaignConfig())
    assert (len(result.results), result.checks) == (3891, 123015)
    assert sum(rec.name == "bipartite_iff_symmetric"
               for _, rec in result.failures) == 540
    digests = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
               for fmt, render in (("csv", render_csv), ("json", render_json))}
    assert digests == {
        "csv": "c13a24e98e1428da9c8930a51580bb396c3b6d4cdfc52b2efeeadc2e7def0a72",
        "json": "00d09b68993766d1804da60e83e07ace8a438b5a61ec2d24376bb2f704624c83",
    }
