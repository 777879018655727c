"""The record classes: constructors, immutability, equality, hashing, repr
and the rules their constructors apply."""

import numpy as np
import pytest

from mixedrandic.campaign import (CampaignConfig, CampaignResult, run_campaign,
                                  with_overrides)
from mixedrandic.gains import ONE, GainView, SixthRoot
from mixedrandic.graphs import EdgeKind, EdgeRecord, MixedGraph, arc, undirected
from mixedrandic.spectra import CharPoly, Spectrum
from mixedrandic.theorems import (
    BoundsReport,
    CheckRecord,
    EigenvalueOneCheck,
    EntrySumBounds,
    InterlacingResult,
    MinusOneCheck,
    SymmetryCheck,
    UnderlyingSpectrumCheck,
)

EDGES = (undirected(1, 2), arc(2, 3))
P3 = MixedGraph(3, EDGES)
SPECTRUM = Spectrum(np.array([-1.0, 0.0, 1.0]))
RECORDS = (CheckRecord("a", True), CheckRecord("b", False, reason="r"))
CONFIG = CampaignConfig(n_min=3, n_max=5, min_degree=2, sample_limit=7,
                        seed=5, format="csv", output="out.csv")


def edge_rules():
    swapped = EdgeRecord(2, 1, EdgeKind.UNDIRECTED)
    assert (swapped.u, swapped.v) == (1, 2) and swapped == undirected(1, 2)
    assert (arc(2, 1).u, arc(2, 1).v) == (2, 1)
    with pytest.raises(ValueError, match="self-loop"):
        EdgeRecord(3, 3, EdgeKind.ARC)


def graph_rules():
    assert MixedGraph(3, EDGES[::-1]) == P3
    assert hash(MixedGraph(3, EDGES[::-1])) == hash(P3)
    assert MixedGraph(3, list(EDGES)).edges == EDGES
    assert P3.degrees() == (1, 2, 1)
    for n, edges in ((0, ()), (2, EDGES), (3, EDGES + (arc(2, 1),))):
        with pytest.raises(ValueError):
            MixedGraph(n, edges)


def root_rules():
    assert SixthRoot(7) == SixthRoot(1) and SixthRoot(7).k == 1
    assert SixthRoot(-1).k == 5


def spectrum_rules():
    assert Spectrum([1.0, -2.0, 0.5]).eigenvalues.tolist() == [-2.0, 0.5, 1.0]
    given = np.array([1.0, 0.0])
    assert Spectrum.from_sorted(given).eigenvalues is given


def config_rules():
    for bad in (dict(n_min=1), dict(n_max=1), dict(format="xml"),
                dict(min_degree=2), dict(sample_limit=-1)):
        with pytest.raises(ValueError):
            CampaignConfig(**bad)
    assert with_overrides(CONFIG, seed=None, output=None) is CONFIG
    assert with_overrides(CONFIG, seed=9) == CampaignConfig(3, 5, 2, 7, 9,
                                                            "csv", "out.csv")
    with pytest.raises(ValueError):
        with_overrides(CONFIG, n_max=2)


#: (class, constructor fields in order with values that the constructor
#: keeps as given, defaults, derived fields its repr also shows, whether
#: equality and hashing are by value, rules of its constructor)
CASES = [
    (EdgeRecord, dict(u=1, v=2, kind=EdgeKind.UNDIRECTED), {}, {}, True,
     edge_rules),
    (MixedGraph, dict(n=3, edges=EDGES), {}, {}, True, graph_rules),
    (SixthRoot, dict(k=2), {}, {}, True, root_rules),
    (GainView, dict(base=P3, gains={(1, 2): ONE, (2, 1): ONE}), {}, {},
     False, None),
    (Spectrum, dict(eigenvalues=np.array([-1.0, 1.0])), {}, {}, False,
     spectrum_rules),
    (CharPoly, dict(coefficients=(1, 0, -1)), {}, {}, True, None),
    (CheckRecord, dict(name="c", satisfied=False, skipped=True, lhs=1.0,
                       rhs=-0.0, slack=2.5, reason="why"),
     dict(skipped=False, lhs=None, rhs=None, slack=None, reason=""), {},
     True, None),
    (InterlacingResult, dict(edge=EDGES[0], original=SPECTRUM,
                             reduced=SPECTRUM, verdicts=(True, False),
                             worst_violation=0.5), {}, {}, False, None),
    (EigenvalueOneCheck, dict(has_one=True, multiplicity=1,
                              graph_positive=True), {}, {}, True, None),
    (SymmetryCheck, dict(symmetric=False, bipartite=True,
                         max_asymmetry=0.25), {}, {}, True, None),
    (MinusOneCheck, dict(has_minus_one=True, positive_bipartite=False,
                         antibalanced=True), {}, {}, True, None),
    (UnderlyingSpectrumCheck, dict(spectra_equal=True,
                                   switch_equiv_allones=True,
                                   max_difference=0.0), {}, {}, True, None),
    (EntrySumBounds, dict(records=RECORDS), {}, {}, True, None),
    (BoundsReport, dict(n=3, m=2, randic_inverse=1.0, determinant=-0.0,
                        rho=1.0, sigma=0.0, negative_count=1, energy=2.0,
                        records=RECORDS), {}, {}, True, None),
    (CampaignConfig, dict(n_min=3, n_max=5, min_degree=2, sample_limit=7,
                          seed=5, format="csv", output="out.csv"),
     dict(n_min=2, n_max=4, min_degree=1, sample_limit=None, seed=1729,
          format="json", output=None), {}, True, config_rules),
    (CampaignResult, dict(config=CONFIG, blocks=()), {},
     dict(graphs=0, checks=0), False, None),
]

#: The fields a class's repr leaves out: a campaign result's blocks hold
#: the suite's columns, so its repr shows the config and the counts
HIDDEN = {CampaignResult: {"blocks"}}


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cls, fields, defaults, derived, by_value, rules",
                         CASES, ids=[case[0].__name__ for case in CASES])
def test_record_class(cls, fields, defaults, derived, by_value, rules):
    a = cls(*fields.values())
    b = cls(**fields)
    for name, value in {**fields, **derived}.items():
        assert same(getattr(a, name), value) and same(getattr(b, name), value)
    required = {k: v for k, v in fields.items() if k not in defaults}
    plain = cls(**required)
    for name, value in defaults.items():
        assert getattr(plain, name) == value

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert all(same(getattr(a, name), value) for name, value in fields.items())

    shown = ", ".join(f"{k}={v!r}" for k, v in {**fields, **derived}.items()
                      if k not in HIDDEN.get(cls, ()))
    assert repr(a) == f"{cls.__name__}({shown})"

    if rules is not None:
        rules()

    if by_value:
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != tuple(fields.values())
    else:
        # arrays and dicts have no truth value or hash: identity decides
        assert (a == b) is False and (a != b) is True and a == a
        assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_campaign_result_repr_leaves_out_its_blocks():
    result = run_campaign(CampaignConfig(n_max=3))
    assert repr(result) == (f"CampaignResult(config={CampaignConfig(n_max=3)!r}, "
                            "graphs=57, checks=1677)")


@pytest.mark.parametrize("cls, fields, defaults", [case[:3] for case in CASES],
                         ids=[case[0].__name__ for case in CASES])
def test_record_constructor_binds_as_a_signature(cls, fields, defaults):
    values = list(fields.values())
    first, *rest = fields
    mixed = cls(values[0], **{name: fields[name] for name in rest})
    assert all(same(getattr(mixed, name), value) for name, value in fields.items())

    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: fields[first]})
    for missing in (name for name in fields if name not in defaults):
        with pytest.raises(TypeError, match=f"missing .*'{missing}'"):
            cls(**{name: value for name, value in fields.items()
                   if name != missing})
