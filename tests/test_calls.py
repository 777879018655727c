"""Repeated work makes the same calls: after a warm-up, two passes of a
campaign and its renders plus one request per one-graph command call each
public function of the package equally often.  A cache that lives from one
pass to the next, or a first-use step beyond the CLI parser, breaks this.
A memo that fills on the warm-up and serves both passes keeps them equal,
so each pass must also solve every suite block of its campaign anew: it
solves as many matrices and counts as many numerator rows as a pass that
gives every block a new memo."""

import functools
import importlib
import inspect
from collections import Counter

from mixedrandic import campaign, cli, theorems

LAYERS = ("graphs", "gains", "enumeration", "matrices", "spectra",
          "theorems", "campaign", "cli")

GRAPH = "mixedgraph v1\nvertices 4\n1 -- 2\n2 -> 3\n3 -- 4\n4 -> 1\n1 -- 3\n"


def count_public_calls(monkeypatch) -> Counter:
    """Wrap each public function of every layer with a counter, in its own
    module and in every package module that imported it by name."""
    modules = [importlib.import_module("mixedrandic")] + [
        importlib.import_module(f"mixedrandic.{layer}") for layer in LAYERS]
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for layer, module in zip(LAYERS, modules[1:]):
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            wrapper = counted(f"{layer}.{attr}", fn)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        monkeypatch.setattr(holder, name, wrapper)
    monkeypatch.setattr(theorems, "_order_block", counted(
        "theorems._order_block", theorems._order_block))
    return calls


def count_work(monkeypatch) -> Counter:
    """Add up the matrices the suite solves and the graphs it counts the
    numerator rows of, by the rows each call returns."""
    work = Counter()
    for name in ("eigenvalue_rows", "elementary_weight_numerator_rows"):
        def sized(*args, fn=getattr(theorems, name), name=name):
            rows = fn(*args)
            work[name] += len(rows)
            return rows
        monkeypatch.setattr(theorems, name, sized)
    return work


def one_pass(path) -> None:
    # through the module attributes, which hold the counting wrappers
    result = campaign.run_campaign(campaign.CampaignConfig(n_max=3))
    campaign.render_csv(result)
    campaign.render_json(result)
    for argv in (["spectrum"], ["charpoly"], ["energy"], ["bounds"],
                 ["interlace", "--edge", "1,3"], ["check"]):
        assert cli.main(argv + [str(path)]) == 0


def test_passes_make_the_same_public_calls(monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(GRAPH)
    calls = count_public_calls(monkeypatch)
    work = count_work(monkeypatch)
    one_pass(path)
    passes, works = [], []
    for _ in range(2):
        calls.clear()
        work.clear()
        one_pass(path)
        passes.append(calls.copy())
        works.append(work.copy())
    block = theorems._order_block
    monkeypatch.setattr(theorems, "_order_block",
                        lambda degrees, edges, solved: block(degrees, edges, {}))
    work.clear()
    one_pass(path)
    capsys.readouterr()
    assert works[0] == works[1] == work
    assert work["eigenvalue_rows"] > 0 and work["elementary_weight_numerator_rows"] > 0
    assert passes[0]["cli.main"] == 6
    assert passes[0]["campaign.run_campaign"] == 1
    assert passes[0]["graphs.parse_graph"] == 6
    # one block per order of the n = 2..3 campaign, and check's
    assert passes[0]["theorems._order_block"] == 3
    assert passes[0] == passes[1]
