import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itertools import combinations

from mixedrandic import (EdgeKind, EdgeRecord, MixedGraph, cli, cycle_graph,
                         directed_cycle, parse_graph, serialize_graph)
from mixedrandic.cli import main

#: A path on which float noise in the interlacing checks yields numpy scalars.
P4 = "mixedgraph v1\nvertices 4\n1 -- 4\n2 -- 3\n3 -- 4\n"

SYMMETRIC_NON_BIPARTITE = (
    "mixedgraph v1\nvertices 4\n1 -> 2\n1 -> 3\n2 -- 3\n2 -> 4\n4 -> 1\n"
)

#: Two components, each with every degree 1.
DISCONNECTED = "mixedgraph v1\nvertices 4\n1 -- 2\n3 -> 4\n"

#: An n = 10 graph with 28 edges whose energy exceeds the exponential
#: bound exp(sqrt(2 r_inv)).
EXPONENTIAL_COUNTEREXAMPLE = """mixedgraph v1
vertices 10
8 -- 9
6 -- 8
8 -> 3
2 -- 8
1 -> 8
5 -> 8
6 -> 9
9 -> 10
4 -> 9
3 -> 9
9 -> 2
9 -> 5
6 -> 10
4 -- 6
6 -> 3
1 -> 6
5 -> 6
10 -> 4
7 -> 4
3 -> 7
7 -> 2
4 -> 3
1 -> 4
2 -> 3
1 -> 3
3 -> 5
2 -> 1
1 -- 5
"""


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(serialize_graph(cycle_graph(3)))
    return str(path)


@pytest.fixture
def dc3_file(tmp_path):
    path = tmp_path / "dc3.txt"
    path.write_text(serialize_graph(directed_cycle(3)))
    return str(path)


def test_spectrum_text(c3_file, capsys):
    assert main(["spectrum", c3_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eigenvalues: ")
    assert "negative_count: 2" in out


def test_spectrum_json(c3_file, capsys):
    assert main(["spectrum", c3_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 3
    assert abs(doc["energy"] - 2) < 1e-12


def test_charpoly_both_methods(c3_file, capsys):
    assert main(["charpoly", c3_file, "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "method combinatorial" in out
    assert "method numeric" in out
    assert "a_2 -3/4" in out
    assert "max_difference" in out


def test_charpoly_single_method(c3_file, capsys):
    assert main(["charpoly", c3_file, "--method", "combinatorial"]) == 0
    out = capsys.readouterr().out
    assert "a_3 -1/4" in out
    assert "max_difference" not in out


def test_energy(c3_file, capsys):
    assert main(["energy", c3_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["randic_inverse"] - 0.75) < 1e-12


def test_bounds(c3_file, capsys):
    assert main(["bounds", c3_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "energy_lower_geometric" in doc["checks"]
    assert all(record["satisfied"] or record["skipped"] for record in doc["checks"].values())


def test_interlace(c3_file, capsys):
    assert main(["interlace", c3_file, "--edge", "1,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["verdicts"] == [True, True, True]


def test_interlace_rejects_bad_edge_flag(c3_file, capsys):
    assert main(["interlace", c3_file, "--edge", "1-2"]) == 2
    assert main(["interlace", c3_file, "--edge", "1,4"]) == 3
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "pass" not in captured.err


@pytest.mark.parametrize("label", ["\u0661", "+1", "1_0"])
def test_edge_flag_takes_only_the_graph_format_labels(label, c3_file, tmp_path,
                                                      capsys):
    # int() takes each of these labels; the graph format does not, and
    # neither does --edge
    path = tmp_path / "bad.txt"
    path.write_text(f"mixedgraph v1\nvertices 10\n{label} -- 2\n")
    assert main(["spectrum", str(path)]) == 2
    assert main(["interlace", c3_file, "--edge", f"{label},2"]) == 2
    assert main(["interlace", c3_file, "--edge", f"2,{label}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 3


def test_edge_flag_accepts_surrounding_spaces(c3_file, capsys):
    assert main(["interlace", c3_file, "--edge", "1,2"]) == 0
    plain = capsys.readouterr().out
    assert main(["interlace", c3_file, "--edge", " 1, 2 "]) == 0
    assert capsys.readouterr().out == plain


def test_interlace_on_a_pendant_edge_is_a_precondition_error(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("mixedgraph v1\nvertices 3\n1 -- 2\n2 -- 3\n")
    assert main(["interlace", str(path), "--edge", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: removing 1 -- 2 isolates vertex 1; the "
                            "normalized matrix needs every degree >= 1\n")


def test_check_clean_graph(c3_file, capsys):
    assert main(["check", c3_file]) == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out


def test_check_prints_divergence_note(dc3_file, capsys):
    assert main(["check", dc3_file]) == 0
    out = capsys.readouterr().out
    assert "divergence" in out
    assert "failures: 0" in out


def test_check_json_on_p4(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text(P4)
    assert main(["check", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    assert all(type(r["satisfied"]) is bool for r in doc["checks"].values())


def test_check_reports_failures_with_exit_1(tmp_path, capsys):
    path = tmp_path / "odd.txt"
    path.write_text(SYMMETRIC_NON_BIPARTITE)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL bipartite_iff_symmetric" in out


def test_exponential_energy_bound_fails_on_an_order_10_graph(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text(EXPONENTIAL_COUNTEREXAMPLE)
    energy, bound = 3.8226287268482615, 3.7597529963210627
    # `bounds` reports and exits 0; `check` exits 1 on any failure
    for command, code in (("check", 1), ("bounds", 0)):
        assert main([command, str(path), "--format", "json"]) == code
        record = json.loads(capsys.readouterr().out)["checks"][
            "energy_upper_exponential"]
        assert record["satisfied"] is False and record["skipped"] is False
        assert (record["lhs"], record["rhs"]) == (energy, bound)
        assert main([command, str(path)]) == code
        assert (f"FAIL energy_upper_exponential lhs={energy!r} rhs={bound!r}"
                in capsys.readouterr().out)
    # the energy of R built and solved here, apart from the package
    h = np.zeros((10, 10), dtype=complex)
    for line in EXPONENTIAL_COUNTEREXAMPLE.splitlines()[2:]:
        u, kind, v = line.split()
        u, v = int(u) - 1, int(v) - 1
        h[u, v] = 1.0 if kind == "--" else np.exp(1j * np.pi / 3)
        h[v, u] = np.conj(h[u, v])
    scale = 1.0 / np.sqrt((h != 0).sum(axis=1))
    eigenvalues = np.linalg.eigvalsh(scale[:, None] * h * scale[None, :])
    assert abs(np.abs(eigenvalues).sum() - energy) < 1e-12


def test_single_graph_json_digests_are_pinned(c3_file, tmp_path, capsys):
    # Any change to these bytes must be deliberate: update the digests in
    # the same change and say why.
    p4 = tmp_path / "p4.txt"
    p4.write_text(P4)
    digests = {}
    for name, path in (("c3", c3_file), ("p4", str(p4))):
        for command in ("check", "bounds"):
            for fmt, suffix in (("json", ""), ("text", " text")):
                assert main([command, path, "--format", fmt]) == 0
                out = capsys.readouterr().out
                digests[f"{command} {name}{suffix}"] = hashlib.sha256(
                    out.encode()).hexdigest()
    assert digests == {
        "check c3": "fbbcf324bd696864b8ca70ad1f1241dc2ab444cae59772e6e5b882ae861242be",
        "bounds c3": "578f3dccf56b2e6c1f4990c8d6457ab8d218197142148335bcd33f4c62be2e67",
        "check p4": "47c6cacccb142ca0c86ac098bb33359728ad864f803af46924eea3ba0f181891",
        "bounds p4": "b81802d2c2fd202ec3c8af0f153c957320f05c45973aeeaef005837b8c6e0569",
        "check c3 text": "a730df41812a210dbf64c3af0e2b62ea7c4f1ff822afd86b541d4c9cd1c95ef0",
        "bounds c3 text": "aa3e789d6cfb30cf2742c2390442db1283faf834b80c0022593bc5333faa46bc",
        "check p4 text": "a39b6e975a99c6c0568d8f9e75c151673423b13044577e2270319e6884f9b5cc",
        "bounds p4 text": "48f55ee7d4fb56eec4bd37ddb19786e39c344a88363f1754d370549b517d6fd7",
    }


ONE_GRAPH_REQUESTS = (
    ("spectrum", ["spectrum"]),
    ("energy", ["energy"]),
    ("charpoly numeric", ["charpoly", "--method", "numeric"]),
    ("charpoly combinatorial", ["charpoly", "--method", "combinatorial"]),
    ("charpoly both", ["charpoly", "--method", "both"]),
)


def test_one_graph_outputs_are_pinned(c3_file, tmp_path, capsys):
    # spectrum, energy, charpoly by each method and interlace on every
    # edge, on c3, p4 and the n = 10 literal; as above, any change to
    # these bytes must be deliberate.  Each digest covers the exit code
    # and stdout of every request under its key.
    paths = {"c3": c3_file}
    for name, text in (("p4", P4), ("n10", EXPONENTIAL_COUNTEREXAMPLE)):
        paths[name] = str(tmp_path / f"{name}.txt")
        Path(paths[name]).write_text(text)
    digests = {}
    for name, path in paths.items():
        edges = parse_graph(Path(path).read_text()).edges
        requests = [(key, [[command[0], path, *command[1:]]])
                    for key, command in ONE_GRAPH_REQUESTS]
        requests.append(("interlace", [["interlace", path, "--edge",
                                        f"{e.u},{e.v}"] for e in edges]))
        for key, argvs in requests:
            for fmt, suffix in (("json", ""), ("text", " text")):
                h = hashlib.sha256()
                for argv in argvs:
                    rc = main(argv + ["--format", fmt])
                    h.update(f"{rc}\n{capsys.readouterr().out}".encode())
                digests[f"{key} {name}{suffix}"] = h.hexdigest()
    assert digests == {
        "spectrum c3": "ae4935ac2ac52b42db5ba1028192476247b76a7cbd83ce1e909e3cff7e447642",
        "spectrum c3 text": "fc365413980b8d57d5cb706c5041394728e8015be5b5eb252024f814faf720cd",
        "energy c3": "e30e572a44ba5b9810f8f496767c51873d9adce35d855048e7e79d86c22eb3e5",
        "energy c3 text": "a4a7a48f1375b4855385bf38f53d84186ac6493b4f69bdd87d618215a811529e",
        "charpoly numeric c3": "568123e1692fa0a60f9ba8938205da498f345143bf37eaaf5c551072ccb487f6",
        "charpoly numeric c3 text": "ccf5335199091012d5567df9dd36fd251b1fd47acacf260dfdbe995d95b2714f",
        "charpoly combinatorial c3": "6fdf616645053b85d2b048d0e8ca1b2c28f0b4ab9af8f49ddeca258213fd85da",
        "charpoly combinatorial c3 text": "02093f99cee906f1c2773bc670f626d2ceab3b842cea4a1f3324cabf5d4d7b65",
        "charpoly both c3": "59af863c7aa8ef2cdbf79b3a89ebf70db0e8130bba81a753332ee08239bf88ae",
        "charpoly both c3 text": "1fd3347a70f30dd335f1a8ffe732583a82c8984135afbafe3fbda52d264c8967",
        "interlace c3": "95a068097bae5e0f0eca602dcd270386f501df34e8cfdfdebe2d8523c057d526",
        "interlace c3 text": "985ddafe86ed738a1def7ef8aa046ec6519da7cc94b91190a31e059a804ec68d",
        "spectrum p4": "a5d39195ba612f4caade1aa09b7d9abc7646fb9388d3375049f5f8ad1394e736",
        "spectrum p4 text": "7bab4a75cdddbf0788a37b95c09345de9bbec42760f7c3e247e8bccf46bdfedb",
        "energy p4": "0b6be8f5ce667b2c5c4deaa432b65d915ca9f0058740eabc772d053c7eceea46",
        "energy p4 text": "b5604af8921f0a32250cbbd23b34b9a36013948aa3a86a9fff2f1059c50fe85c",
        "charpoly numeric p4": "334d860545422f73f80e9cb48f10af7ad440c628a365b6cc97a64ee3baf2dfd3",
        "charpoly numeric p4 text": "0cc5d50de5e60e458221292d42dfa875a148333c628a0a54b9d607aa12822119",
        "charpoly combinatorial p4": "9c40fe34b96da90304fcaf454421265781af09bef15f28ce1c96b27bd7c4235c",
        "charpoly combinatorial p4 text": "2764b1cbbba8dff7cfc131bfb50aa38135e91d048896b06a4d28311546eee5a4",
        "charpoly both p4": "01f23ed0a6b9dadada773c0a4ce2cf373db7543e3005ad9fc53dda13a4a79cdd",
        "charpoly both p4 text": "e58a53cf708949f03869738607c449d71a32b65f3ef368ef76f4ffab6fba3a69",
        "interlace p4": "f9ed8a513dafefd86899dbdbdce9f247392ef712d63a60443f57f4c377d2f467",
        "interlace p4 text": "ecc160b74f1e2d44cc32681a7a4221ef866f4d2c8ff0b267ecb3cd0838941e43",
        "spectrum n10": "311a4e31d120a56645e1dfbfa55862de0f9824fe32ac650f764db51fadeb6e0e",
        "spectrum n10 text": "4c3cc1d3f190afb8671293f057cce2b12adc78b50c31db05cc06a800e188f037",
        "energy n10": "e657b6d23773970e18b2308980380d7c2fdd9386fba5f72b0cc845d681019855",
        "energy n10 text": "54e3d4666adde1595de070af6235cef307e376fb647a08ef3538fa23d2c14001",
        "charpoly numeric n10": "1c62dedd2cd7e2f251639b5dfc3c19020e436efa1d6762d23ea0d78eedbee6fd",
        "charpoly numeric n10 text": "1a1913f740d10d021fa99e417d883dae81230e3e1b0b2f2670dd9250aaf261a2",
        "charpoly combinatorial n10": "4cbd46bbddf7fd3dd8966261c50d8d402fb871d7f3f85da0f791971ec04bc6f3",
        "charpoly combinatorial n10 text": "e291dc2406f3008298bfe868b92a7524868dfeacf2385e117f76513e71b1d16a",
        "charpoly both n10": "b0d6218d3bde587ba5b9c120b6704c6d5c88b601af50a2490e2f850bf7127204",
        "charpoly both n10 text": "0e73864e79c28ff33e58769b507d7440f0f2fce8172dffc64a6a2f7de4a092fa",
        "interlace n10": "fe4bd725701d0d934a595e173b1fb276c29af4609e75578a350095a7cab74c98",
        "interlace n10 text": "757c0858333a3cd27badcaddf2c33b212bbfb4fa03a61226aa7ba4675c2b1b77",
    }


def seeded_connected_graph(n, m, seed):
    """A connected mixed graph on n vertices with m edges, each un-oriented
    or an arc either way, drawn from the seed."""
    rng = random.Random(seed)
    while True:
        pairs = sorted(rng.sample(list(combinations(range(1, n + 1), 2)), m))
        g = MixedGraph(n, tuple(
            EdgeRecord(*((u, v) if rng.random() < 0.5 else (v, u)),
                       rng.choice((EdgeKind.UNDIRECTED, EdgeKind.ARC)))
            for u, v in pairs))
        if g.is_connected():
            return g


def test_large_order_check_json_digests_are_pinned(tmp_path, capsys):
    # `check` at n = 10, the largest order with the exact charpoly, and at
    # n = 11, above its cap; as above, any change must be deliberate.
    digests = {}
    for n, m, seed in ((10, 14, 1), (10, 20, 2), (10, 27, 3), (11, 22, 4)):
        path = tmp_path / f"n{n}m{m}.txt"
        path.write_text(serialize_graph(seeded_connected_graph(n, m, seed)))
        for fmt, suffix in (("json", ""), ("text", " text")):
            assert main(["check", str(path), "--format", fmt]) == 0
            out = capsys.readouterr().out
            digests[f"n{n} m{m}{suffix}"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "n10 m14": "800f7eb87cd22b2a1cafa975b2c3d5806fd1e7f5cb9b64f9425a9894de481cd2",
        "n10 m20": "298585160ddeffe800beb6f3e8a01a70333a2b022f46f76cdd7bbb4e84e02d87",
        "n10 m27": "53c3ae9ec1276997faf1cd7599a8fdc82a00301004da0027541dd4046cc7c52f",
        "n11 m22": "4e839373a6753aefa8a87bed9d7fa5007b374f8c4433d1e9697fdc5a004da20a",
        "n10 m14 text": "59d27362437e5eaa495840b579f7d8a28588fe60e7c4a34415176acddc4e214e",
        "n10 m20 text": "041275c936f49e992710a7974e3a44bd3b241a1ac6c9de582687532026f770e9",
        "n10 m27 text": "8988d1724788433ffe73877321b83232ed58f36b91037e42caa333b4a08b84a3",
        "n11 m22 text": "38fd4b4deeba0314b2bd34c2b6fc77e80256add8d4e1b1bac1c355a6768c0a2c",
    }


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main(["spectrum", str(tmp_path / "absent.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("mixedgraph v1\nvertices 2\n1 -- 1\n")
    assert main(["spectrum", str(bad)]) == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"mixedgraph v1\nvertices 2\n\xff\n")
    assert main(["spectrum", str(binary)]) == 2
    assert str(binary) in capsys.readouterr().err
    assert main(["enumerate", "--config", str(binary)]) == 2
    assert str(binary) in capsys.readouterr().err
    for text, message in (
            ("mixedgraph v1\nvertices 0\n",
             "line 2: vertex count must be at least 1"),
            ("mixedgraph v1\n", "missing 'vertices <n>' line")):
        bad.write_text(text)
        assert main(["spectrum", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_with_unreachable_min_degree_exits_promptly(tmp_path):
    # A 5-vertex graph has no degree 5: the sampler used to draw forever.
    # In a subprocess with a timeout, so that a regression fails, not hangs.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "mixedrandic.cli", "enumerate"]
    done = subprocess.run(
        argv + ["--n-min", "5", "--n-max", "5", "--min-degree", "5",
                "--sample-limit", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert "min_degree" in done.stderr
    config = tmp_path / "campaign.cfg"
    config.write_text("n_min 5\nn_max 5\nmin_degree 5\nsample_limit 1\n")
    done = subprocess.run(argv + ["--config", str(config)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "min_degree" in done.stderr


def test_enumerate_has_no_connected_only_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["enumerate", "--n-max", "2", "--connected-only", "true"])
    assert exited.value.code == 2
    config = tmp_path / "campaign.cfg"
    config.write_text("n_max 2\nconnected_only true\n")
    assert main(["enumerate", "--config", str(config)]) == 2
    assert "unknown key 'connected_only'" in capsys.readouterr().err


def test_isolated_vertex_is_a_precondition_error(tmp_path, capsys):
    path = tmp_path / "iso.txt"
    path.write_text("mixedgraph v1\nvertices 2\n")
    assert main(["spectrum", str(path)]) == 3
    capsys.readouterr()


def test_disconnected_and_one_vertex_graphs_are_precondition_errors(
        tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(DISCONNECTED)
    for command in ("energy", "bounds", "check"):
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err == "error: graph is not connected\n"
    path.write_text("mixedgraph v1\nvertices 1\n")
    assert main(["energy", str(path)]) == 3
    assert (capsys.readouterr().err
            == "error: energy bounds need at least two vertices\n")


def test_output_flag_matches_stdout(c3_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["spectrum", c3_file, "--format", "json", "--output", str(target)]) == 0
    capsys.readouterr()
    assert main(["spectrum", c3_file, "--format", "json"]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_unwritable_output(c3_file, tmp_path, capsys):
    assert main(["spectrum", c3_file, "--output", str(tmp_path / "no" / "dir.txt")]) == 4
    capsys.readouterr()


def test_enumerate_with_config_and_overrides(tmp_path, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text("n_min 2\nn_max 3\n")
    report = tmp_path / "report.json"
    assert main(["enumerate", "--config", str(config), "--n-max", "2",
                 "--output", str(report)]) == 0
    summary = capsys.readouterr().out
    assert "graphs 3" in summary
    doc = json.loads(report.read_text())
    assert doc["summary"]["graphs"] == 3
    assert doc["summary"]["failures"] == 0


def test_enumerate_to_stdout_keeps_summary_on_stderr(tmp_path, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text("n_min 2\nn_max 2\n")
    assert main(["enumerate", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"]["graphs"] == 3
    assert "graphs 3" in captured.err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_successive_requests_share_no_state(c3_file, tmp_path, capsys):
    # one parser serves every request, so nothing may carry over
    assert main(["charpoly", c3_file, "--method", "numeric"]) == 0
    assert "method combinatorial" not in capsys.readouterr().out
    assert main(["charpoly", c3_file]) == 0
    out = capsys.readouterr().out
    assert "method combinatorial" in out and "method numeric" in out

    config = tmp_path / "campaign.cfg"
    config.write_text("n_min 2\nn_max 2\nseed 99\n")
    report = tmp_path / "report.json"
    assert main(["enumerate", "--config", str(config), "--output", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["seed"] == 99
    assert main(["enumerate", "--n-max", "2", "--output", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["seed"] == 1729
    assert cli._parser().parse_args(["enumerate"]).config is None
    capsys.readouterr()

    for _ in range(2):
        with pytest.raises(SystemExit) as exited:
            main(["spectrum", c3_file, "--format", "yaml"])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_unexpected_error_is_one_line_and_exit_5(c3_file, capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("solver gave up")

    monkeypatch.setattr(cli, "randic_spectrum", broken)
    assert main(["spectrum", c3_file]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: solver gave up\n"
    assert "Traceback" not in captured.err
