import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from phyrec.cli import (
    EXIT_OK,
    EXIT_RECONSTRUCTION,
    EXIT_USAGE,
    _build_parser,
    main,
)
from phyrec.newick import parse_newick, read_newick_file
from phyrec.simulate import Alignment, read_alignment, write_alignment
from phyrec.tree import Phylogeny, topologies_equal, unroot


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["gen-tree"]) == EXIT_USAGE          # --h is required
    assert main(["gen-tree", "--h", "2"]) == EXIT_USAGE  # no lengths given
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["verify"]) == EXIT_USAGE              # retired subcommand
    for jobs in ("0", "-2"):
        assert main(["sweep", "--q-values", "2", "--tau-values", "0.3",
                     "--h-values", "2", "--jobs", jobs]) == EXIT_USAGE
        assert "jobs must be >= 1" in capsys.readouterr().err
    asr = ["sweep", "--mode", "asr", "--q-values", "2", "--tau-values", "0.3",
           "--h-values", "2", "--seed", "1"]
    for flags in (["--k-values", "500"], ["--D", "3"], ["--W", "20"],
                  ["--f-min", "0.1"], ["--random-lengths", "0.1,0.3"],
                  ["--W", "5.5", "--k-values", "1000"]):
        assert main(asr + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        named = [f for f in flags if f.startswith("--")]
        assert err.startswith("error: ") and all(f in err for f in named), flags
    assert main(["--version"]) == EXIT_OK
    capsys.readouterr()


def test_gen_tree_refuses_non_finite_lengths(capsys):
    # non-finite edge lengths are refused with a message; zero is legal
    for lengths in (["--tau", "nan"], ["--tau", "inf"], ["--tau=-inf"],
                    ["--f", "0.1", "--g", "nan"], ["--f", "nan", "--g", "0.5"],
                    ["--f", "0.1", "--g", "inf"]):
        assert main(["gen-tree", "--h", "1", "--seed", "1"] + lengths) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err, lengths
    assert main(["gen-tree", "--h", "1", "--tau", "0", "--seed", "1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "(1:0,2:0);"


def test_gen_tree_writes_header_and_tree(tmp_path):
    out = tmp_path / "tree.nwk"
    assert main(["gen-tree", "--h", "3", "--tau", "0.25", "--seed", "11",
                 "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("# phyrec ")
    assert "# config: " in text and '"h": 3' in text
    assert "# seed: 11" in text
    phy = read_newick_file(out)[0]
    assert isinstance(phy, Phylogeny)
    assert phy.h == 3
    assert np.allclose(phy.edge_tau[1:], 0.25)


def test_gen_tree_random_lengths_to_stdout(capsys):
    assert main(["gen-tree", "--h", "2", "--f", "0.1", "--g", "0.5",
                 "--seed", "3"]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    # headers are suppressed on stdout: the tree is the only line
    assert printed.count("\n") == 0
    phy = parse_newick(printed)
    assert np.all(phy.edge_tau[1:] >= 0.1) and np.all(phy.edge_tau[1:] <= 0.5)


def test_full_pipeline_roundtrip(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    sites = tmp_path / "sites.tsv"
    rec = tmp_path / "rec.nwk"
    assert main(["gen-tree", "--h", "3", "--tau", "0.25", "--seed", "41",
                 "--out", str(tree)]) == EXIT_OK
    assert main(["simulate", "--tree", str(tree), "--q", "2", "--k", "3000",
                 "--seed", "42", "--out", str(sites)]) == EXIT_OK
    assert main(["reconstruct", "--align", str(sites), "--estimator",
                 "majority", "--seed", "43", "--out", str(rec)]) == EXIT_OK
    assert main(["compare", "--tree1", str(tree), "--tree2", str(rec)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "equal"
    got = read_newick_file(rec)[0]
    want = unroot(read_newick_file(tree)[0])
    assert topologies_equal(got, want)


def test_compare_reports_distance(tmp_path, capsys):
    a = tmp_path / "a.nwk"
    b = tmp_path / "b.nwk"
    a.write_text("((1,2),(3,4));\n")
    b.write_text("((1,3),(2,4));\n")
    assert main(["compare", "--tree1", str(a), "--tree2", str(b)]) == \
        EXIT_RECONSTRUCTION
    assert capsys.readouterr().out.strip() == "different (robinson-foulds 2)"


def test_simulate_stdout_is_readable(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    main(["gen-tree", "--h", "2", "--tau", "0.3", "--seed", "5",
          "--out", str(tree)])
    assert main(["simulate", "--tree", str(tree), "--q", "3", "--k", "7",
                 "--seed", "6"]) == EXIT_OK
    captured = capsys.readouterr().out
    align = read_alignment(io.StringIO(captured))
    assert align.q == 3 and align.k == 7
    assert align.node_ids == [1, 2, 3, 4]


def test_simulate_model_flag_conflicts(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    main(["gen-tree", "--h", "2", "--tau", "0.3", "--seed", "5",
          "--out", str(tree)])
    assert main(["simulate", "--tree", str(tree), "--k", "5",
                 "--seed", "1"]) == EXIT_USAGE
    model = tmp_path / "model.txt"
    model.write_text("2\n-1 1\n1 -1\n0.5 0.5\n")
    assert main(["simulate", "--tree", str(tree), "--q", "2", "--model",
                 str(model), "--k", "5", "--seed", "1"]) == EXIT_USAGE
    assert main(["simulate", "--tree", str(tree), "--model", str(model),
                 "--k", "5", "--seed", "1", "--out",
                 str(tmp_path / "m.tsv")]) == EXIT_OK
    capsys.readouterr()


def test_simulate_rejects_bare_topologies(tmp_path, capsys):
    bare = tmp_path / "bare.nwk"
    bare.write_text("((1,2),(3,4));\n")
    assert main(["simulate", "--tree", str(bare), "--q", "2", "--k", "5",
                 "--seed", "1"]) == EXIT_USAGE
    assert "branch lengths" in capsys.readouterr().err


def test_reconstruct_failure_exits_two(tmp_path, capsys):
    sites = tmp_path / "one-site.tsv"
    align = Alignment(list(range(1, 9)), np.zeros((1, 8), dtype=int), 2)
    write_alignment(sites, align)
    assert main(["reconstruct", "--align", str(sites), "--seed", "2",
                 "--estimator", "majority"]) == EXIT_RECONSTRUCTION
    assert "reconstruction failed" in capsys.readouterr().err


def test_reconstruct_rejects_infinite_gate(tmp_path, capsys):
    sites = tmp_path / "sites.tsv"
    write_alignment(sites, Alignment([1, 2, 3, 4], np.zeros((5, 4), dtype=int), 2))
    assert main(["reconstruct", "--align", str(sites), "--seed", "2",
                 "--D", "inf"]) == EXIT_USAGE
    assert "D must be finite" in capsys.readouterr().err


def test_reconstruct_refuses_an_oversized_quartet_enumeration(tmp_path, capsys):
    # identical sequences and a huge D open every one of C(256, 4) quartets
    sites = tmp_path / "sites.tsv"
    write_alignment(sites, Alignment(list(range(1, 257)),
                                     np.zeros((5, 256), dtype=int), 2))
    assert main(["reconstruct", "--align", str(sites), "--seed", "2",
                 "--D", "1e6"]) == EXIT_USAGE
    assert "exceed the quartet limit" in capsys.readouterr().err


@pytest.mark.parametrize("f_min", ["nan", "inf"])
def test_reconstruct_rejects_non_finite_f_min(tmp_path, capsys, f_min):
    sites = tmp_path / "sites.tsv"
    write_alignment(sites, Alignment([1, 2, 3, 4], np.zeros((5, 4), dtype=int), 2))
    assert main(["reconstruct", "--align", str(sites), "--seed", "2",
                 "--f-min", f_min]) == EXIT_USAGE
    assert "f_min must be finite" in capsys.readouterr().err


def test_reconstruct_rejects_one_state_alignment(tmp_path, capsys):
    sites = tmp_path / "sites.tsv"
    sites.write_text("q=1 k=2\n1\t1 1\n2\t1 1\n")
    assert main(["reconstruct", "--align", str(sites), "--seed", "2"]) == EXIT_USAGE
    assert "needs q >= 2" in capsys.readouterr().err


def test_config_file_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"h": 2, "tau": 0.3, "seed": 5}))
    out1 = tmp_path / "c1.nwk"
    assert main(["gen-tree", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert read_newick_file(out1)[0].h == 2
    # explicit flags win over config values
    out2 = tmp_path / "c2.nwk"
    assert main(["gen-tree", "--config", str(cfg), "--h", "3",
                 "--out", str(out2)]) == EXIT_OK
    assert read_newick_file(out2)[0].h == 3


def test_config_file_key_value_form(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# plain key=value form\nh = 2\ntau = 0.4\nseed = 9\n")
    out = tmp_path / "kv.nwk"
    assert main(["gen-tree", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    phy = read_newick_file(out)[0]
    assert phy.h == 2 and np.allclose(phy.edge_tau[1:], 0.4)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"h": 2, "tau": 0.3, "depth": 4}))
    assert main(["gen-tree", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config keys" in capsys.readouterr().err


def test_sweep_asr_smoke(tmp_path, capsys):
    out = tmp_path / "asr.csv"
    assert main(["sweep", "--mode", "asr", "--q-values", "2", "--tau-values", "0.4",
                 "--h-values", "2", "--estimators", "majority,uniform",
                 "--trials", "200", "--seed", "8", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].startswith("estimator\tq\ttau")
    assert out.exists() and "majority" in out.read_text()
    assert main(["asr-eval", "--q-values", "2", "--tau-values", "0.4",
                 "--h-values", "2"]) == EXIT_USAGE   # retired subcommand
    capsys.readouterr()


def test_sweep_smoke_resumes_and_writes_plot_script(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "plot.py"
    argv = ["sweep", "--mode", "ptr", "--q-values", "2", "--tau-values", "0.3",
            "--h-values", "2", "--k-values", "300", "--estimators", "majority",
            "--trials", "3", "--seed", "10", "--out", str(out),
            "--plot-script", str(plot)]
    assert main(argv) == EXIT_OK
    first = out.read_text()
    assert main(argv) == EXIT_OK   # second run resumes, file unchanged
    assert out.read_text() == first
    assert plot.exists()
    compile(plot.read_text(), str(plot), "exec")  # the script must parse
    capsys.readouterr()


def test_probe_exact_smoke(tmp_path):
    out = tmp_path / "probe.txt"
    assert main(["probe", "--q", "2", "--tau", "0.3", "--depth", "2",
                 "--k", "100", "--trials", "20", "--seed", "12",
                 "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "method=exact" in text
    assert "tv=" in text and "success=" in text
    assert text.startswith("# phyrec ")


def test_missing_files_exit_one(capsys):
    assert main(["simulate", "--tree", "/nonexistent/tree.nwk", "--q", "2",
                 "--k", "5", "--seed", "1"]) == EXIT_USAGE
    assert main(["reconstruct", "--align", "/nonexistent/sites.tsv",
                 "--seed", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_readme_advertises_exactly_the_registered_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    advertised = {m for block in blocks
                  for m in re.findall(r"^\s*phyrec ([a-z][a-z-]*)", block, re.M)}
    parser, registry = _build_parser()
    assert advertised == set(registry)
    # every advertised command line parses (continuations joined), unrun
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.strip().startswith("phyrec ")]
    assert len(lines) >= len(registry)
    for argv in lines:
        parser.parse_args(argv[1:])
