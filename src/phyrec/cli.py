"""Command-line entry point wiring the whole package.

Subcommands: gen-tree, simulate, reconstruct, compare, sweep (topology
success with ``--mode ptr``, root-estimator accuracy with ``--mode asr``)
and probe.  Every randomised run takes a single --seed; when it is
omitted one is drawn from entropy and printed to stderr so the run can
be repeated.  Output files begin with '#' comment lines recording the
package version, the full configuration and the seed.

Exit codes: 0 success, 1 usage or input error, 2 reconstruction failure
(including `compare` reporting unequal trees).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import PhyrecError, ReconstructionError
from .experiments import (SweepConfig, asr_accuracy_sweep,
                          distinguishability_probe, ptr_success_sweep)
from .metric import pairwise_distance_matrix
from .model import load_rate_model, potts_rate_matrix
from .newick import read_newick_file, to_newick
from .reconstruct import (ReconstructionParams, auto_reconstruction_params,
                          reconstruct_homogeneous)
from .simulate import read_alignment, sample_alignment, write_alignment
from .tree import (Phylogeny, Topology, homogeneous_phylogeny,
                   random_homogeneous_phylogeny, robinson_foulds,
                   topologies_equal, unroot)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RECONSTRUCTION = 2


def _float_list(text):
    return tuple(float(x) for x in str(text).split(","))


def _int_list(text):
    return tuple(int(x) for x in str(text).split(","))


def _str_list(text):
    return tuple(s.strip() for s in str(text).split(","))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is None:
        args.seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        print(f"seed drawn from entropy: {args.seed}", file=sys.stderr)
    return args.seed


def _header_lines(args, seed) -> list:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "config") and not callable(v) and v is not None}
    return [f"# phyrec {__version__}",
            f"# config: {json.dumps(cfg, default=str, sort_keys=True)}",
            f"# seed: {seed}"]


def _write_lines(path, lines):
    if path:
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        print("\n".join(line for line in lines if not line.startswith("#")))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_tree(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    if args.tau is not None:
        phy = homogeneous_phylogeny(args.h, args.tau)
    elif args.f is not None and args.g is not None:
        phy = random_homogeneous_phylogeny(args.h, args.f, args.g, rng)
    else:
        raise ValueError("gen-tree needs --tau or both --f and --g")
    _write_lines(args.out, _header_lines(args, seed) + [to_newick(phy)])
    return EXIT_OK


def _load_tree(path) -> Phylogeny:
    trees = read_newick_file(path)
    if not trees:
        raise ValueError(f"no tree found in {path}")
    if not isinstance(trees[0], Phylogeny):
        raise ValueError(f"{path} holds a bare topology; branch lengths are required")
    return trees[0]


def _model_from(args):
    if (args.model is None) == (args.q is None):
        raise ValueError("exactly one of --q (symmetric model) or --model is required")
    return potts_rate_matrix(args.q) if args.q is not None else load_rate_model(args.model)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    phy = _load_tree(args.tree)
    model = _model_from(args)
    align = sample_alignment(phy, model, args.k, rng)
    comments = _header_lines(args, seed)
    if args.out:
        write_alignment(args.out, align, comments=comments)
    else:
        write_alignment(sys.stdout, align, comments=comments)
    return EXIT_OK


def _auto_params(args, dist, k) -> ReconstructionParams:
    """Fill D and f_min from the data when they are not given: the
    smallest pairwise estimate approximates twice the shortest edge, and
    the gate/threshold are fitted to that scale and the sequence length."""
    finite = dist[(dist > 0) & np.isfinite(dist)]
    g_est = float(finite.min()) / 2.0 if finite.size else 0.5
    return auto_reconstruction_params(max(g_est, 1e-6), k, l=args.l, W=args.W,
                                      estimator=args.estimator,
                                      f_min=args.f_min, D=args.D)


def cmd_reconstruct(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    align = read_alignment(args.align)
    order = np.argsort(align.node_ids)
    seqs = align.states[:, order].T
    params = _auto_params(args, pairwise_distance_matrix(seqs, align.q), align.k)
    topology = reconstruct_homogeneous(align, align.q, params, rng)
    _write_lines(args.out, _header_lines(args, seed) + [to_newick(topology)])
    return EXIT_OK


def _as_topology(obj) -> Topology:
    return unroot(obj) if isinstance(obj, Phylogeny) else obj


def cmd_compare(args) -> int:
    t1 = _as_topology(read_newick_file(args.tree1)[0])
    t2 = _as_topology(read_newick_file(args.tree2)[0])
    if topologies_equal(t1, t2):
        print("equal")
        return EXIT_OK
    print(f"different (robinson-foulds {robinson_foulds(t1, t2)})")
    return EXIT_RECONSTRUCTION


def _print_rows(fields, rows):
    print("\t".join(fields))
    for row in rows:
        print("\t".join(_cell(row[f]) for f in fields))


def _cell(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


_PTR_ONLY_FLAGS = (("--k-values", "k_values"), ("--D", "D"), ("--W", "W"),
                   ("--f-min", "f_min"), ("--random-lengths", "random_lengths"))


def cmd_sweep(args) -> int:
    if args.mode == "asr":
        given = [flag for flag, dest in _PTR_ONLY_FLAGS
                 if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"sweep --mode asr does not take {', '.join(given)}")
        grid = {}
    else:
        if args.k_values is None:
            args.k_values = (1000,)
        if args.W is None:
            args.W = 5.5
        grid = {"k_values": args.k_values, "W": args.W}
    seed = _resolve_seed(args)
    cfg = SweepConfig(q_values=args.q_values, tau_values=args.tau_values,
                      h_values=args.h_values, l_values=args.l_values,
                      estimators=args.estimators, trials=args.trials,
                      seed=seed, out=args.out, jobs=args.jobs, D=args.D,
                      f_min=args.f_min, length_range=args.random_lengths,
                      comments=tuple(_header_lines(args, seed)), **grid)
    if args.mode == "ptr":
        rows = ptr_success_sweep(cfg)
        _print_rows(["q", "tau", "h", "k", "l", "estimator", "trials",
                     "rate", "stderr", "seconds"], rows)
    else:
        rows = asr_accuracy_sweep(cfg)
        _print_rows(["estimator", "q", "tau", "h", "l", "trials",
                     "accuracy", "stderr"], rows)
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, args.mode)
    return EXIT_OK


def _write_plot_script(path, csv_path, mode):
    """Emit a standalone matplotlib script for the sweep CSV; the tool
    itself never opens windows."""
    x, y, series = (("k", "rate", ("q", "tau", "h"))
                    if mode == "ptr" else ("h", "accuracy", ("estimator", "q", "tau")))
    body = f'''#!/usr/bin/env python
"""Plot {y} against {x} from {csv_path!r} (generated by phyrec sweep)."""
import csv
from collections import defaultdict
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

groups = defaultdict(list)
with open({csv_path!r}) as handle:
    for row in csv.DictReader(r for r in handle if not r.startswith("#")):
        key = tuple(row[c] for c in {series!r})
        groups[key].append((float(row[{x!r}]), float(row[{y!r}]),
                            float(row["stderr"])))
fig, ax = plt.subplots()
for key, points in sorted(groups.items()):
    points.sort()
    xs, ys, errs = zip(*points)
    label = ", ".join(f"{{c}}={{v}}" for c, v in zip({series!r}, key))
    ax.errorbar(xs, ys, yerr=errs, marker="o", capsize=3, label=label)
ax.set_xlabel({x!r})
ax.set_ylabel({y!r})
ax.legend(fontsize=8)
fig.savefig({csv_path!r}.rsplit(".", 1)[0] + ".png", dpi=150)
'''
    with open(path, "w") as handle:
        handle.write(body)


def cmd_probe(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    params = None
    if args.method == "pipeline":
        params = auto_reconstruction_params(args.tau, args.k, l=args.l,
                                            W=args.W, estimator=args.estimator,
                                            f_min=args.f_min, D=args.D)
    result = distinguishability_probe(args.q, args.tau, args.depth, args.k,
                                      args.trials, rng, method=args.method,
                                      params=params)
    lines = _header_lines(args, seed) + [
        f"method={result.method}", f"depth={result.depth}", f"k={result.k}",
        f"trials={result.trials}", f"success={result.success:.6g}"]
    if result.tv is not None:
        lines.append(f"tv={result.tv:.6g}")
    _write_lines(args.out, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phyrec",
        description="Phylogenetic reconstruction beyond the linear threshold.")
    parser.add_argument("--version", action="version",
                        version=f"phyrec {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name, func, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="file of key=value lines (or JSON) "
                       "providing defaults; keys are flag names with - as _")
        registry[name] = p
        return p

    p = sub("gen-tree", cmd_gen_tree, help="generate a homogeneous phylogeny")
    p.add_argument("--h", type=int, required=True, help="number of levels")
    p.add_argument("--tau", type=float, help="fixed edge length")
    p.add_argument("--f", type=float, help="minimum random edge length")
    p.add_argument("--g", type=float, help="maximum random edge length")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output Newick file (default stdout)")

    p = sub("simulate", cmd_simulate, help="sample an alignment on a tree")
    p.add_argument("--tree", required=True, help="Newick file with branch lengths")
    p.add_argument("--q", type=int, help="alphabet size of the symmetric model")
    p.add_argument("--model", help="rate-model config file (GTR)")
    p.add_argument("--k", type=int, required=True, help="number of sites")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output alignment file (default stdout)")

    p = sub("reconstruct", cmd_reconstruct, help="reconstruct a topology "
            "from an alignment")
    p.add_argument("--align", required=True, help="alignment file")
    p.add_argument("--l", type=int, default=1, help="dilution parameter")
    p.add_argument("--D", type=float, help="diameter bound (default: fitted "
                   "from the smallest pairwise distance)")
    p.add_argument("--W", type=float, default=5.5,
                   help="gate width (> 5; 20 is the conservative choice)")
    p.add_argument("--f-min", type=float, help="edge-length lower bound "
                   "(default: fitted)")
    p.add_argument("--estimator", choices=("diluted", "majority"),
                   default="diluted")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output Newick file (default stdout)")

    p = sub("compare", cmd_compare, help="compare two trees as unrooted "
            "topologies (exit 0 equal, 2 different)")
    p.add_argument("--tree1", required=True)
    p.add_argument("--tree2", required=True)

    p = sub("sweep", cmd_sweep, help="success-rate or accuracy sweep over a grid")
    p.add_argument("--mode", choices=("ptr", "asr"), default="ptr")
    p.add_argument("--q-values", type=_int_list, required=True)
    p.add_argument("--tau-values", type=_float_list, required=True)
    p.add_argument("--h-values", type=_int_list, required=True)
    p.add_argument("--k-values", type=_int_list,
                   help="sequence lengths, ptr mode only (default 1000)")
    p.add_argument("--l-values", type=_int_list, default=(1,))
    p.add_argument("--estimators", type=_str_list, default=("diluted",))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--D", type=float, help="ptr mode only")
    p.add_argument("--W", type=float, help="ptr mode only (default 5.5)")
    p.add_argument("--f-min", type=float, help="ptr mode only")
    p.add_argument("--random-lengths", type=_float_list,
                   help="f,g: draw each edge uniform on [f, g]; ptr mode only")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for sweep cells")
    p.add_argument("--seed", type=int)
    p.add_argument("--plot-script", help="also write a matplotlib script")
    p.add_argument("--out", help="CSV output (resumable)")

    p = sub("probe", cmd_probe, help="distinguishability of two rival "
            "deep-quartet topologies")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--method", choices=("exact", "pipeline"), default="exact")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--D", type=float)
    p.add_argument("--W", type=float, default=5.5)
    p.add_argument("--f-min", type=float)
    p.add_argument("--estimator", choices=("diluted", "majority"),
                   default="majority")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    return parser, registry


def _load_config(path) -> dict:
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
    else:
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return {k.replace("-", "_"): v for k, v in raw.items()}


def _apply_config(subparser, cfg: dict):
    for action in subparser._actions:
        if action.dest in cfg:
            value = cfg.pop(action.dest)
            if action.type is not None and isinstance(value, str):
                value = action.type(value)
            subparser.set_defaults(**{action.dest: value})
            action.required = False
    unknown = set(cfg) - {"config"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        if "--config" in argv:
            name = next((a for a in argv if not a.startswith("-")), None)
            if name in registry:
                path = argv[argv.index("--config") + 1]
                _apply_config(registry[name], _load_config(path))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    except PhyrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
