"""Command-line entry point wiring the whole package.

Subcommands: gen-tree, simulate, reconstruct, compare, asr-eval, sweep,
probe, verify.  Every randomised run takes a single --seed; when it is
omitted one is drawn from entropy and printed to stderr so the run can
be repeated.  Output files begin with '#' comment lines recording the
package version, the full configuration and the seed.

Exit codes: 0 success, 1 usage or input error, 2 reconstruction failure
(including `compare` reporting unequal trees), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .asr import diluted_state_sets, exact_root_posterior
from .errors import PhyrecError, ReconstructionError
from .experiments import (SweepConfig, asr_accuracy_sweep,
                          distinguishability_probe, ptr_success_sweep)
from .metric import pairwise_distance_matrix
from .model import (G_LIN, G_PERC, delta_from_tau, load_rate_model,
                    potts_rate_matrix, potts_transition_matrix, thresholds,
                    transition_matrix, validate_gtr)
from .newick import parse_newick, read_newick_file, to_newick
from .reconstruct import (ReconstructionParams, _quartet_relations,
                          auto_reconstruction_params, reconstruct_homogeneous)
from .simulate import (exact_leaf_distribution, potts_batch_sample,
                       read_alignment, sample_alignment, write_alignment)
from .tree import (Phylogeny, Topology, homogeneous_phylogeny,
                   random_homogeneous_phylogeny, robinson_foulds,
                   topologies_equal, unroot)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RECONSTRUCTION = 2
EXIT_VERIFY = 3


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


def cmd_asr_eval(args) -> int:
    seed = _resolve_seed(args)
    cfg = SweepConfig(q_values=args.q_values, tau_values=args.tau_values,
                      h_values=args.h_values, l_values=args.l_values,
                      estimators=args.estimators, trials=args.trials,
                      seed=seed, out=args.out,
                      comments=tuple(_header_lines(args, seed)))
    rows = asr_accuracy_sweep(cfg)
    _print_rows(["estimator", "q", "tau", "h", "l", "trials", "accuracy", "stderr"], rows)
    return EXIT_OK


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    cfg = SweepConfig(q_values=args.q_values, tau_values=args.tau_values,
                      h_values=args.h_values, k_values=args.k_values,
                      l_values=args.l_values, estimators=args.estimators,
                      trials=args.trials, seed=seed, out=args.out,
                      jobs=args.jobs, D=args.D, W=args.W, f_min=args.f_min,
                      length_range=args.random_lengths,
                      comments=tuple(_header_lines(args, seed)))
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
# verify: oracle / invariant battery


def _check_potts_closed_form(rng):
    from scipy.linalg import expm
    worst = 0.0
    for q in (2, 3, 4, 16, 64):
        model = potts_rate_matrix(q)
        for tau in (0.05, G_LIN, 0.5, G_PERC, 2.0):
            closed = potts_transition_matrix(q, tau)
            worst = max(worst,
                        float(np.abs(closed - transition_matrix(model, tau)).max()),
                        float(np.abs(closed - expm(tau * model.rate_matrix)).max()))
    return worst < 1e-10, f"max deviation {worst:.2e}"


def _random_gtr(rng, q):
    flux = rng.uniform(0.2, 1.0, size=(q, q))
    flux = flux + flux.T
    pi = rng.uniform(0.5, 1.5, size=q)
    pi /= pi.sum()
    rate = flux / pi[:, None]
    np.fill_diagonal(rate, 0.0)
    np.fill_diagonal(rate, -rate.sum(axis=1))
    model, _ = validate_gtr(q, rate, pi)
    return model


def _check_semigroup(rng):
    worst = 0.0
    for q in (2, 3, 5):
        model = _random_gtr(rng, q)
        for _ in range(5):
            a, b = rng.uniform(0.05, 1.5, size=2)
            lhs = transition_matrix(model, a) @ transition_matrix(model, b)
            worst = max(worst, float(np.abs(lhs - transition_matrix(model, a + b)).max()))
    return worst < 1e-10, f"max |M(a)M(b) - M(a+b)| = {worst:.2e}"


def _check_stationarity(rng):
    worst = 0.0
    for q in (2, 4, 6):
        model = _random_gtr(rng, q)
        for tau in (0.1, 0.7, 2.0):
            m = transition_matrix(model, tau)
            worst = max(worst, float(np.abs(model.pi @ m - model.pi).max()))
    return worst < 1e-12, f"max |pi M - pi| = {worst:.2e}"


def _check_delta_monotone(rng):
    taus = np.linspace(0.0, 4.0, 60)
    for q in (2, 4, 64):
        deltas = [delta_from_tau(q, t) for t in taus]
        if not all(a < b for a, b in zip(deltas, deltas[1:])):
            return False, f"delta not strictly increasing for q={q}"
    return True, "delta strictly increasing in tau"


def _check_thresholds(rng):
    model = potts_rate_matrix(4)
    th = thresholds(model)
    ok = (math.isclose(th.g_lin, 0.5 * math.log(2))
          and math.isclose(th.g_perc, math.log(2))
          and math.isclose(th.g_lin_bio, (3.0 / 8.0) * math.log(2)))
    return ok, (f"g_lin={th.g_lin:.6f} g_perc={th.g_perc:.6f} "
                f"bio(q=4)={th.g_lin_bio:.6f}")


def _check_newick_roundtrip(rng):
    phy = random_homogeneous_phylogeny(3, 0.1, 0.6, rng)
    back = parse_newick(to_newick(phy))
    if not isinstance(back, Phylogeny):
        return False, "phylogeny did not round-trip as a phylogeny"
    same_metric = np.allclose(
        sorted(phy.edge_tau[1:]), sorted(back.edge_tau[1:]), atol=1e-8)
    if not (same_metric and topologies_equal(unroot(phy), unroot(back))):
        return False, "phylogeny round-trip changed the tree"
    top = unroot(phy)
    if not topologies_equal(top, parse_newick(to_newick(top))):
        return False, "topology round-trip changed the splits"
    return True, "phylogeny and topology round-trips exact"


def _check_four_point(rng):
    # Quartet 12|34 with pendant edges 0.1 and internal edge 0.05, so
    # F(12|34) = 0.05: accepted at f_min/2 = 0.045, refused at 0.055.
    d = np.full((4, 4), 0.25)
    d[0, 1] = d[1, 0] = d[2, 3] = d[3, 2] = 0.2
    np.fill_diagonal(d, 0.0)
    gate = 1.0 + math.log(20.0 / 4.0)
    together, separated = _quartet_relations(d, gate, 0.09)
    cross = np.zeros((4, 4), dtype=bool)
    cross[:2, 2:] = cross[2:, :2] = True
    accepted = (np.array_equal(together, ~cross & ~np.eye(4, dtype=bool))
                and np.array_equal(separated, cross))
    refused = not any(r.any() for r in _quartet_relations(d, gate, 0.11))
    return accepted and refused, (f"12|34 accepted at f_min=0.09: {accepted}, "
                                  f"nothing accepted at f_min=0.11: {refused}")


def _check_sampler_agreement(rng):
    phy = homogeneous_phylogeny(2, 0.4)
    model = potts_rate_matrix(3)
    law = exact_leaf_distribution(phy, model).reshape(-1)
    n_samples = 20000
    bound = (law.size - 1) + 6 * math.sqrt(2 * (law.size - 1))
    powers = 3 ** np.arange(3, -1, -1)
    # leaf positions follow labels on this tree, so both share the law's axes
    samples = {"broadcast": sample_alignment(phy, model, n_samples, rng).states,
               "potts-batch": potts_batch_sample(phy, 3, n_samples,
                                                 rng)[:, phy.first_leaf:]}
    stats = {}
    for name, leaves in samples.items():
        observed = np.bincount(leaves @ powers, minlength=law.size)
        expected = law * n_samples
        stats[name] = float(((observed - expected) ** 2 / expected).sum())
    ok = all(s < bound for s in stats.values())
    detail = ", ".join(f"{k} chi2={v:.1f}" for k, v in stats.items())
    return ok, f"{detail} (bound {bound:.1f})"


def _check_posterior(rng):
    worst = 0.0
    for _ in range(5):
        model = _random_gtr(rng, 3)
        phy = random_homogeneous_phylogeny(2, 0.1, 0.8, rng)
        leaves = rng.integers(3, size=4)
        # Brute force: joint law of (root, leaves) summed over internal states.
        mats = {v: transition_matrix(model, phy.edge_tau[v]) for v in range(1, 7)}
        post = np.zeros(3)
        for root in range(3):
            total = 0.0
            for s1 in range(3):
                for s2 in range(3):
                    total += (mats[1][root, s1] * mats[2][root, s2]
                              * mats[3][s1, leaves[0]] * mats[4][s1, leaves[1]]
                              * mats[5][s2, leaves[2]] * mats[6][s2, leaves[3]])
            post[root] = model.pi[root] * total
        post /= post.sum()
        got = exact_root_posterior(phy, model, leaves)
        worst = max(worst, float(np.abs(got - post).max()))
    return worst < 1e-10, f"max posterior deviation {worst:.2e}"


def _reference_diluted(leaves, state, l):
    """Slow recursive definition of the diluted-subtree event."""
    h = int(len(leaves)).bit_length() - 1
    big = l * math.ceil(h / l) if h else 0
    padded = np.repeat(leaves, 2 ** (big - h)) if big > h else np.asarray(leaves)

    def good(block):
        if len(block) == 1:
            return block[0] == state
        width = len(block) // 2 ** l
        return sum(good(block[i * width:(i + 1) * width])
                   for i in range(2 ** l)) >= 2

    return good(padded)


def _check_diluted_event(rng):
    for q, h, l in ((2, 3, 2), (3, 2, 1), (2, 2, 2)):
        n = 2 ** h
        for code in range(q ** n):
            leaves = np.array([(code // q ** i) % q for i in range(n)])
            sets = diluted_state_sets(leaves, q, l)
            for state in range(q):
                if bool(sets[state]) != _reference_diluted(leaves, state, l):
                    return False, f"mismatch at q={q} h={h} l={l} leaves={leaves}"
    return True, "all leaf patterns match the recursive definition"


def _check_distance_formula(rng):
    from .metric import estimate_distance
    one = estimate_distance([0, 0, 0, 0], [1, 0, 0, 0], 2)
    sat = estimate_distance([0, 1], [1, 1], 2)
    ok = math.isclose(one, math.log(2)) and math.isinf(sat)
    return ok, f"one-in-four -> {one:.6f} (ln 2), half mismatch -> {sat}"


_VERIFY_CHECKS = [
    ("potts-closed-form", _check_potts_closed_form),
    ("semigroup", _check_semigroup),
    ("stationarity", _check_stationarity),
    ("delta-monotone", _check_delta_monotone),
    ("thresholds", _check_thresholds),
    ("newick-roundtrip", _check_newick_roundtrip),
    ("four-point-exact", _check_four_point),
    ("sampler-agreement", _check_sampler_agreement),
    ("posterior-enumeration", _check_posterior),
    ("diluted-event", _check_diluted_event),
    ("distance-formula", _check_distance_formula),
]


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    width = max(len(name) for name, _ in _VERIFY_CHECKS)
    for name, check in _VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check(rng)
        except Exception as exc:   # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}  "
              f"[{time.perf_counter() - start:.2f}s]")
    print(f"{len(_VERIFY_CHECKS) - failures}/{len(_VERIFY_CHECKS)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


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

    p = sub("asr-eval", cmd_asr_eval, help="root-estimator accuracy sweep")
    p.add_argument("--q-values", type=_int_list, required=True)
    p.add_argument("--tau-values", type=_float_list, required=True)
    p.add_argument("--h-values", type=_int_list, required=True)
    p.add_argument("--l-values", type=_int_list, default=(1,))
    p.add_argument("--estimators", type=_str_list,
                   default=("diluted", "majority", "posterior", "uniform"))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output (resumable)")

    p = sub("sweep", cmd_sweep, help="success-rate or accuracy sweep over a grid")
    p.add_argument("--mode", choices=("ptr", "asr"), default="ptr")
    p.add_argument("--q-values", type=_int_list, required=True)
    p.add_argument("--tau-values", type=_float_list, required=True)
    p.add_argument("--h-values", type=_int_list, required=True)
    p.add_argument("--k-values", type=_int_list, default=(1000,))
    p.add_argument("--l-values", type=_int_list, default=(1,))
    p.add_argument("--estimators", type=_str_list, default=("diluted",))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--D", type=float)
    p.add_argument("--W", type=float, default=5.5)
    p.add_argument("--f-min", type=float)
    p.add_argument("--random-lengths", type=_float_list,
                   help="f,g: draw each edge uniform on [f, g]")
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

    p = sub("verify", cmd_verify, help="run the oracle/invariant battery")
    p.add_argument("--seed", type=int, default=0)

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
