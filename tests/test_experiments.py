import csv

import numpy as np
import pytest

from phyrec import experiments
from phyrec.experiments import (
    ASR_FIELDS,
    PTR_FIELDS,
    MinKResult,
    SweepConfig,
    _competing_pair,
    _ptr_cell,
    asr_accuracy_sweep,
    asr_outcomes,
    bootstrap_decreasing_probability,
    cell_rng,
    distinguishability_probe,
    find_min_k,
    pipeline_trial,
    ptr_success_sweep,
)
from phyrec.model import potts_rate_matrix


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(ln for ln in handle if not ln.startswith("#")))


def test_cell_rng_is_keyed_and_reproducible():
    a = cell_rng(7, 1, 2).integers(1 << 30, size=5)
    b = cell_rng(7, 1, 2).integers(1 << 30, size=5)
    c = cell_rng(7, 1, 3).integers(1 << 30, size=5)
    d = cell_rng(8, 1, 2).integers(1 << 30, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(q_values=(2,), tau_values=(0.3,), h_values=(2,), trials=0)
    with pytest.raises(ValueError):
        SweepConfig(q_values=(), tau_values=(0.3,), h_values=(2,))
    with pytest.raises(ValueError):
        SweepConfig(q_values=(1,), tau_values=(0.3,), h_values=(2,))
    with pytest.raises(ValueError):
        SweepConfig(q_values=(2,), tau_values=(0.3,), h_values=(0,))
    with pytest.raises(ValueError):
        SweepConfig(q_values=(2,), tau_values=(0.3,), h_values=(2,), k_values=(0,))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            SweepConfig(q_values=(2,), tau_values=(0.3,), h_values=(2,), jobs=jobs)


def test_ptr_sweep_writes_and_resumes(tmp_path):
    out = tmp_path / "ptr.csv"
    cfg = dict(q_values=(2,), tau_values=(0.25,), h_values=(2,),
               k_values=(400,), estimators=("majority",), trials=4,
               seed=17, out=str(out), comments=("smoke sweep",))
    rows = ptr_success_sweep(SweepConfig(**cfg))
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 4 and row["trials"] == 4
    assert 0.0 <= row["rate"] <= 1.0
    assert row["successes"] == round(row["rate"] * 4)
    text = out.read_text()
    assert text.startswith("# smoke sweep")
    assert ",".join(PTR_FIELDS) in text
    on_disk = read_rows(out)
    assert len(on_disk) == 1
    # a second run with the same grid finds the row and does nothing
    again = ptr_success_sweep(SweepConfig(**cfg))
    assert again == []
    assert read_rows(out) == on_disk


def test_ptr_sweep_covers_the_grid(tmp_path):
    cfg = SweepConfig(q_values=(2,), tau_values=(0.2, 0.4), h_values=(2,),
                      k_values=(300,), estimators=("majority",), trials=2,
                      seed=18, out=str(tmp_path / "grid.csv"))
    rows = ptr_success_sweep(cfg)
    assert [r["tau"] for r in rows] == [0.2, 0.4]


def test_asr_outcomes_shapes_and_orderings():
    out = asr_outcomes(2, 0.4, 3, 1, "majority", 500, cell_rng(19, 0))
    assert out.dtype == np.int8 and out.shape == (500,)
    assert set(np.unique(out)) <= {0, 1}
    accs = {est: asr_outcomes(2, 0.4, 3, 1, est, 3000, cell_rng(19, i)).mean()
            for i, est in enumerate(("posterior", "majority", "uniform"))}
    # the exact posterior dominates; uniform guessing sits near 1/2
    assert accs["posterior"] >= accs["majority"] - 0.02
    assert accs["majority"] > accs["uniform"] + 0.05
    assert abs(accs["uniform"] - 0.5) < 0.05
    with pytest.raises(ValueError):
        asr_outcomes(2, 0.4, 2, 1, "oracle", 10, cell_rng(19, 9))


def test_asr_accuracy_sweep_rows(tmp_path):
    out = tmp_path / "asr.csv"
    cfg = SweepConfig(q_values=(3,), tau_values=(0.3,), h_values=(2,),
                      estimators=("majority", "uniform"), trials=400,
                      seed=20, out=str(out))
    rows = asr_accuracy_sweep(cfg)
    assert [r["estimator"] for r in rows] == ["majority", "uniform"]
    for row in rows:
        assert set(row) == set(ASR_FIELDS)
        assert 0.0 <= row["accuracy"] <= 1.0
    assert asr_accuracy_sweep(cfg) == []  # resumable, same as ptr


@pytest.mark.parametrize("sweep", [ptr_success_sweep, asr_accuracy_sweep])
def test_parallel_sweep_matches_serial(tmp_path, sweep):
    def run(jobs):
        out = tmp_path / f"{sweep.__name__}-{jobs}.csv"
        cfg = SweepConfig(q_values=(2,), tau_values=(0.2, 0.4), h_values=(2,),
                          k_values=(300,), estimators=("majority",), trials=3,
                          seed=29, out=str(out), jobs=jobs)
        drop = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                             for r in rows]
        return drop(sweep(cfg)), drop(read_rows(out))

    serial, parallel = run(1), run(2)
    assert len(serial[0]) == 2
    assert parallel == serial


@pytest.mark.parametrize("cells,jobs,want", [(2, 6, 2), (3, 2, 2), (1, 4, None)])
def test_sweep_starts_at_most_one_worker_per_cell(monkeypatch, cells, jobs, want):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    cfg = SweepConfig(q_values=(2,), tau_values=(0.2, 0.3, 0.4)[:cells],
                      h_values=(2,), estimators=("majority",), trials=2,
                      seed=30, jobs=jobs)
    rows = asr_accuracy_sweep(cfg)
    assert len(rows) == cells
    assert started == ([] if want is None else [want])


def test_bootstrap_trend_probability():
    rng = np.random.default_rng(21)
    down = [np.repeat([1, 0], [80, 20]), np.repeat([1, 0], [50, 50]),
            np.repeat([1, 0], [20, 80])]
    assert bootstrap_decreasing_probability(down, 400, rng) > 0.9
    assert bootstrap_decreasing_probability(down[::-1], 400, rng) < 0.1
    flat = [np.repeat([1, 0], [50, 50])] * 3
    assert bootstrap_decreasing_probability(flat, 400, rng) < 0.5


def test_competing_pair_swaps_the_deep_quartet():
    phy1, phy2 = _competing_pair(2, 0.3, 2)
    assert phy1.leaf_labels.tolist() == [1, 2, 3, 4]
    assert phy2.leaf_labels.tolist() == [1, 3, 2, 4]
    assert np.array_equal(phy1.edge_tau, phy2.edge_tau)
    with pytest.raises(ValueError):
        _competing_pair(2, 0.3, 1)


def test_pipeline_trial_scores_against_the_true_topology(monkeypatch):
    from phyrec.reconstruct import auto_reconstruction_params
    from phyrec.tree import homogeneous_phylogeny, unroot
    phy, model = homogeneous_phylogeny(3, 0.25), potts_rate_matrix(2)
    params = auto_reconstruction_params(0.25, 800, estimator="majority")
    assert pipeline_trial(phy, model, 800, params, np.random.default_rng(1)) is True
    # one site leaves every vertex unforced: the ReconstructionError is a miss
    assert pipeline_trial(phy, model, 1, params, np.random.default_rng(1)) is False
    rival = unroot(_competing_pair(2, 0.25, 3)[1])
    monkeypatch.setattr(experiments, "reconstruct_homogeneous",
                        lambda *args: rival)
    assert pipeline_trial(phy, model, 800, params, np.random.default_rng(1)) is False


def test_distinguishability_probe_exact():
    result = distinguishability_probe(2, 0.3, 2, 200, 40,
                                      np.random.default_rng(22))
    assert result.method == "exact"
    assert 0.0 < result.tv < 1.0
    # with k = 200 at this length the likelihood-ratio test is near-perfect
    assert result.success >= 0.85
    # deep competing laws get closer as the swap moves away from the leaves
    tv = {d: distinguishability_probe(2, 0.9, d, 10, 2,
                                      np.random.default_rng(23), method="exact").tv
          for d in (2, 3)}
    assert tv[2] > tv[3] > 0


def test_distinguishability_probe_pipeline():
    from phyrec.reconstruct import auto_reconstruction_params
    params = auto_reconstruction_params(0.25, 800, estimator="majority")
    result = distinguishability_probe(2, 0.25, 2, 800, 12,
                                      np.random.default_rng(24),
                                      method="pipeline", params=params)
    assert result.method == "pipeline"
    assert result.tv is None
    assert result.success >= 0.75
    with pytest.raises(ValueError):
        distinguishability_probe(2, 0.25, 2, 100, 5, np.random.default_rng(25),
                                 method="pipeline")
    with pytest.raises(ValueError):
        distinguishability_probe(2, 0.25, 2, 100, 5, np.random.default_rng(26),
                                 method="likelihood")


def test_find_min_k_bisects():
    result = find_min_k(2, 0.3, 2, 0.6, 27, trials=8)
    assert isinstance(result, MinKResult)
    assert not result.censored
    assert result.k is not None and result.k >= 1
    ks = [k for k, _ in result.curve]
    assert result.k in ks
    assert any(k == result.k and rate >= 0.6 for k, rate in result.curve)
    # each k is the sweep cell of index k: fitted params, cell_rng(27, k, trial)
    for k, rate in result.curve:
        cfg = SweepConfig(q_values=(2,), tau_values=(0.3,), h_values=(2,),
                          k_values=(k,), estimators=("majority",), trials=8,
                          seed=27)
        assert _ptr_cell(cfg, k, 2, 0.3, 2, k, 1, "majority")["rate"] == rate


def test_find_min_k_censors_at_the_cap():
    result = find_min_k(2, 0.6, 3, 0.99, 28, trials=4, k_cap=4)
    assert result.censored
    assert result.k is None
    assert [k for k, _ in result.curve] == [1, 2, 4]


@pytest.mark.parametrize("target_rate,k_cap", [(0, 64), (-0.1, 64), (1.5, 64),
                                               (float("nan"), 64), (0.5, 0)])
def test_find_min_k_refuses_meaningless_targets(target_rate, k_cap):
    with pytest.raises(ValueError):
        find_min_k(2, 0.3, 2, target_rate, 1, trials=1, k_cap=k_cap)
