"""What the benchmark's traced run (perfbench/tracing.py) relies on in
phyrec: the layers it wraps, the argument names its counters read, the
quartet cache it polls and the cherry-matching message it parses.  A
refactor that breaks one of these fails here, not in a traced run."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from phyrec import reconstruct
from phyrec.errors import CherryMatchingError

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()

# the argument names each counter reads from the wrapped call
COUNTER_ARGUMENTS = {
    tracing._count_quartets: {"dist", "gate"},
    tracing._count_node_sites: {"phy", "k"},
    tracing._count_roots: {"leaf_batch"},
    tracing._count_saturated: set(),
}


@pytest.mark.parametrize("layer", tracing._LAYERS,
                         ids=[f"{m.__name__}.{a}" for m, a, *_ in tracing._LAYERS])
def test_wrapped_layers_exist_and_bind_counter_arguments(layer):
    module, attr, _, after, _ = layer
    original = getattr(module, attr)
    assert callable(original)
    if after is not None:
        parameters = inspect.signature(original).parameters
        assert COUNTER_ARGUMENTS[after] <= set(parameters), attr


def test_quartet_cache_is_pollable():
    info = reconstruct._all_quartets.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_matching_failure_names_the_unforced_count():
    none = np.zeros((4, 4), dtype=bool)
    with pytest.raises(CherryMatchingError) as exc:
        reconstruct._matching_from_relations(none, none.copy())
    assert tracing._UNFORCED.search(str(exc.value)).groups() == ("4", "4")
