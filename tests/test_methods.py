"""The method registry's one entry point, ``run_method``: which calls it
refuses, how it seeds, and how it wraps a bare association matrix."""

from dataclasses import asdict

import numpy as np
import pytest

from taxonet.correlation import correlation_matrix
from taxonet.data import clr_transform
from taxonet.errors import EstimatorError
from taxonet.methods import CorrelationParams, run_method
from taxonet.network import MethodResult
from taxonet.sparcc import SparccParams, sparcc_fit

from conftest import make_table


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(5)
    return make_table(rng.integers(1, 60, size=(30, 6)))


def test_unknown_method_is_refused(table):
    with pytest.raises(EstimatorError, match="unknown method 'pearsn'"):
        run_method("pearsn", table)


def test_params_of_another_method_are_refused(table):
    with pytest.raises(EstimatorError, match="pearson expects CorrelationParams, got SparccParams"):
        run_method("pearson", table, SparccParams())


def test_no_seed_runs_as_seed_zero(table):
    unseeded = run_method("sparcc", table, seed=None).weighted
    assert unseeded.tobytes() == run_method("sparcc", table, seed=0).weighted.tobytes()
    # sparcc draws from its seed, so seed 0 is a real choice
    assert not np.array_equal(unseeded, run_method("sparcc", table, seed=1).weighted)


@pytest.mark.parametrize("method, params, expected", [
    ("spearman", CorrelationParams(pseudo=1.0),
     lambda t, p: correlation_matrix(clr_transform(t, pseudo=1.0), t.taxa, "spearman")),
    ("sparcc", SparccParams(imax=5),
     lambda t, p: sparcc_fit(t, p, seed=7)),
])
def test_a_bare_matrix_is_wrapped(table, method, params, expected):
    result = run_method(method, table, params, seed=7)
    assert isinstance(result, MethodResult)
    assert result.method == method
    assert result.params == asdict(params)
    assert result.taxa == table.taxa
    assert result.weighted.tobytes() == expected(table, params).tobytes()
    assert result.network is None and result.selection == {}
