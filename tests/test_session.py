"""Session facade + the unified keyword vocabulary / deprecation shims."""

import warnings

import numpy as np
import pytest

import repro
from repro import Session
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(21).random((400, 3))


# -- facade equivalence ------------------------------------------------


def test_session_mdrc_matches_free_function(matrix):
    with Session(matrix) as session:
        assert list(session.mdrc(5).indices) == list(repro.mdrc(matrix, 5).indices)


def test_session_md_rrr_matches_free_function(matrix):
    with Session(matrix) as session:
        ours = session.md_rrr(6, rng=0)
    theirs = repro.md_rrr(matrix, 6, rng=0)
    assert list(ours.indices) == list(theirs.indices)


def test_session_sample_ksets_matches_free_function(matrix):
    with Session(matrix) as session:
        ours = session.sample_ksets(4, rng=0, patience=50)
    theirs = repro.sample_ksets(matrix, 4, rng=0, patience=50)
    assert ours.ksets == theirs.ksets
    assert ours.draws == theirs.draws


def test_session_rank_regret_matches_free_function(matrix):
    subset = [0, 5, 17]
    with Session(matrix) as session:
        ours = session.rank_regret(subset, num_functions=500, rng=0)
    theirs = repro.rank_regret_sampled(matrix, subset, num_functions=500, rng=0)
    assert ours == theirs


def test_session_evaluate_matches_free_function(matrix):
    with Session(matrix) as session:
        result = session.mdrc(5)
        ours = session.evaluate(result.indices, 5, num_functions=400, rng=0)
    theirs = repro.evaluate_representative(
        matrix, result.indices, 5, num_functions=400, rng=0
    )
    assert ours.rank_regret == theirs.rank_regret
    assert ours.regret_ratio == theirs.regret_ratio


def test_session_fractional_k_resolves_against_live_n(matrix):
    with Session(matrix) as session:
        assert list(session.mdrc(0.05).indices) == list(
            repro.mdrc(matrix, repro.resolve_k(0.05, matrix.shape[0])).indices
        )


def test_session_mutations_and_requery(matrix):
    rng = np.random.default_rng(3)
    with Session(matrix) as session:
        fresh = rng.random((8, 3))
        indices = session.insert_rows(fresh)
        assert indices.tolist() == list(range(400, 408))
        assert session.n == 408
        assert session.delete_rows(indices[:3]) == 3
        assert session.n == 405
        assert session.revision > 0
        # Post-mutation queries match a fresh engine over session.values.
        current = session.values.copy()
        assert list(session.mdrc(5).indices) == list(repro.mdrc(current, 5).indices)


def test_session_topk_and_rank_passthrough(matrix):
    from repro.engine import ScoreEngine

    weights = np.random.default_rng(4).random((6, 3))
    with Session(matrix) as session:
        batch = session.topk(weights, 4)
        ranks = session.rank_of_best(weights, [1, 2, 3])
    with ScoreEngine(matrix, float32=True) as engine:
        reference = engine.topk_batch(weights, 4)
        rank_ref = engine.rank_of_best_batch(weights, [1, 2, 3])
    assert np.array_equal(batch.members, reference.members)
    assert np.array_equal(batch.order, reference.order)
    assert np.array_equal(ranks, rank_ref)


def test_session_close_is_idempotent_and_context_manager(matrix):
    session = Session(matrix)
    assert session.d == 3
    session.close()
    session.close()


def test_session_rejects_bad_matrix():
    with pytest.raises(ValidationError):
        Session(np.empty((0, 3)))


def test_session_exported_in_all():
    assert "Session" in repro.__all__
    assert "RetryPolicy" in repro.__all__


# -- keyword vocabulary ------------------------------------------------

OLD_SPELLING = [
    lambda matrix: repro.mdrc(matrix, 5, n_jobs=1),
    lambda matrix: repro.md_rrr(matrix, 6, rng=0, n_jobs=1),
    lambda matrix: repro.sample_ksets(matrix, 4, rng=0, patience=50, n_jobs=1),
    lambda matrix: repro.rank_regret_sampled(
        matrix, [0, 1], num_functions=100, rng=0, n_jobs=1
    ),
    lambda matrix: repro.evaluate_representative(
        matrix, [0, 1, 2], 5, num_functions=100, rng=0, n_jobs=1
    ),
    lambda matrix: repro.rank_regret_representative(matrix, 5, n_jobs=1),
]


@pytest.mark.parametrize("call", OLD_SPELLING, ids=[
    "mdrc", "md_rrr", "sample_ksets", "rank_regret_sampled",
    "evaluate_representative", "rank_regret_representative",
])
def test_n_jobs_spelling_warns_and_forwards(matrix, call):
    # The old spelling no longer warns or forwards: it is an unknown keyword.
    with pytest.raises(TypeError, match="n_jobs"):
        call(matrix)


def test_canonical_spelling_does_not_warn(matrix):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        repro.mdrc(matrix, 5, jobs=1)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_both_spellings_is_a_type_error(matrix):
    with pytest.raises(TypeError, match="n_jobs"):
        repro.mdrc(matrix, 5, jobs=1, n_jobs=1)


def test_experiment_runners_accept_jobs_keyword():
    import inspect

    from repro.experiments.reproduce import reproduce_all
    from repro.experiments.runner import run_experiment, run_kset_count, run_maintenance

    for fn in (run_experiment, run_kset_count, run_maintenance, reproduce_all):
        assert "jobs" in inspect.signature(fn).parameters, fn.__name__
        assert "n_jobs" not in inspect.signature(fn).parameters, fn.__name__
