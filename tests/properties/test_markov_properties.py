"""Property-based tests for the Markov layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import CTMC, birth_death_chain
from repro.markov.solvers import (
    steady_state_gth,
    steady_state_linear,
    strongly_connected_components,
)

rates = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def generators(draw, max_states=7):
    """Random irreducible generators via a strictly positive rate cycle."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    q = np.zeros((n, n))
    # A cycle guarantees irreducibility...
    for i in range(n):
        q[i, (i + 1) % n] = draw(rates)
    # ...plus random extra edges.
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), rates
            ),
            max_size=10,
        )
    )
    for i, j, r in extra:
        if i != j:
            q[i, j] += r
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestSteadyStateInvariants:
    @given(generators())
    @settings(max_examples=60, deadline=None)
    def test_gth_produces_distribution(self, q):
        pi = steady_state_gth(q)
        assert np.all(pi >= 0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        scale = max(np.abs(q).max(), 1.0)
        assert np.abs(pi @ q).max() < 1e-8 * scale

    @given(generators(max_states=5))
    @settings(max_examples=40, deadline=None)
    def test_gth_and_linear_agree(self, q):
        gth = steady_state_gth(q)
        linear = steady_state_linear(q)
        assert gth == pytest.approx(linear, abs=1e-7)

    @given(generators(max_states=5))
    @settings(max_examples=30, deadline=None)
    def test_embedded_chain_consistency(self, q):
        """pi_ctmc is proportional to pi_embedded / exit_rate."""
        chain = CTMC(list(range(q.shape[0])), q)
        pi = chain.steady_state()
        embedded = chain.embedded_dtmc().stationary_distribution()
        weights = {
            s: embedded[s] / chain.exit_rate(s) for s in chain.states
        }
        total = sum(weights.values())
        for s in chain.states:
            assert pi[s] == pytest.approx(weights[s] / total, abs=1e-7)


class TestBirthDeathInvariants:
    @given(
        st.lists(rates, min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_detailed_balance(self, births, data):
        deaths = data.draw(
            st.lists(rates, min_size=len(births), max_size=len(births))
        )
        chain = birth_death_chain(births, deaths)
        pi = chain.steady_state()
        # Birth-death chains satisfy detailed balance.
        for i in range(len(births)):
            flow_up = pi[i] * births[i]
            flow_down = pi[i + 1] * deaths[i]
            assert flow_up == pytest.approx(
                flow_down, rel=1e-6, abs=1e-12
            )


class TestTransientInvariants:
    @given(generators(max_states=5), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_transient_is_distribution(self, q, t):
        from repro.markov.transient import uniformization

        n = q.shape[0]
        p0 = np.zeros(n)
        p0[0] = 1.0
        result = uniformization(q, p0, t)
        assert np.all(result >= -1e-12)
        assert result.sum() == pytest.approx(1.0, abs=1e-9)


@st.composite
def digraphs(draw, max_nodes=8):
    """Random 0/1 adjacency matrices of 1 to *max_nodes* nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(cells, dtype=float).reshape(n, n)


class TestComponentOrder:
    @given(digraphs())
    @settings(max_examples=100, deadline=None)
    def test_components_partition_in_topological_order(self, adjacency):
        n = adjacency.shape[0]
        components = strongly_connected_components(adjacency)
        members = [state for component in components for state in component]
        assert sorted(members) == list(range(n))
        position = {
            state: index
            for index, component in enumerate(components)
            for state in component
        }
        for i, j in zip(*np.nonzero(adjacency)):
            assert position[i] <= position[j]
