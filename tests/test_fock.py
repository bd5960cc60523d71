import math

import pytest

from twinbeams.fock import FockMixture, photon_statistics


def geometric_weights(n_terms=60):
    return [0.5 ** (n + 1) for n in range(n_terms - 1)] + [0.5 ** (n_terms - 1)]


class TestFockMixture:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FockMixture([0.5, -0.1, 0.6])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FockMixture([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FockMixture([])


class TestPhotonStatistics:
    def test_pure_pair_state(self):
        stats = photon_statistics(FockMixture([0.0, 1.0]))
        assert stats.mean_n == 1.0
        assert stats.var_n == 0.0
        assert stats.c12 is None
        assert stats.intensity_gemellity == 0.0

    def test_all_vacuum_rejected(self):
        with pytest.raises(ValueError):
            photon_statistics(FockMixture([1.0]))

    def test_geometric_mixture(self):
        stats = photon_statistics(FockMixture(geometric_weights()))
        assert stats.mean_n == pytest.approx(1.0)
        assert stats.var_n == pytest.approx(2.0)
        assert stats.fano == pytest.approx(2.0)
        assert stats.c12 == 1.0
        assert stats.intensity_gemellity == 0.0
        assert stats.v12 == 0.0 and stats.v21 == 0.0

    def test_poisson_mixture(self):
        mu = 2.5
        weights = [math.exp(-mu) * mu ** n / math.factorial(n) for n in range(80)]
        weights[-1] += 1.0 - sum(weights)
        stats = photon_statistics(FockMixture(weights))
        assert stats.fano == pytest.approx(1.0, abs=1e-9)
        assert stats.c12 == 1.0
        assert stats.intensity_gemellity == 0.0

    def test_correlated_yet_separable_invariant(self):
        # any mixture with photon-number spread gives perfect correlation
        # and zero gemellity/conditional variances while being separable
        for weights in ([0.3, 0.7], [0.1, 0.2, 0.3, 0.4], geometric_weights()):
            stats = photon_statistics(FockMixture(weights))
            if stats.var_n > 0:
                assert stats.c12 == 1.0
            assert stats.intensity_gemellity == 0.0
            assert stats.v12 == 0.0 and stats.v21 == 0.0

