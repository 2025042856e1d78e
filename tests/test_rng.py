"""Unit tests for the named random streams."""

import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings
from repro.sim import rng as rng_module
from repro.sim.rng import RandomStreams, derive_seed


def bits(value: float) -> bytes:
    """Packed byte image of a double: NaN payloads and -0.0 included."""
    return struct.pack("<d", value)


class CountingRandom(random.Random):
    """The stdlib generator, counting its uniform draws."""

    calls = 0

    def random(self) -> float:
        self.calls += 1
        return super().random()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "arrivals") == derive_seed(42, "arrivals")

    def test_name_changes_seed(self):
        assert derive_seed(42, "arrivals") != derive_seed(42, "noise")

    def test_master_changes_seed(self):
        assert derive_seed(1, "arrivals") != derive_seed(2, "arrivals")

    @given(st.integers(), st.text(max_size=50))
    def test_seed_fits_64_bits(self, master, name):
        seed = derive_seed(master, name)
        assert 0 <= seed < 2 ** 64


class TestRandomStreams:
    def test_same_name_returns_same_stream(self, streams):
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent(self):
        s1 = RandomStreams(7)
        s2 = RandomStreams(7)
        # Drawing from "a" must not affect "b".
        s1.stream("a").random()
        assert s1.stream("b").random() == s2.stream("b").random()

    def test_reproducible_across_instances(self):
        a = RandomStreams(99).stream("x").random()
        b = RandomStreams(99).stream("x").random()
        assert a == b

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(5)
        s2 = RandomStreams(5)
        s1.stream("p")
        s1.stream("q")
        s2.stream("q")
        s2.stream("p")
        assert s1.stream("q").random() == s2.stream("q").random()

    def test_spawn_is_independent_of_parent(self):
        parent = RandomStreams(3)
        child = parent.spawn("job1")
        assert child.master_seed != parent.master_seed
        assert child.stream("x").random() != parent.stream("x").random()

    def test_spawn_deterministic(self):
        a = RandomStreams(3).spawn("job1").stream("x").random()
        b = RandomStreams(3).spawn("job1").stream("x").random()
        assert a == b

    def test_reset_replays_streams(self, streams):
        first = streams.stream("n").random()
        streams.reset()
        assert streams.stream("n").random() == first


class TestDistributions:
    def test_lognormal_sigma_zero_is_exactly_one(self, streams):
        assert streams.lognormal_factor("noise", 0.0) == 1.0

    def test_lognormal_is_positive(self, streams):
        values = [streams.lognormal_factor("noise", 0.5) for _ in range(200)]
        assert all(v > 0 for v in values)

    def test_lognormal_median_near_one(self, streams):
        values = sorted(streams.lognormal_factor("noise", 0.1) for _ in range(999))
        median = values[len(values) // 2]
        assert 0.95 < median < 1.05

    def test_exponential_mean(self, streams):
        n = 2000
        values = [streams.exponential("iat", 4.0) for _ in range(n)]
        mean = sum(values) / n
        assert 3.5 < mean < 4.5

    def test_exponential_rejects_nonpositive_mean(self, streams):
        with pytest.raises(ValueError):
            streams.exponential("iat", 0.0)


class TestNoiseParity:
    """``lognormal_factor`` draws the stdlib's log-normal variate inline;
    ``random.Random.lognormvariate(0.0, sigma)`` is its reference."""

    def test_constant_is_the_stdlib_one(self):
        assert bits(rng_module._NV_MAGICCONST) == bits(random.NV_MAGICCONST)

    @tier_settings("standard")
    @given(
        master=st.integers(0, 2**64),
        name=st.text(max_size=12),
        sigma=st.floats(1e-6, 5.0),
        draws=st.integers(1, 40),
    )
    def test_equals_the_stdlib_variate(self, master, name, sigma, draws):
        streams = RandomStreams(master)
        reference = random.Random(derive_seed(master, name))
        for _ in range(draws):
            want = reference.lognormvariate(0.0, sigma)
            assert bits(streams.lognormal_factor(name, sigma)) == bits(want)
        assert streams.stream(name).getstate() == reference.getstate()

    @pytest.mark.parametrize("sigma", [0.015, 0.5, 3.0, 40.0])
    def test_rejections_draw_like_the_stdlib(self, sigma):
        # the Kinderman-Monahan loop rejects about a quarter of its
        # tries; 400 variates take well over 800 uniforms
        streams = RandomStreams(11)
        reference = CountingRandom(derive_seed(11, "noise"))
        for _ in range(400):
            want = reference.lognormvariate(0.0, sigma)
            assert bits(streams.lognormal_factor("noise", sigma)) == bits(want)
        assert reference.calls > 2 * 400 + 100
        assert streams.stream("noise").getstate() == reference.getstate()

    def test_overflow_raises_like_the_stdlib(self):
        # a huge sigma overflows exp() on the first variate far from 0
        streams = RandomStreams(2)
        reference = random.Random(derive_seed(2, "noise"))
        for _ in range(200):
            try:
                want = reference.lognormvariate(0.0, 1e6)
            except OverflowError:
                with pytest.raises(OverflowError):
                    streams.lognormal_factor("noise", 1e6)
                break
            assert bits(streams.lognormal_factor("noise", 1e6)) == bits(want)
        else:
            pytest.fail("no variate overflowed")
        assert streams.stream("noise").getstate() == reference.getstate()

    @pytest.mark.parametrize("sigma", [0.0, -0.0, -1.0])
    def test_zero_sigma_draws_nothing(self, sigma):
        streams = RandomStreams(5)
        assert bits(streams.lognormal_factor("fresh", sigma)) == bits(1.0)
        assert "fresh" not in streams._streams  # not even created
        state = streams.stream("used").getstate()
        assert bits(streams.lognormal_factor("used", sigma)) == bits(1.0)
        assert streams.stream("used").getstate() == state
