"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from turbochannel.turbo import NoiseProfile

_seeds = st.integers(0, 10_000)


def noise_profiles(max_cores: int = 3) -> st.SearchStrategy[NoiseProfile]:
    """Profiles of all three noise kinds, dense enough to overlap."""
    return st.one_of(
        st.builds(NoiseProfile, st.just("idle-background"), seed=_seeds,
                  event_rates=st.none() | st.dictionaries(
                      st.integers(1, 8), st.floats(0, 300), max_size=3)),
        st.builds(NoiseProfile, st.just("constant-load"), seed=_seeds,
                  constant_cores=st.integers(0, max_cores)),
        st.builds(NoiseProfile, st.just("custom"), seed=_seeds,
                  toggle_cores=st.integers(0, max_cores),
                  toggle_min_us=st.integers(1_000, 5_000),
                  toggle_max_us=st.integers(5_000, 60_000)),
    )
