"""Shared test settings: one hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("graphmix", max_examples=200, deadline=None, derandomize=True)
settings.load_profile("graphmix")
