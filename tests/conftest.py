"""Hypothesis profiles.  Property tests that leave max_examples to the profile
draw hypothesis' default count locally; `--hypothesis-profile=ci` draws more."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
