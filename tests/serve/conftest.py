"""Hypothesis profiles for the serving tests.

``--hypothesis-profile fleet-soak`` raises every example budget ten-fold
(the fleet simulation's ``_examples`` scales with it); CI's fleet smoke
job runs the state machine under it.
"""

from hypothesis import settings

settings.register_profile(
    "fleet-soak", max_examples=10 * settings.default.max_examples)
