"""Suite-wide settings.

Property tests draw their examples from a fixed derandomized sequence and
have no per-example deadline, so they neither flake nor time out on a slow
or loaded machine.
"""

from hypothesis import settings

settings.register_profile("rootspin", derandomize=True, deadline=None)
settings.load_profile("rootspin")
