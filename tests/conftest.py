import tempfile
from pathlib import Path

from hypothesis import configuration, settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is repeatable.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

# Hypothesis still caches the constants it reads from the source (its pytest
# plugin does so while collecting) and writes failure patches under its
# storage directory; keep that in the system's temporary directory, not in
# .hypothesis/ in the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "papradmm-hypothesis")
