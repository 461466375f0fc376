import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples: each test's seed comes from the test
# itself, and each test keeps its own `max_examples`.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
