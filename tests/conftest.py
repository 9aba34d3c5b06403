import sys
from pathlib import Path

# Make the shared helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis draws some values from the literals of the local modules it
# has seen loaded, so the examples of a derandomized test would change
# with any literal edited in the package or the tests, and with the order
# in which the test files import modules.  Draw from its own constants
# only, so that each test's examples depend on its seed alone.
try:
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants
except ImportError:                              # a Hypothesis without local constants
    pass
else:
    providers._get_local_constants = Constants
