"""bakerlab: quantized baker maps, their symmetry partners, and the
entanglement they generate.

The package builds the baker family of unitary maps on even-dimensional
Hilbert spaces, samples random states and circular-ensemble matrices
reproducibly, measures linear entropy under iteration, and evaluates the
closed-form time-asymptotic entangling power from a map's eigenvectors.

Every public name of the submodules (their ``__all__``) is re-exported here.
"""

__version__ = "0.1.0"

from . import ensembles, entropy, linalg, maps, matrixio, reports
from .ensembles import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .matrixio import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *linalg.__all__,
    *maps.__all__,
    *ensembles.__all__,
    *entropy.__all__,
    *matrixio.__all__,
    *reports.__all__,
]
