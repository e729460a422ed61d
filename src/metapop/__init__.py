"""Meta-learning toolkit for population-based black-box optimizers.

Trains a recurrent, population-based optimizer over distributions of
synthetic benchmark tasks with a seed-encoded genetic outer loop, and
benchmarks the result against random search and CMA-ES using restart-based
expected-runtime (ERT) and multi-target ECDF methodology.
"""

from . import problems, env, policy, ert, baselines, ga, bench, config, seeding
from .problems import *  # noqa: F403
from .env import *  # noqa: F403
from .policy import *  # noqa: F403
from .ert import *  # noqa: F403
from .baselines import *  # noqa: F403
from .ga import *  # noqa: F403
from .bench import *  # noqa: F403
from .config import *  # noqa: F403
from .seeding import *  # noqa: F403

__all__ = [
    *problems.__all__,
    *env.__all__,
    *policy.__all__,
    *ert.__all__,
    *baselines.__all__,
    *ga.__all__,
    *bench.__all__,
    *config.__all__,
    *seeding.__all__,
]
