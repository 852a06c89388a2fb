"""Portfolio optimization under fast/slow stochastic volatility.

Building blocks: general utilities (`utility`), constant-Sharpe Merton
solvers (`merton`), ergodic factor averaging (`factors`), first-order value
corrections and the zeroth-order strategy (`asymptotics`), a Monte Carlo
engine (`simulate`), and the verification harness behind the ``msport``
command (`experiments`).
"""

from .asymptotics import ExpansionBundle
from .factors import (
    FactorAverages,
    MarketModel,
    OrnsteinUhlenbeckFactor,
    averaged_sharpe,
    fast_coupling,
    PoissonSolution,
    invariant_average,
)
from .merton import (
    MertonSolution,
    apply_dk,
    merton_strategy,
    residual_of_pde,
    solve_merton,
)
from .simulate import (
    AllCash,
    Perturbed,
    Scaled,
    SimConfig,
    ValueEstimate,
    ZerothOrder,
    estimate_value,
)
from .utility import UtilitySpec, make_utility

__version__ = "0.1.0"

__all__ = [
    "AllCash",
    "ExpansionBundle",
    "FactorAverages",
    "MarketModel",
    "MertonSolution",
    "OrnsteinUhlenbeckFactor",
    "Perturbed",
    "PoissonSolution",
    "Scaled",
    "SimConfig",
    "UtilitySpec",
    "ValueEstimate",
    "ZerothOrder",
    "apply_dk",
    "averaged_sharpe",
    "estimate_value",
    "fast_coupling",
    "invariant_average",
    "make_utility",
    "merton_strategy",
    "residual_of_pde",
    "solve_merton",
    "__version__",
]
