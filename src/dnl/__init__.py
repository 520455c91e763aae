"""Decision-focused training of linear coefficient predictors on regret,
with exact knapsack and machine-scheduling oracles. The package republishes
each module's `__all__`, the one list of its public names."""

from .core import *
from .data import *
from .evaluation import *
from .oracles import *
from .ridge import *
from .training import *
from .transitions import *

__version__ = "0.1.0"
