"""t-product algebra for third-order tensors with a verification lab for
operator, norm, and eigenvalue inequalities.

The public API is each module's ``__all__``, re-exported here; the package
``__all__`` is their concatenation in module order.
"""

from . import (
    core, fourier, eigensolvers, algebra, spectral, certificates, inequalities, localization,
    campaigns, errors,
)
from .core import *
from .fourier import *
from .eigensolvers import *
from .algebra import *
from .spectral import *
from .certificates import *
from .inequalities import *
from .localization import *
from .campaigns import *
from .errors import *

__all__ = [
    name
    for module in (
        core, fourier, eigensolvers, algebra, spectral, certificates, inequalities, localization,
        campaigns, errors,
    )
    for name in module.__all__
]

__version__ = "0.1.0"
