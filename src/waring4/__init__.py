"""Quartic figurate-number Waring machinery: exact counts, exponential-sum
bounds, local densities, and circle-method comparisons."""

from .errors import BudgetError
from .figurate import CatalogEntry, FigurateSpec, catalog, catalog_specs
from .repcount import CountVector, count_profile, count_representations

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CatalogEntry",
    "CountVector",
    "FigurateSpec",
    "__version__",
    "catalog",
    "catalog_specs",
    "count_profile",
    "count_representations",
]
