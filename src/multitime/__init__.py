"""multitime: multi-time evolution equations in quantum mechanics,
Hamilton-Jacobi theory and classical mechanics, with computable
consistency defects, holonomies and foliation-dependence experiments."""

from .expr import (
    DomainError,
    ExpressionError,
    ExpressionSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
    evaluate,
    free_variables,
    parse_expression,
)
from .reports import DefectReport, DivergenceReport, ResidualReport

__version__ = "0.1.0"
