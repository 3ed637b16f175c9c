from fractions import Fraction

import pytest

from gapdim import Function, FunctionClass
from oracles import oracle_constant, union_of


@pytest.fixture
def ramp8() -> Function:
    """Identity ramp discretized on dyadic eighths, value = left endpoint."""
    pieces = [
        union_of([(Fraction(j, 8), Fraction(j + 1, 8))]) for j in range(8)
    ]
    return Function.step(pieces, [Fraction(j, 8) for j in range(8)])


@pytest.fixture
def zero_one_class() -> FunctionClass:
    return FunctionClass(
        [oracle_constant(0), oracle_constant(1)], "constants01"
    )
