import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

SMALL_PRIMES = (3, 5, 7, 11, 13)
PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_TO_97 = PRIMES_TO_31 + (37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def truncated(value, prec):
    """A ValuedPadic known mod p^prec, prec <= its absolute precision, as
    (valuation, unit residue mod p^(prec - valuation)); None when it vanishes there."""
    assert prec <= value.absolute_precision
    if value.is_zero or value.valuation >= prec:
        return None
    return value.valuation, value.unit.residue % value.p ** (prec - value.valuation)


def kernel_state(kernel):
    """(const, coeffs): what a count kernel evaluates.  A reference's valued
    terms (reference.Folded) pin it only at offsets 0, which is asserted."""
    if hasattr(kernel, "offset"):
        assert kernel.const_offset == kernel.offset == 0, kernel
    return kernel.const, kernel.coeffs
