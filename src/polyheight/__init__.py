"""polyheight: exact heights, Gauss norms and Mahler measures of
polynomials over Q and quadratic fields, with certified inequality
checks and constructive searches."""

from .analytic import (MahlerValue, arch_gauss_exact, check_complexmahler,
                       mahler_measure)
from .bounds import (BoundCheck, CkInterval, MahlerFloor, T2Constant,
                     alphabound2_root_factor, check_alphabound1,
                     check_alphabound2, check_bound1, check_bound2,
                     ck_interval, combined_bound_check, mahler_floor,
                     t2_constant)
from .exactreal import SqrtValue
from .fields import (Field, FieldElement, embed, make_field, quadratic_field,
                     rationals, roots_of_unity)
from .gauss_lattice import LatticeReport, is_coprime, lattice_case_check
from .heights import (CharPoly, HeightReport, SplitRecord, char_poly,
                      count_unity_roots, height, mk_alpha_exact,
                      split_record)
from .intervals import DEFAULT_PREC, MAX_PREC, ComplexBox, RealInterval
from .polynomials import PolyOverK, SplitPoly, int_to_poly
from .rootfind import CertificationError, RootBox, complex_roots
from .search import (Certificate, MKResult, PellWitness, SampleCheck,
                     ck_lower_certify, mk_search, pell_counterexample,
                     real_case_samples, recognize_split)
from .valuations import (PrimeOfK, ProductFormulaReport, abs_at,
                         nonarch_gauss_product, product_formula_check,
                         split_prime, valuation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
