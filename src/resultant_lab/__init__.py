"""Hidden-variable resultant solvers for polynomial systems expressed in
degree-graded bases (monomial, Chebyshev, Legendre, or custom recurrences).

The package builds Cayley and Sylvester resultant matrix polynomials
directly in the working basis, solves the resulting polynomial
eigenvalue problems through basis-aware linearizations, recovers full
roots from eigenvector structure, and reports conditioning for both the
eigenvalue and the root."""

from .basis import (ClenshawTrace, DegreeGradedBasis, DegreeOverflowError,
                    Domain, NormalizationWarning, basis_eval_all,
                    basis_eval_deriv_all, basis_from_json, basis_to_json,
                    clenshaw_eval, clenshaw_shifts, derivative_eval,
                    divided_difference)
from .cayley import (CayleyResultant, cayley_resultant,
                     cayley_resultant_to_json, cayley_root_eigvectors,
                     default_taus)
from .matpoly import (EigenSolveError, MatrixPolynomial, NotRegularError,
                      StructureError, eigvecs, matpoly_eval,
                      matpoly_to_json, polyeig)
from .multipoly import (HiddenVariableForm, MultiPoly, PolynomialSystem,
                        eval_with_jacobian, hide_variable, mp_eval,
                        mp_interpolate, system_from_json, system_to_json)
from .rootfinder import (ConditionRecord, RootRecord, RootReport,
                         SolveOptions, condition_at_root,
                         condition_sweep, family_coupled_quadratic,
                         family_linear, family_orthogonal_quadratic,
                         family_rotated_quadratic, newton_polish,
                         random_system_with_root, recover_components,
                         report_to_csv, report_to_json, solve_system)
from .sylvester import (SylvesterResultant, sylvester_degrees,
                        sylvester_resultant, sylvester_resultant_to_json,
                        sylvester_root_eigvectors)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis
    "Domain", "DegreeGradedBasis", "ClenshawTrace", "DegreeOverflowError",
    "NormalizationWarning", "basis_eval_all", "basis_eval_deriv_all",
    "clenshaw_eval",
    "clenshaw_shifts", "divided_difference", "derivative_eval",
    "basis_to_json", "basis_from_json",
    # multipoly
    "MultiPoly", "PolynomialSystem", "HiddenVariableForm",
    "mp_eval", "mp_interpolate", "hide_variable", "eval_with_jacobian",
    "system_to_json", "system_from_json",
    # matpoly
    "MatrixPolynomial", "EigenSolveError", "NotRegularError",
    "StructureError", "matpoly_eval", "polyeig", "eigvecs",
    "matpoly_to_json",
    # cayley
    "CayleyResultant", "default_taus", "cayley_resultant",
    "cayley_root_eigvectors", "cayley_resultant_to_json",
    # sylvester
    "SylvesterResultant", "sylvester_degrees", "sylvester_resultant",
    "sylvester_root_eigvectors",
    "sylvester_resultant_to_json",
    # rootfinder
    "SolveOptions", "RootRecord", "RootReport",
    "solve_system", "newton_polish", "recover_components",
    "condition_at_root", "ConditionRecord", "condition_sweep",
    "family_orthogonal_quadratic", "family_rotated_quadratic",
    "family_linear", "family_coupled_quadratic", "random_system_with_root",
    "report_to_json", "report_to_csv",
]
