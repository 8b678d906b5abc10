"""Hidden-variable resultant solvers for polynomial systems expressed in
degree-graded bases (monomial, Chebyshev, Legendre, or custom recurrences).

The package builds Cayley and Sylvester resultant matrix polynomials
directly in the working basis, solves the resulting polynomial
eigenvalue problems through basis-aware linearizations, recovers full
roots from eigenvector structure, and reports conditioning for both the
eigenvalue and the root."""

from .basis import (ClenshawTrace, DegreeGradedBasis, DegreeOverflowError,
                    Domain, NormalizationWarning, basis_eval, basis_eval_all,
                    basis_eval_deriv_all, basis_from_json, basis_to_json,
                    clenshaw_eval, clenshaw_shifts, derivative_eval,
                    divided_difference)
from .cayley import (CayleyResultant, CayleyTensor, cayley_coeffs,
                     cayley_diagonal_value, cayley_function_eval,
                     cayley_resultant, cayley_resultant_to_json,
                     cayley_root_eigvectors, default_taus)
from .matpoly import (Eigenpair, EigenSolveError, MatrixPolynomial,
                      NotRegularError, StructureError, eig_condition, eigpair,
                      eigvecs_and_conditions, linearize, matpoly_deriv_eval,
                      matpoly_eval, matpoly_from_json, matpoly_to_json,
                      polyeig)
from .multipoly import (HiddenVariableForm, MultiPoly, NonSimpleRootError,
                        PolynomialSystem, eval_with_jacobian, hide_variable,
                        interpolate_on_nodes, jacobian, max_solution_bound,
                        mp_eval, mp_eval_grid, mp_interpolate, root_condition,
                        system_from_json, system_to_json)
from .rootfinder import (ConditionRecord, RecoveryError, RootRecord,
                         RootReport, SolveOptions, condition_at_root,
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
    "NormalizationWarning", "basis_eval", "basis_eval_all",
    "basis_eval_deriv_all", "clenshaw_eval",
    "clenshaw_shifts", "divided_difference", "derivative_eval",
    "basis_to_json", "basis_from_json",
    # multipoly
    "MultiPoly", "PolynomialSystem", "HiddenVariableForm",
    "NonSimpleRootError", "mp_eval", "mp_eval_grid", "mp_interpolate",
    "interpolate_on_nodes", "hide_variable", "eval_with_jacobian",
    "jacobian", "root_condition",
    "max_solution_bound", "system_to_json", "system_from_json",
    # matpoly
    "MatrixPolynomial", "Eigenpair", "EigenSolveError", "NotRegularError",
    "StructureError", "matpoly_eval", "matpoly_deriv_eval", "linearize",
    "polyeig", "eigpair", "eig_condition", "eigvecs_and_conditions",
    "matpoly_to_json", "matpoly_from_json",
    # cayley
    "CayleyTensor", "CayleyResultant", "default_taus", "cayley_function_eval",
    "cayley_coeffs", "cayley_resultant", "cayley_diagonal_value",
    "cayley_root_eigvectors", "cayley_resultant_to_json",
    # sylvester
    "SylvesterResultant", "sylvester_degrees", "sylvester_resultant",
    "sylvester_root_eigvectors",
    "sylvester_resultant_to_json",
    # rootfinder
    "SolveOptions", "RootRecord", "RootReport", "RecoveryError",
    "solve_system", "newton_polish", "recover_components",
    "condition_at_root", "ConditionRecord", "condition_sweep",
    "family_orthogonal_quadratic", "family_rotated_quadratic",
    "family_linear", "family_coupled_quadratic", "random_system_with_root",
    "report_to_json", "report_to_csv",
]
