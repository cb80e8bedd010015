"""The public names, pinned: a name added, dropped or renamed fails here."""

import spherejoin
from spherejoin import recognition


def test_package_names():
    assert spherejoin.__all__ == [
        "BettiData",
        "BigradedBettiTable",
        "CRITERIA",
        "CapExceededError",
        "ConsolidatedReport",
        "Field",
        "IndexOutOfRangeError",
        "InfeasibleVertexError",
        "InternalInvariantError",
        "InvalidDimensionError",
        "InvalidParameterError",
        "NotAFaceError",
        "NotMaximalError",
        "NotSimpleError",
        "PolytopeHRep",
        "PolytopeVRep",
        "PreconditionViolatedError",
        "PseudomanifoldReport",
        "RecognitionReport",
        "RedundantInequalityError",
        "SimplicialComplex",
        "SphereJoinDecomposition",
        "SphereJoinError",
        "UncoveredVertexError",
        "VertexFacetIncidence",
        "bigraded_betti",
        "boundary_of_simplex",
        "build_complex",
        "check_double",
        "check_non_face_partition",
        "check_rank_lower_bounds",
        "check_simple",
        "check_simplex_link",
        "check_two_face",
        "cycle_length",
        "decompose_by_non_faces",
        "dihedral_nonobtuse_check",
        "double",
        "dual_boundary_complex",
        "gen_polygon",
        "gen_product_of_simplices",
        "gen_simplex",
        "gen_truncated",
        "gluing_euler_characteristic",
        "hochster_graded_ranks",
        "hochster_rank_criterion",
        "hochster_rank_via_double",
        "hochster_total_rank",
        "incidence_from_hv",
        "is_pseudomanifold",
        "product_polytope",
        "recognize_all",
        "recognize_recursive",
        "reconstruct_from_non_faces",
        "reduced_betti",
        "simplex_boundary_on",
        "truncate_all_vertices",
    ]
    assert all(hasattr(spherejoin, name) for name in spherejoin.__all__)


def test_recognition_names():
    assert recognition.__all__ == [
        "SphereJoinDecomposition",
        "ConsolidatedReport",
        "decompose_by_non_faces",
        "check_non_face_partition",
        "check_simplex_link",
        "check_two_face",
        "recognize_recursive",
        "check_double",
        "recognize_all",
        "double",
    ]
    assert all(hasattr(recognition, name) for name in recognition.__all__)
