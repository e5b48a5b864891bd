"""Canonical ideal triangulations used by the tests."""

from qtrace.surface import Edge, IdealTriangulation


def once_punctured_torus() -> IdealTriangulation:
    """Two triangles glued along three edges d, r, b (the diagonal and
    the two identified sides of the square model)."""
    return IdealTriangulation(
        n_triangles=2,
        edges=(
            Edge("d", ((0, 0), (1, 2))),
            Edge("r", ((0, 1), (1, 0))),
            Edge("b", ((0, 2), (1, 1))),
        ),
    )


def glued_square() -> IdealTriangulation:
    """Two triangles glued along one edge, four boundary edges."""
    return IdealTriangulation(
        n_triangles=2,
        edges=(
            Edge("d", ((0, 0), (1, 2))),
            Edge("p", ((0, 1),)),
            Edge("q", ((0, 2),)),
            Edge("u", ((1, 0),)),
            Edge("v", ((1, 1),)),
        ),
    )


def single_triangle() -> IdealTriangulation:
    return IdealTriangulation(
        n_triangles=1,
        edges=(Edge("x", ((0, 0),)), Edge("y", ((0, 1),)), Edge("z", ((0, 2),))),
    )
