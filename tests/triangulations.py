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


def fan_edges(order, prefix=""):
    """The edges of a fan whose chain runs through the triangles in
    order: side 1 of each is glued to side 0 of the next (edge i<k>),
    e0 and e1 are the two ends and s<k> is the side edge (side 2) of the
    k-th triangle of the chain.  Every id starts with prefix."""
    m = len(order)
    edges = [Edge(f"{prefix}e0", ((order[0], 0),)), Edge(f"{prefix}e1", ((order[-1], 1),))]
    edges += [Edge(f"{prefix}i{k}", ((order[k - 1], 1), (order[k], 0))) for k in range(1, m)]
    edges += [Edge(f"{prefix}s{k}", ((order[k], 2),)) for k in range(m)]
    return tuple(edges)
