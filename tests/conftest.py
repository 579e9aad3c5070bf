"""Shared fixtures: canonical meshes and deterministic RNG."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ritesolver.geometry import ElementArrays, SurfaceMesh

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Unit cube [0, 1]^3, one quad per face, normals into the interior.
CUBE_NODES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)
CUBE_FACES = [
    (0, 1, 2, 3),  # z = 0, normal +z
    (4, 7, 6, 5),  # z = 1, normal -z
    (0, 4, 5, 1),  # y = 0, normal +y
    (2, 6, 7, 3),  # y = 1, normal -y
    (0, 3, 7, 4),  # x = 0, normal +x
    (1, 5, 6, 2),  # x = 1, normal -x
]


def make_cube_mesh(emissivity=1.0, node_temperatures=None) -> SurfaceMesh:
    return SurfaceMesh(CUBE_NODES, CUBE_FACES, emissivity, node_temperatures)


# The unit cube with its (1, 1, 1) corner pushed in along the diagonal. Each
# face at that corner splits along its diagonal into a flat triangle and one
# slanted toward the moved vertex; the diagonals become re-entrant edges, so
# the walls on either side of them partly shadow each other.
DENT_CORNER = 0.66
DENTED_FACES = [
    (1, 2, 3, 0), (4, 5, 1, 0), (3, 7, 4, 0),   # floor and the walls at the origin
    (5, 2, 1), (5, 6, 2),                       # x = 1: flat, slanted
    (2, 7, 3), (6, 7, 2),                       # y = 1
    (7, 5, 4), (7, 6, 5),                       # z = 1
]


def make_dented_cube_mesh(emissivity=1.0) -> SurfaceMesh:
    nodes = CUBE_NODES.copy()
    nodes[6] = DENT_CORNER
    return SurfaceMesh(nodes, DENTED_FACES, emissivity, np.full(len(nodes), 500.0))


def unshare_nodes(mesh: SurfaceMesh, element_temperatures, emissivity=1.0) -> SurfaceMesh:
    """mesh with no node shared between elements and every element's nodes
    at its own temperature, so that each element emits uniformly; the mesh
    is then closed only geometrically."""
    sizes = [len(en) for en in mesh.element_nodes]
    nodes = mesh.nodes[np.concatenate(mesh.element_nodes)]
    ends = np.cumsum(sizes)
    elements = [tuple(range(end - size, end)) for end, size in zip(ends, sizes)]
    return SurfaceMesh(nodes, elements, np.full(len(elements), emissivity),
                       np.repeat(element_temperatures, sizes), check_closed=False)


def element_table(*elements):
    """The element table of the given elements and their ids in it, 0, 1,
    ..., the leading arguments of the assembly calls that read elements by
    id: element_rule(*element_table(e), order)."""
    return ElementArrays.from_elements(elements), np.arange(len(elements))


@pytest.fixture
def cube_mesh() -> SurfaceMesh:
    return make_cube_mesh()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
