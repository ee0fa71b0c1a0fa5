"""Each rule on a caller's input is decided once, in the library, and
raises ``emg.InputError`` with a message naming the bad value."""

from fractions import Fraction

import pytest

from octacolor.cone import enumerate_lattice_points
from octacolor.emg import EmgError, InputError, InvariantError
from octacolor.families import ConstructionError, load_bundled, spiral_instance
from octacolor.geometry import surface_frame
from octacolor.labeling import assign_labels
from octacolor.pipeline import Instance


@pytest.fixture(scope="module")
def hexagon_pair():
    return Instance(load_bundled("hexagon-pair"))


def test_input_error_types():
    assert issubclass(InputError, ValueError)
    assert issubclass(EmgError, InputError) and issubclass(ConstructionError, InputError)
    assert not issubclass(InvariantError, InputError)


def test_spiral_parameter_below_three():
    with pytest.raises(InputError, match=r"^spiral parameter must be at least 3, got k=2$"):
        spiral_instance(2)


def test_seed_flag_not_incident(hexagon_pair):
    with pytest.raises(InputError, match=r"^seed flag \(0, 99\) is not an incident \(vertex, edge\) pair$"):
        assign_labels(hexagon_pair.g, hexagon_pair.boundaries, seed_flag=(0, 99))


def test_negative_enumeration_bound(hexagon_pair):
    with pytest.raises(InputError, match=r"^bound must be >= 0, got -1$"):
        enumerate_lattice_points(hexagon_pair.lattice, -1)


def test_negative_enumeration_budget(hexagon_pair):
    # an input error, not an exceeded budget: no candidate was counted
    with pytest.raises(InputError, match=r"^budget must be >= 0, got -1$"):
        enumerate_lattice_points(hexagon_pair.lattice, 2, budget=-1)


def test_base_flag_off_a_cone_vertex():
    inst = spiral_instance(3)
    quad = inst.frame.regular_vertices[0]
    with pytest.raises(InputError, match=rf"^base flag vertex {quad} is not a cone vertex$"):
        surface_frame(inst.boundaries, base_flag=(quad, 0))


def test_base_flag_polygon_off_its_cone_vertex():
    inst = spiral_instance(3)
    cv = inst.frame.cone_vertices[0]
    far = next(b.vertex_id for b in inst.boundaries if cv not in b.corner_faces)
    with pytest.raises(InputError, match=rf"^polygon {far} does not touch cone vertex {cv}$"):
        surface_frame(inst.boundaries, base_flag=(cv, far))


@pytest.mark.parametrize("use", [
    lambda inst, v: inst.system.solves(v),
    lambda inst, v: inst.develop(v),
    lambda inst, v: inst.form.value(v),
], ids=["solves", "develop", "value"])
@pytest.mark.parametrize("n", [5, 7], ids=["short", "long"])
def test_length_vector_needs_e_b_entries(hexagon_pair, use, n):
    # E_b = 6: a longer vector was once truncated, a shorter one an IndexError
    with pytest.raises(InputError, match=rf"^a length vector needs 6 entries, got {n}$"):
        use(hexagon_pair, [1] * n)


# each vector breaks its rule and every later one on hexagon-pair
OFF_DOMAIN = pytest.mark.parametrize("vector, message", [
    ([Fraction(1, 2)] * 5, "a length vector needs 6 entries, got 5"),
    ([0, 1, 1, 1, 1, Fraction(1, 2)], r"a length vector needs integer entries, got Fraction\(1, 2\)"),
    ([1, 1, 1, 1, 0, 2], "a length vector needs every entry >= 1, got 0"),
    ([1, 1, 1, 1, 1, 2], "the length vector does not solve the closure system"),
], ids=["length", "integers", "positive", "solves"])


@OFF_DOMAIN
def test_develop_decides_the_point_domain_in_order(vector, message):
    # each vector breaks its rule and every later one; the first decides,
    # and none of the rules derives the kernel, the lattice or the cone
    inst = Instance(load_bundled("hexagon-pair"))
    with pytest.raises(InputError, match=f"^{message}$"):
        inst.develop(vector)
    assert not {"kernel", "lattice", "cone"} & vars(inst).keys()


@OFF_DOMAIN
def test_coefficients_and_realize_decide_the_point_domain_as_develop_does(vector, message):
    # the same rules, order and messages, with the lattice deciding closure
    inst = Instance(load_bundled("hexagon-pair"))
    for use in (inst.coefficients, inst.realize):
        with pytest.raises(InputError, match=f"^{message}$"):
            use(vector)
