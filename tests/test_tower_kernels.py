"""The compiled tower kernels against the structure-constant loop, and the construction checks.

Each tower compiles its multiplication table into one straight-line product and
each matrix it applies into one straight-line linear map. The interpreted loops
they replaced are kept here as the oracle.
"""

import ast
import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sdpcert.tower import (
    _KERNELS,
    NumberTower,
    _map_source,
    _Matrix,
    _product_source,
    builtin_s3,
    dump_tower,
    load_tower,
    radical_tower,
)

FIXTURE = Path(__file__).parent / "fixtures" / "s3_rescaled.tower"
TOWERS = {
    "s3": builtin_s3,
    "p5": lambda: radical_tower(5, 2, 2, -1, -1),
    # non-integral structure constants and automorphism matrices
    "rescaled": lambda: load_tower(FIXTURE.read_text()),
}


@pytest.fixture(scope="module", params=sorted(TOWERS))
def tower(request):
    return TOWERS[request.param]()


def loop_product(x, y):
    """x*y by the structure-constant loop: every nonzero a_i b_j times every entry of e_i e_j."""
    tower = x.tower
    dim = tower.dim
    cells = tower._table.sparse
    out = [0] * dim
    for i, a in enumerate(x.num):
        if a:
            for j, b in enumerate(y.num):
                if b:
                    for k, c in cells[i * dim + j]:
                        out[k] += a * b * c
    return tower.element([Fraction(c, x.den * y.den * tower._table.den) for c in out])


def loop_apply(matrix, x):
    """matrix @ x row by row, over the matrix's sparse entries."""
    num = x.num
    return x.tower.element(
        [Fraction(sum(c * num[j] for j, c in row), x.den * matrix.den) for row in matrix.sparse])


def operands(tower, seed):
    """Seeded dense elements with denominators, rational elements, and zero."""
    rng = random.Random(seed)

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    dense = [tower.element([fraction() for _ in range(tower.dim)]) for _ in range(6)]
    rational = [tower.scalar(fraction()) for _ in range(3)] + [tower.scalar(Fraction(-3, 4))]
    return dense + rational + [tower.zero]


def test_every_basis_product_agrees_with_the_loop(tower):
    basis = [tower.basis_element(i) for i in range(tower.dim)]
    for x in basis:
        for y in basis:
            assert x * y == loop_product(x, y), (x, y)


def test_dense_rational_and_zero_products_agree_with_the_loop(tower):
    xs = operands(tower, 1)
    for x in xs:
        for y in xs:
            assert x * y == loop_product(x, y), (x, y)


def test_a_rational_factor_scales_the_other_factor(tower):
    x = operands(tower, 2)[0]
    assert x.den > 1
    for q in (Fraction(3, 7), Fraction(-5, 2), Fraction(1, 3), 4, 0):
        expected = tower.element([c * q for c in x.coords])
        for product in (x * tower.scalar(q), tower.scalar(q) * x, x * q, q * x):
            assert product == expected == loop_product(x, tower.scalar(q))


def test_sigma_tau_and_flatten_agree_with_their_matrices(tower):
    for x in operands(tower, 3) + [tower.basis_element(i) for i in range(tower.dim)]:
        assert tower.sigma(x) == loop_apply(tower._sigma, x)
        assert tower.tau(x) == loop_apply(tower._tau, x)
        assert tower.flatten(x) == [loop_apply(p, x) for p in tower._projections]


def test_the_p7_kernels_compile_and_agree_with_the_loop():
    p7 = radical_tower(7, 2, 3, -1, 1)
    outputs = _product_source(p7._table, p7.dim).split("return (")[1].splitlines()[1:-1]
    assert len(outputs) == 42 and max(line.count("*b") for line in outputs) == 77
    rng = random.Random(7)
    xs = [p7.random_element(rng, span=3) for _ in range(3)] + [p7.scalar(Fraction(2, 3))]
    for x in xs:
        for y in xs:
            assert x * y == loop_product(x, y)
        assert p7.sigma(x) == loop_apply(p7._sigma, x)
        assert p7.tau(x) == loop_apply(p7._tau, x)


# the only node types a kernel source may hold
KERNEL_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return, ast.Tuple,
    ast.Name, ast.Load, ast.Store, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.UnaryOp,
    ast.USub, ast.Constant,
)


def test_kernel_sources_hold_only_int_literals_and_fixed_names():
    # labels that look like code, and a marker to search the sources for
    text = FIXTURE.read_text()
    for i, label in enumerate(("marker_one", "__import__('os')", "c/2", "x0", "b1", "q")):
        text = re.sub(rf"^label {i} \S+$", f"label {i} {label}", text, flags=re.M)
    loaded = load_tower(text)
    assert loaded.labels[:2] == ("marker_one", "__import__('os')")
    sources = [_product_source(loaded._table, loaded.dim)]
    sources += [_map_source(m) for m in (loaded._sigma, loaded._tau, *loaded._projections)]
    for source in sources:
        assert "marker" not in source and "import" not in source
        tree = ast.parse(source)
        (function,) = tree.body
        assert function.name in ("product", "linear_map")
        parameters = {arg.arg for arg in function.args.args}
        assert parameters in ({"a", "b"}, {"x"})
        for node in ast.walk(tree):
            assert isinstance(node, KERNEL_NODES), ast.dump(node)
            if isinstance(node, ast.Constant):
                assert type(node.value) is int
            if isinstance(node, ast.Name):
                assert node.id in parameters or re.fullmatch(r"[abx]\d+", node.id)


def test_a_long_sum_compiles_in_groups():
    # a dense table of dimension 60 has 3600 terms per output, past the compiler's nesting limit
    dim = 60
    table = _Matrix([[(r * 7 + c * 3) % 11 - 5 for c in range(dim)] for r in range(dim * dim)])
    source = _product_source(table, dim)
    namespace = {}
    exec(source, namespace)
    a = list(range(1, dim + 1))
    b = list(range(dim, 0, -1))
    expected = [sum(a[i] * b[j] * table.rows[i * dim + j][k] for i in range(dim) for j in range(dim))
                for k in range(2)]
    assert list(namespace["product"](a, b)[:2]) == expected


@pytest.mark.parametrize("make", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_tower_compiles_its_own_kernels(tower, make):
    assert not set(_KERNELS) & set(tower.__getstate__())
    other = make(tower)
    assert other._product[0] is not tower._product[0]
    x, y = operands(tower, 4)[:2]
    u, v = other.element(x.coords), other.element(y.coords)
    assert (u * v).coords == (x * y).coords
    assert other.sigma(u).coords == tower.sigma(x).coords
    assert other.tau(u).coords == tower.tau(x).coords
    assert [z.coords for z in other.flatten(u)] == [z.coords for z in tower.flatten(x)]
    # elements of the copy never mix with the original's
    assert (u * v).tower is other and u != x
    with pytest.raises(ValueError):
        u * x


def s3_parameters():
    s3 = builtin_s3()
    return dict(labels=s3.labels, table=[[list(cell) for cell in row] for row in s3.table],
                sigma_matrix=[list(row) for row in s3.sigma_matrix],
                tau_matrix=[list(row) for row in s3.tau_matrix], r=2,
                b_coords=s3.b.coords, lam_coords=s3.lam.coords)


def _scale_cell(i, j, factor):
    def corrupt(parameters):
        cell = parameters["table"][i][j]
        cell[:] = [c * factor for c in cell]
    return corrupt


def _scale_column(name, column, factor):
    def corrupt(parameters):
        for row in parameters[name]:
            row[column] *= factor
    return corrupt


def _both(*corruptions):
    def corrupt(parameters):
        for corruption in corruptions:
            corruption(parameters)
    return corrupt


# basis 1, c, c2, z, zc, zc2 at 0 ... 5
@pytest.mark.parametrize("corrupt, message", [
    (_scale_cell(0, 1, 2), "basis element 0 is not the multiplicative identity"),
    (_scale_cell(1, 2, 3), "multiplication table is not commutative"),
    (_scale_cell(4, 3, -1), "multiplication table is not commutative"),
    # c * c2 = 4: (c c) c2 = c2 c2 = 2c, but c (c c2) = 4c
    (_both(_scale_cell(1, 2, 2), _scale_cell(2, 1, 2)), "multiplication table is not associative"),
    (_both(_scale_cell(4, 5, 2**80 + 1), _scale_cell(5, 4, 2**80 + 1)),
     "multiplication table is not associative"),
    (_scale_column("sigma_matrix", 1, 2), "sigma is not a ring automorphism"),
    (_scale_column("sigma_matrix", 0, 2), "sigma is not a ring automorphism"),
    (_scale_column("tau_matrix", 3, Fraction(1, 2)), "tau is not a ring automorphism"),
    (_scale_column("tau_matrix", 0, -1), "tau is not a ring automorphism"),
], ids=["identity", "commutativity", "commutativity-sign",
        "associativity", "associativity-large", "sigma", "sigma-of-1", "tau", "tau-of-1"])
def test_a_corrupted_table_is_refused_by_its_check(corrupt, message):
    parameters = s3_parameters()
    corrupt(parameters)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        NumberTower(**parameters)


def test_the_uncorrupted_parameters_build():
    assert dump_tower(NumberTower(**s3_parameters())) == dump_tower(builtin_s3())


@pytest.mark.parametrize("b, lam, name", [(0, 1, "b"), (-1, 0, "lambda"), (0, 0, "b")])
def test_a_zero_b_or_lambda_is_refused(b, lam, name):
    with pytest.raises(RuntimeError, match=f"^{name} must be nonzero$"):
        radical_tower(3, 2, 2, b, lam)
    dropped = "elem b " if name == "b" else "elem lambda "
    text = "".join(line for line in dump_tower(builtin_s3()).splitlines(keepends=True)
                   if not line.startswith(dropped))
    with pytest.raises(RuntimeError, match=f"^{name} must be nonzero$"):
        load_tower(text)

