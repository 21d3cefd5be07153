ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def commuting_multiply(algebra, x, y):
    """sum over i, j of x_i y_j c(i, j) u_(i+j): u x = x u, with no sigma anywhere.

    A broken CrossedProduct.multiply for the tests that patch it in.
    """
    out = [algebra.tower.zero] * algebra.n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[(i + j) % algebra.n] += xi * yj * algebra.cocycle[(i, j)]
    return tuple(out)
