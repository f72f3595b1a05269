"""Kernel parsing: the restricted language and its rejections."""

import numpy as np
import pytest

from repro import op2
from repro.op2.kernel import KernelParseError


def test_kernel_params_extracted():
    def k(a, b, c):
        a[0] = b[0] + c[0]

    kern = op2.Kernel(k)
    assert kern.params == ["a", "b", "c"]
    assert kern.name == "k"


def test_kernel_custom_name():
    def k(a):
        a[0] = 1.0

    assert op2.Kernel(k, name="flux").name == "flux"


def test_kernel_bad_name():
    def k(a):
        a[0] = 1.0

    with pytest.raises(ValueError, match="identifier"):
        op2.Kernel(k, name="flux calc")


def test_kernel_rejects_lambda():
    with pytest.raises((KernelParseError, ValueError)):
        op2.Kernel(lambda a: None).params  # noqa: B023


def test_kernel_rejects_if_statement():
    def k(a):
        if a[0] > 0:
            a[0] = 1.0

    with pytest.raises(KernelParseError, match="conditional expression"):
        op2.Kernel(k).params


def test_kernel_rejects_while():
    def k(a):
        while a[0] > 0:
            a[0] -= 1.0

    with pytest.raises(KernelParseError, match="while"):
        op2.Kernel(k).params


def test_kernel_rejects_unknown_call():
    def k(a):
        a[0] = print(a[0])

    with pytest.raises(KernelParseError, match="whitelist"):
        op2.Kernel(k).params


def test_kernel_rejects_attribute_access():
    def k(a):
        a[0] = a.real

    with pytest.raises(KernelParseError, match="attribute"):
        op2.Kernel(k).params


def test_kernel_rejects_nonliteral_range():
    def k(a):
        for i in range(int(a[0])):
            a[0] += 1.0

    with pytest.raises(KernelParseError, match="range"):
        op2.Kernel(k).params


def test_kernel_rejects_value_return():
    def k(a):
        return a[0]

    with pytest.raises(KernelParseError, match="return"):
        op2.Kernel(k).params


def test_kernel_allows_docstring_and_bare_return():
    def k(a):
        """Set to one."""
        a[0] = 1.0
        return

    assert op2.Kernel(k).params == ["a"]


def test_kernel_rejects_keyword_params():
    def k(a, b=1):
        a[0] = 1.0

    with pytest.raises(KernelParseError, match="positional"):
        op2.Kernel(k).params


def test_kernel_rejects_comprehension():
    def k(a):
        a[0] = [x for x in (1, 2)][0]

    with pytest.raises(KernelParseError):
        op2.Kernel(k).params


def test_kernel_noncallable():
    with pytest.raises(TypeError):
        op2.Kernel(42)


def test_scalar_fn_provides_math():
    def k(a, b):
        b[0] = sqrt(a[0])  # noqa: F821 - kernel language

    kern = op2.Kernel(k)
    import numpy as np

    a = np.array([9.0])
    b = np.array([0.0])
    kern.scalar_fn(a, b)
    assert b[0] == 3.0


class TestKernelFromSource:
    def test_source_string_kernel_runs(self):
        import numpy as np

        src = """
def doubler(xv, yv):
    yv[0] = 2.0 * xv[0]
"""
        kern = op2.Kernel(src)
        assert kern.name == "doubler"
        nodes = op2.Set(3, "nodes")
        x = op2.Dat(nodes, 1, data=np.arange(3.0))
        y = op2.Dat(nodes, 1)
        for backend in ("sequential", "vectorized"):
            op2.par_loop(kern, nodes, x.arg(op2.READ), y.arg(op2.WRITE),
                         backend=backend)
            np.testing.assert_allclose(y.data_ro[:, 0], [0.0, 2.0, 4.0])

    def test_generated_dim_specific_kernel(self):
        """The use case: kernels generated per runtime dimension."""
        import numpy as np

        dim = 5
        body = "\n".join(f"    b[{i}] = a[{i}] + 1.0" for i in range(dim))
        kern = op2.Kernel(f"def inc{dim}(a, b):\n{body}\n")
        nodes = op2.Set(4, "nodes")
        a = op2.Dat(nodes, dim, data=np.zeros((4, dim)))
        b = op2.Dat(nodes, dim)
        op2.par_loop(kern, nodes, a.arg(op2.READ), b.arg(op2.WRITE))
        np.testing.assert_allclose(b.data_ro, 1.0)

    def test_bad_source_rejected(self):
        with pytest.raises(KernelParseError, match="parse"):
            op2.Kernel("def broken(:\n pass")
        with pytest.raises(KernelParseError, match="exactly one"):
            op2.Kernel("x = 1")

    def test_validation_still_applies(self):
        with pytest.raises(KernelParseError, match="while"):
            op2.Kernel("def k(a):\n    while a[0] > 0:\n        a[0] = 0.0\n").params


# -- min/max: numpy's rule on every backend ----------------------------------

def minmax(x, y, hi, lo):
    hi[0] = max(x[0], y[0])  # noqa: F821 - kernel language
    lo[0] = min(x[0], y[0])  # noqa: F821


def minmax_reduce(x, top, bottom):
    top[0] = max(top[0], x[0])  # noqa: F821
    bottom[0] = min(bottom[0], x[0])  # noqa: F821


MINMAX_BACKENDS = ["sequential", "vectorized", "sanitizer", "native",
                   "native-atomics"]


def _same_bits(got, want):
    import numpy as np

    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    ok = ~np.isnan(want)
    assert np.array_equal(got[ok], want[ok])


@pytest.mark.filterwarnings(
    "ignore:.*falling back to the vectorized backend:RuntimeWarning")
@pytest.mark.parametrize("backend", MINMAX_BACKENDS)
def test_min_max_follow_numpy_on_nan_and_signed_zero(backend):
    """``max(a, b)`` is ``np.maximum``: a NaN operand wins in either
    position, and of ``-0.``/``0.`` the second operand. Python's
    ``max`` and libm's ``fmax`` answer otherwise."""
    import numpy as np

    nan = np.nan
    xs = np.array([nan, 1.0, -0.0, 0.0, 2.0, 1.0, nan, -1.0])
    ys = np.array([1.0, nan, 0.0, -0.0, 1.0, 2.0, nan, -1.0])
    cells = op2.Set(xs.size, "cells")
    x = op2.Dat(cells, 1, xs[:, None], name="x")
    y = op2.Dat(cells, 1, ys[:, None], name="y")
    hi, lo = op2.Dat(cells, 1, name="hi"), op2.Dat(cells, 1, name="lo")
    op2.par_loop(op2.Kernel(minmax), cells, x.arg(op2.READ),
                 y.arg(op2.READ), hi.arg(op2.WRITE), lo.arg(op2.WRITE),
                 backend=backend)
    _same_bits(hi.data_ro[:, 0], np.maximum(xs, ys))
    _same_bits(lo.data_ro[:, 0], np.minimum(xs, ys))


@pytest.mark.filterwarnings(
    "ignore:.*falling back to the vectorized backend:RuntimeWarning")
@pytest.mark.parametrize("backend", MINMAX_BACKENDS)
def test_min_max_reductions_propagate_nan(backend):
    import numpy as np

    cells = op2.Set(6, "cells")
    for values, want in (([3.0, 1.0, 7.0, 2.0, 5.0, 4.0], (7.0, 1.0)),
                         ([3.0, 1.0, np.nan, 2.0, 5.0, 4.0], (np.nan,) * 2)):
        x = op2.Dat(cells, 1, np.array(values)[:, None], name="x")
        top = op2.Global(1, -np.inf, "top")
        bottom = op2.Global(1, np.inf, "bottom")
        op2.par_loop(op2.Kernel(minmax_reduce), cells, x.arg(op2.READ),
                     top.arg(op2.MAX), bottom.arg(op2.MIN),
                     backend=backend)
        _same_bits(np.array([top.value, bottom.value]), np.array(want))


#: NaN, -NaN, signed zeros, infinities, subnormals and ordinary values
MINMAX_GRID = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
               -5e-324, 1e-310, -1e-310, 1.0, -1.5, 3.0]


@pytest.mark.filterwarnings(
    "ignore:.*falling back to the vectorized backend:RuntimeWarning")
@pytest.mark.parametrize("backend", MINMAX_BACKENDS + ["native-uncached"])
def test_min_max_are_bitwise_numpy_over_the_special_value_grid(backend):
    """Every pair of the grid, both orders: the bits of ``max``/``min``
    are those of ``np.maximum``/``np.minimum`` — NaN sign included."""
    grid = np.array(MINMAX_GRID)
    xs, ys = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    cells = op2.Set(xs.size, "cells")
    x = op2.Dat(cells, 1, xs[:, None], name="x")
    y = op2.Dat(cells, 1, ys[:, None], name="y")
    hi, lo = op2.Dat(cells, 1, name="hi"), op2.Dat(cells, 1, name="lo")
    op2.par_loop(op2.Kernel(minmax), cells, x.arg(op2.READ),
                 y.arg(op2.READ), hi.arg(op2.WRITE), lo.arg(op2.WRITE),
                 backend=backend)
    bits = np.int64
    assert np.array_equal(hi.data_ro[:, 0].view(bits),
                          np.maximum(xs, ys).view(bits))
    assert np.array_equal(lo.data_ro[:, 0].view(bits),
                          np.minimum(xs, ys).view(bits))
