"""Reference arithmetic shared by the tests, kept out of the package they check."""


def central_diff(fn, x, h):
    """3-point central first derivative of ``fn`` at ``x`` with step ``h``.

    Elementwise over arrays ``x`` (and ``h``) when ``fn`` accepts arrays.
    """
    return (fn(x + h) - fn(x - h)) / (2.0 * h)
