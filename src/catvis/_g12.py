"""``"%.12g" % x`` text of float64 arrays, made in NumPy for every table the
CLI writes; the CLI imports it only in its table writer, so
``import catvis.cli`` does not compile it."""

import functools

import numpy as np

# 40 byte cells, five 8-byte words, hold every character a "%.12g" text can
# show: the sign, the "0.000" of the fixed form below 1, the 12 digits each
# followed by a point, and "e+XXX"; a text's other cells are NUL.
_ROW = b"\0\0-0.000" + b"d." * 12 + b"e+XXX\0\0\0"


@functools.cache
def _tables():
    """Tables of :func:`g12_chars`.  By ``e + 298`` for exponents ``e`` from
    -298 to 301: ``float(f"1e{11 - e}")`` (inf at -298), the ``e+XX`` word and
    ``2 * (12 * form + 11)``, the form being 0 to 15 for the fixed form of
    ``e`` from -4 to 11, else 16.  By ``v`` below 10000: the trailing zeros
    of ``"%04d" % v`` and its ``d.d.d.d.`` word.  By ``2 * (12 * form +
    digits - 1) + negative``: the mask of the cells shown by a text of that
    form, count of significant digits and sign."""
    exponents = np.arange(-298, 302)
    scale = np.array([float(f"1e{11 - e}") for e in exponents.tolist()])
    suffix = np.array([b"e%+03d" % e for e in exponents.tolist()], "S8")
    fixed = (exponents >= -4) & (exponents < 12)
    forms = 2 * (12 * np.where(fixed, exponents + 4, 16) + 11)
    # small integer types: the tables are built in every process that writes
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1])
    digits %= 10
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.int8).sum(axis=1,
                                                                       dtype=np.int8)
    pairs = np.full((10000, 8), ord("."), np.uint8)
    pairs[:, ::2] = digits + ord("0")
    form, n_digits, j = np.ogrid[:17, 1:13, :12]
    e = np.where(form < 16, form - 4, 0)  # the exponent form lays out as 1 to 9.99
    shows = np.zeros((17, 12, 2, len(_ROW)), bool)
    shows[..., 3:8] = ((j[..., :5] < 1 - e) & (e < 0))[:, :, None]  # "0.000"
    shows[..., 8:32:2] = ((j < n_digits) | (j <= e))[:, :, None]
    shows[..., 9:32:2] = ((j == e) & (n_digits > e + 1))[:, :, None]
    shows[16, ..., 32:] = True
    shows[:, :, 1, 2] = True  # "-"
    masks = (shows * np.uint8(255)).view(np.uint64).reshape(-1, len(_ROW) // 8)
    return (scale, suffix.view(np.uint64), forms, zeros,
            pairs.view(np.uint64).ravel(), masks)


def _mantissas(x):
    """``(e + 298, n, certified)`` of a 1-D float64 array: with ``e`` the
    decimal exponent, ``y = |x| * 10**(11 - e)`` is in ``[1e11, 1e12)`` and
    ``n = rint(y)``.  ``y`` is off by under 2.5e-4 (half an ulp of the power
    of ten, half an ulp of the product below 2**40), so ``n`` holds the 12
    correctly rounded digits wherever ``y`` is more than 1e-3 from a tie and
    1 inside the range.  Other values, and zero, non-finite and ``|x|``
    outside ``[1e-297, 1e300]`` (where the power of ten would overflow), are
    not certified, and their ``n`` is 1e11."""
    scale = _tables()[0]
    a = np.abs(x)
    certified = (a >= 1e-297) & (a <= 1e300)
    a[~certified] = 1.0  # so that no floating-point warning can arise below
    e = np.floor(np.log10(a)).astype(np.intp) + 298
    y = a * scale.take(e)
    e += (y >= 1e12).view(np.int8) - (y < 1e11).view(np.int8)
    y = a * scale.take(e)
    n = np.rint(y)
    certified &= (np.abs(y - n) < 0.499) & (y >= 1e11 + 1) & (y < 1e12 - 1)
    n[~certified] = 1e11
    return e, n, certified


# below this many values one ``%`` each is faster than the kernel's fixed cost
# (both about 50 us at 128 values; 43 against 8 us at 9)
_SMALL = 128

# values laid out at a time: the kernel's working set is about 200 bytes a
# value, five times the text's
_SLICE = 4096


def _percent_chars(values):
    """The ``"%.12g" %`` texts of ``values`` as rows of ``len(_ROW)`` bytes."""
    texts = np.array(["%.12g" % v for v in values.tolist()], f"S{len(_ROW)}")
    return texts.view(np.uint8).reshape(-1, len(_ROW))


def g12_chars(x):
    """Text of a 1-D float64 array as an ``(N, 40)`` uint8 matrix whose row
    ``i``, NULs dropped, is the ``"%.12g" % x[i]`` bytes (at most 19, so the
    last column is NUL): laid out from :func:`_mantissas` where it certifies
    the digits, else made by ``%``, as are all of fewer than ``_SMALL``
    values.  Longer arrays are laid out ``_SLICE`` values at a time."""
    if x.size < _SMALL:
        return _percent_chars(x)
    if x.size > _SLICE:
        chars = np.empty((x.size, len(_ROW)), np.uint8)
        for i in range(0, x.size, _SLICE):
            chars[i:i + _SLICE] = g12_chars(x[i:i + _SLICE])
        return chars
    _, suffix, forms, zeros, pairs, masks = _tables()
    e, n, certified = _mantissas(x)
    # three groups of four digits, split exactly in floats below 2**53
    hi = np.floor(n / 1e8)
    rest = n - hi * 1e8
    mid = np.floor(rest / 1e4)
    groups = np.stack([hi, mid, rest - mid * 1e4], axis=1).astype(np.intp)
    z = zeros.take(groups)
    trailing = z[:, 2] + (z[:, 2] == 4) * (z[:, 1] + (z[:, 1] == 4) * z[:, 0])
    words = np.empty((x.size, len(_ROW) // 8), np.uint64)
    words[:, 0] = np.frombuffer(_ROW[:8], np.uint64)
    words[:, 1:4] = pairs.take(groups)
    words[:, 4] = suffix.take(e)
    words &= masks.take(forms.take(e) - 2 * trailing + (x < 0), axis=0)
    chars = words.view(np.uint8)
    slow = np.flatnonzero(~certified)
    chars[slow] = _percent_chars(x[slow])
    return chars
