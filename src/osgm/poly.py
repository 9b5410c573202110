"""Linear forms in the weight variables, for printing.

Every matrix entry osgm builds (an Aomoto boundary, a basic endomorphism,
a pencil or pair sum, an induced map) is a form c_1 y_1 + ... + c_n y_n
with integer coefficients and no constant term: the differential
multiplies by the weighted one-form sum y_j e_j, and every map built from
it is linear in the weights too.  The weight of the projective extra
hyperplane never appears as a variable: y_{n+1} = -(y_1 + ... + y_n),
a rule stated once symbolically, in `y_coeffs`, and once at a weight
vector, in `aomoto.Weights.point`.

The library does not compute with forms.  It keeps a matrix of them as
sparse int rows keyed (col, j), the coefficient of y_j at column col (see
`osgm.linalg`), and the command line and the demos print from the layout
`linalg.by_column` groups them in, with `format_form`; `dense_forms` is
the list-of-lists view of `LinearForm`s behind `ChainEndomorphism.mats`
and `AomotoComplex.boundary`.  A form stores {j: c} for its nonzero
coefficients only, so equality is dict equality.
"""

import re
import sys
from fractions import Fraction

from .linalg import by_column

_INT = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # the decimal text int() accepts


def parse_rational(s):
    """Parse "p/q" or "p" into a Fraction; reject everything else, naming
    Python's limit on the digits of an int and echoing 20 characters."""
    s = s.strip()
    num, _, den = s.partition("/")
    shown = repr(s) if len(s) <= 20 else "%r... (%d characters)" % (s[:20], len(s))
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:
        if _INT.fullmatch(num) and _INT.fullmatch(den or "1"):
            raise ValueError("rational literal %s has more than %d digits, Python's limit "
                             "for int conversion" % (shown, sys.get_int_max_str_digits()))
        raise ValueError("not a rational literal: %s" % shown)
    if q == 0:
        raise ValueError("zero denominator in rational literal: %s" % shown)
    return Fraction(p, q)


def y_coeffs(S, n):
    """The coefficients {k: c} of y_S, the sum of y_j over the subset S of
    [n+1], in y_1..y_n, zeros dropped: y_{n+1} is -(y_1 + ... + y_n), so
    with n+1 in S every y_k outside S takes -1 and every other cancels."""
    if n + 1 not in S:
        return dict.fromkeys(S, 1)
    return {k: -1 for k in range(1, n + 1) if k not in S}


def format_form(terms):
    """The form with the nonzero coefficients c of y_j given as (j, c)
    pairs as text, terms by ascending j: "0", "y1", "-2*y3 + y4"."""
    if not terms:
        return "0"
    parts = []
    for j, c in sorted(terms):
        body = "y%d" % j if abs(c) == 1 else "%s*y%d" % (abs(c), j)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


class LinearForm:
    __slots__ = ("nvars", "terms")

    @classmethod
    def _of(cls, nvars, terms):
        # trusted constructor: terms all nonzero, an int whenever integral
        f = cls.__new__(cls)
        f.nvars = nvars
        f.terms = terms
        return f

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __str__(self):
        return format_form(self.terms.items())

    __repr__ = __str__


def dense_forms(rows, ncols, nvars):
    """The list-of-lists view of sparse rows keyed (col, j): entry (i, col)
    is the form of row i's terms at col in the layout of `by_column`, and
    every entry off the rows' support is one shared zero form."""
    zero = LinearForm.zero(nvars)
    out = []
    for row in by_column(rows):
        view = [zero] * ncols
        for col, terms in row:
            view[col] = LinearForm._of(nvars, dict(terms))
        out.append(view)
    return out
