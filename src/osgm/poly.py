"""Linear forms in the weight variables, for printing.

Every matrix entry osgm builds (an Aomoto boundary, a basic endomorphism,
a pencil or pair sum, an induced map) is a form c_1 y_1 + ... + c_n y_n
with integer coefficients and no constant term: the differential
multiplies by the weighted one-form sum y_j e_j, and every map built from
it is linear in the weights too.  The weight of the projective extra
hyperplane never appears as a variable: y_{n+1} is eliminated everywhere
as -(y_1 + ... + y_n), see LinearForm.subset_sum.

The library does not compute with forms.  It keeps a matrix of them as
sparse int rows keyed (col, j), the coefficient of y_j at column col (see
`osgm.linalg`), and the command line and the demos print from those rows
with `format_form`; `dense_forms` gives the list-of-lists of `LinearForm`s
the tests and the benchmark's tracer read.  A form stores {j: c}
for its nonzero coefficients only, so equality is dict equality.
"""

from fractions import Fraction


def parse_rational(s):
    """Parse "p/q" or "p" into a Fraction; reject everything else."""
    s = s.strip()
    try:
        num, _, den = s.partition("/")
        p = int(num)
        q = int(den) if den else 1
    except ValueError:
        raise ValueError("not a rational literal: %r" % (s,))
    if q == 0:
        raise ValueError("zero denominator in rational literal: %r" % (s,))
    return Fraction(p, q)


def format_form(terms):
    """The form with nonzero coefficients {j: c} as text, terms by
    ascending j: "0", "y1", "-2*y3 + y4"."""
    if not terms:
        return "0"
    parts = []
    for j, c in sorted(terms.items()):
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

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    @classmethod
    def subset_sum(cls, S, nvars):
        """y_S = sum of y_j over j in S, where j = nvars+1 means the infinity
        weight -(y_1 + ... + y_nvars)."""
        coeffs = [0] * (nvars + 1)
        for j in S:
            if j == nvars + 1:
                for k in range(1, nvars + 1):
                    coeffs[k] -= 1
            else:
                coeffs[j] += 1
        return cls._of(nvars, {j: c for j, c in enumerate(coeffs) if c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    # ---- presentation ---------------------------------------------------

    def __str__(self):
        return format_form(self.terms)

    __repr__ = __str__


def dense_forms(rows, ncols, nvars):
    """The list-of-lists view of sparse rows keyed (col, j): entry (i, col)
    is the form whose y_j coefficient is row i's value at (col, j), and
    every entry off the rows' support is one shared zero form."""
    zero = LinearForm.zero(nvars)
    out = []
    for row in rows:
        view = [zero] * ncols
        for (col, j), c in row.items():
            f = view[col]
            if f is zero:
                f = view[col] = LinearForm._of(nvars, {})
            f.terms[j] = c
        out.append(view)
    return out
