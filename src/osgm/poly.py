"""Linear forms in the weight variables, for printing and serializing.

Every matrix entry osgm builds (an Aomoto boundary, a basic endomorphism,
a pencil or pair sum, an induced map) is a form c_1 y_1 + ... + c_n y_n
with integer coefficients and no constant term: the differential
multiplies by the weighted one-form sum y_j e_j, and every map built from
it is linear in the weights too.  The weight of the projective extra
hyperplane never appears as a variable: y_{n+1} is eliminated everywhere
as -(y_1 + ... + y_n), see LinearForm.subset_sum.

The library does not compute with forms.  It keeps a matrix of them as
sparse int rows keyed (col, j), the coefficient of y_j at column col (see
`osgm.linalg`), and `dense_forms` turns such rows into the list-of-lists of
`LinearForm`s that the command line prints.  A form stores {j: c} for its
nonzero coefficients only, so equality is dict equality and `bool(f)`
tests nonzero; printing and serialization list the terms by ascending
variable index, each serialized with its exponent vector.
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


def format_rational(q):
    # Fraction.__str__ already gives "p/q" in lowest terms / "p" for integers
    return str(q)


def _exact(c):
    """An int or Fraction as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


class LinearForm:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {j: _exact(Fraction(c)) for j, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, nvars, terms):
        # trusted constructor: terms already exact (see _exact), all nonzero
        f = cls.__new__(cls)
        f.nvars = nvars
        f.terms = terms
        return f

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    @classmethod
    def variable(cls, j, nvars):
        """The variable y_j, 1-based, 1 <= j <= nvars."""
        if not 1 <= j <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (j, nvars))
        return cls._of(nvars, {j: 1})

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
        if not self.terms:
            return "0"
        parts = []
        for j, c in sorted(self.terms.items()):
            body = "y%d" % j if abs(c) == 1 else "%s*y%d" % (format_rational(abs(c)), j)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self):
        out = []
        for j, c in sorted(self.terms.items()):
            expo = [0] * self.nvars
            expo[j - 1] = 1
            out.append({"coefficient": format_rational(c), "exponents": expo})
        return out


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
