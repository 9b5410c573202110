"""Linear forms in the weight variables over exact rationals.

Every matrix entry osgm builds (an Aomoto boundary, a basic endomorphism,
a pencil or pair sum, an induced map) is a form c_1 y_1 + ... + c_n y_n
with rational coefficients and no constant term: the differential
multiplies by the weighted one-form sum y_j e_j, and every map built from
it is linear in the weights too.  The weight of the projective extra
hyperplane never appears as a variable: y_{n+1} is eliminated everywhere
as -(y_1 + ... + y_n), see LinearForm.subset_sum.

A form stores {j: c} for its nonzero coefficients only, so equality is
dict equality and `bool(f)` tests nonzero.  A coefficient is a Python int
when it is integral and a stdlib Fraction otherwise; every form the
library builds has integer coefficients, so its sums and products run in
int arithmetic until a rational scalar enters.  Since 1 == Fraction(1) and
str(1) == str(Fraction(1)), equality, printing and serialization do not
see the difference.  Printing and serialization list the terms by
ascending variable index, each serialized with its exponent vector.  The
product of two forms is a `Quadratic`, kept only so that symbolic matrix
products can be compared exactly.
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


def _add_terms(terms, pairs):
    """A copy of the sparse coefficient map `terms` with each (key, c) of
    `pairs` added in, zero coefficients dropped."""
    out = dict(terms)
    for key, c in pairs:
        s = out.get(key, 0) + c
        if s:
            out[key] = _exact(s)
        else:
            out.pop(key, None)
    return out


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

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            # 0 + form, as sums started from the integer 0 produce
            return self if other == 0 else NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))
        return LinearForm._of(self.nvars, _add_terms(self.terms, other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return LinearForm._of(self.nvars, {j: -c for j, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scalar multiple, or the Quadratic product of two forms."""
        if isinstance(other, LinearForm):
            return Quadratic(_add_terms({}, (((j, k) if j <= k else (k, j), a * b)
                                             for j, a in self.terms.items()
                                             for k, b in other.terms.items())))
        c = other if other.__class__ is int else _exact(Fraction(other))
        if c == 1:
            return self
        if not c:
            return LinearForm._of(self.nvars, {})
        return LinearForm._of(self.nvars, {j: _exact(c * v) for j, v in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    # ---- evaluation / substitution -------------------------------------

    def evaluate(self, lam):
        """Evaluate at a point, lam a sequence of nvars Fractions."""
        if len(lam) != self.nvars:
            raise ValueError("expected %d values, got %d" % (self.nvars, len(lam)))
        total = Fraction(0)
        for j, c in self.terms.items():
            total += c * lam[j - 1]
        return total

    def substitute(self, mapping):
        """Image under y_j -> mapping[j] (a LinearForm); variables not in
        the mapping are left alone."""
        out = LinearForm.zero(self.nvars)
        for j, c in self.terms.items():
            img = mapping.get(j)
            out = out + (img * c if img is not None else LinearForm._of(self.nvars, {j: c}))
        return out

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


class Quadratic:
    """A quadratic form, sum of c y_j y_k over j <= k, stored as
    {(j, k): c} with nonzero coefficients only.

    Only the product of two linear forms makes one; summed by `matmul`,
    it lets the chain and spectrum identities be compared exactly.  It
    supports nothing beyond +, truthiness and ==.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    def __add__(self, other):
        return Quadratic(_add_terms(self.terms, other.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Quadratic):
            return NotImplemented
        return self.terms == other.terms
