"""A recorder for the cost guards: what the mat-vec kernel, the covector
kernel and the product kernel of `graded` receive while a check runs."""

from integrable_lab import graded


class KernelRecord:
    """Patches `graded._mat_vec`, `graded._vec_mat` and
    `graded._add_product` to record, per call, the vector the mat-vec
    kernel receives and returns, the column map and covector the covector
    kernel receives and the covector it returns, and the right factor the
    product kernel receives; all still compute."""

    def __init__(self, monkeypatch):
        self.received, self.returned, self.products = [], [], []
        self.read, self.covectors, self.row_returned = [], [], []
        mat_vec, vec_mat, add_product = graded._mat_vec, graded._vec_mat, graded._add_product

        def recording_mat_vec(cols, vec):
            out = mat_vec(cols, vec)
            self.received.append(vec)
            self.returned.append(out)
            return out

        def recording_vec_mat(cols, covec):
            out = vec_mat(cols, covec)
            self.read.append(cols)
            self.covectors.append(covec)
            self.row_returned.append(out)
            return out

        def recording_product(acc, acols, bcols, factor):
            self.products.append(bcols)
            add_product(acc, acols, bcols, factor)

        monkeypatch.setattr(graded, "_mat_vec", recording_mat_vec)
        monkeypatch.setattr(graded, "_vec_mat", recording_vec_mat)
        monkeypatch.setattr(graded, "_add_product", recording_product)

    def clear(self):
        for calls in (self.received, self.returned, self.products, self.read, self.covectors,
                      self.row_returned):
            calls.clear()

    def drawn(self, x: dict) -> list:
        """The received vectors that are restrictions of the drawn vector
        x ({index: int}): each entry is x's.  A computed vector matches
        x's 30-bit random entries on its whole support only by accident."""
        return [v for v in self.received if v and all(x.get(c) == a for c, a in v.items())]

    def computed(self, vec: dict) -> bool:
        """Whether `vec` is a vector the mat-vec kernel returned."""
        return any(vec is out for out in self.returned)

    def row_computed(self, covec: dict) -> bool:
        """Whether `covec` is a covector the covector kernel returned."""
        return any(covec is out for out in self.row_returned)
