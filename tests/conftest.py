# pricebench pins the BLAS thread pools to one thread, which works only if it
# is imported before numpy: import it before any test module imports numpy.
import pricebench  # noqa: F401
