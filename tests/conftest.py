"""Loaded before any test module: import windqnn ahead of numpy, so the
package's single-threaded OpenBLAS default holds in the suite's process."""
import windqnn  # noqa: F401
