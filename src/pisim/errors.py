"""The root of pisim's bad-input errors.

Every error a bad input can raise derives from PisimError, and `cli.main`
reports each as "<prefix>: <message>" on stderr and exits with its
exit_code: 2 for input pisim cannot use, 3 for a valid configuration that
cannot run. Subclasses keep a builtin base (ValueError, KeyError or
RuntimeError) as well, so callers that catch those still match. Errors
that mean a bug in pisim, not bad input, do not derive from it.
"""


class PisimError(Exception):
    exit_code = 2
    prefix = "error"
