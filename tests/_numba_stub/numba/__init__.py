"""A test-only stand-in for numba: `njit` hands back the function it is
given, as `njit(f)` and as `njit(cache=True)(f)`.  With this directory on
PYTHONPATH and SURVEYKIT_BACKEND=numba, surveykit takes its numba code path
(every public kernel its scalar loop, no batched forms) with the loops
running as plain Python."""


def njit(*args, **kwargs):
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda func: func
