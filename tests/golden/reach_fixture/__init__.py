"""What ``tests/golden/test_reachability.py`` records and walks: two methods
of one name in one file, one of them never called, a decorated function and
two interface stubs."""

import contextlib


class Interface:
    def shared(self):
        """Declared, never run."""
        ...

    def other(self):
        raise NotImplementedError


class Called(Interface):
    def shared(self):
        return 1


class Uncalled:
    def shared(self):
        return 2


@contextlib.contextmanager
def decorated():
    yield 2


def run():
    with decorated() as two:
        return Called().shared() + two
