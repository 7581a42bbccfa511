"""``python3 -m staircase``: the ``staircase`` command, run from a checkout."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
