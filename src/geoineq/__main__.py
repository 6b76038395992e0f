"""The entry of a geoineq process, ``python -m geoineq`` and the
``geoineq`` script: cyclic GC is off from here to the process's end, in
it and in every worker it forks (see README "Parallelism"). A program
that calls ``cli.main`` in process keeps its own GC setting."""

import gc

gc.disable()

from .cli import entry  # after the disable: nothing the imports make is collected

if __name__ == "__main__":
    entry()
