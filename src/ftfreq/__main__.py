"""python -m ftfreq: the command line of ftfreq.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
