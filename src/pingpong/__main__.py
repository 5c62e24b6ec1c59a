"""``python -m pingpong``: the same command line as the ``pingpong`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
