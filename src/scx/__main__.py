"""``python -m scx <verb> ...`` runs the scx command line."""

from .cli import main

if __name__ == "__main__":
    main()
