"""`python -m kirch` runs the command-line front end."""

from .cli import run

if __name__ == "__main__":
    run()
