"""``python -m ptbound``: the ptbound command-line tool."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="ptbound")
