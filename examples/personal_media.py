"""The paper's closing scenario: personal data without the DBMS ceremony.

"A person's music or photo collection is typically stored in a file
hierarchy, manually organized ... a single user will never go into the
trouble of putting his/her data into a DBMS due to the initialization
trouble and expert knowledge required."  (Section 7)

This example plays that user: a music library export (string-heavy CSV
with a header) is queried directly — genres, decades, playtime — through
the same adaptive engine, including schema detection (§5.6: names and
types come from the file, not from the user) and live edits.

Run:  python examples/personal_media.py
(set REPRO_EXAMPLE_ROWS to shrink the library, e.g. for CI smoke runs)
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

import repro

GENRES = ["rock", "jazz", "electronic", "classical", "hiphop", "folk"]
ARTISTS = [f"artist_{i:02d}" for i in range(40)]
TRACKS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "5000"))


def write_library(path: Path, tracks: int = TRACKS, seed: int = 4) -> None:
    rng = np.random.default_rng(seed)
    lines = ["artist,album,genre,year,duration,plays"]
    for i in range(tracks):
        artist = ARTISTS[int(rng.integers(len(ARTISTS)))]
        album = f"album_{int(rng.integers(200)):03d}"
        genre = GENRES[int(rng.integers(len(GENRES)))]
        year = int(rng.integers(1960, 2026))
        duration = int(rng.integers(90, 600))
        plays = int(rng.integers(0, 500))
        lines.append(f"{artist},{album},{genre},{year},{duration},{plays}")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-media-"))
    library = workdir / "library.csv"
    write_library(library)
    print(f"music library export: {library} ({library.stat().st_size:,} bytes)\n")

    conn = repro.connect()
    conn.attach("tracks", library)

    print("detected schema (no user input, section 5.6):")
    for name, dtype in conn.schema("tracks"):
        print(f"  {name}: {dtype}")
    print()

    for title, sql in [
        (
            "most played genres",
            "select genre, sum(plays) as plays from tracks "
            "group by genre order by plays desc",
        ),
        (
            "albums with the most listening time (hours)",
            "select album, sum(duration * plays) / 3600 as hours "
            "from tracks group by album having sum(plays) > 800 "
            "order by hours desc limit 8",
        ),
        (
            "heavy-rotation jazz",
            "select artist, count(*) as tracks, max(plays) as top "
            "from tracks where genre = 'jazz' and plays > 250 "
            "group by artist order by top desc limit 5",
        ),
    ]:
        print(f"> {title}")
        print(conn.execute(sql))
        print()

    print("the library file is still just a file — append two tracks...")
    time.sleep(0.02)
    with open(library, "a", encoding="utf-8") as f:
        f.write("artist_99,album_new,jazz,2026,240,9999\n")
        f.write("artist_99,album_new,jazz,2026,250,9998\n")
    top = conn.execute(
        "select artist, max(plays) as top from tracks group by artist "
        "order by top desc limit 1"
    )
    print("...and the next query sees them (auto-invalidation, section 5.4):")
    print(top)
    conn.close()


if __name__ == "__main__":
    main()
