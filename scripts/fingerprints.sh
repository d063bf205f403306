#!/bin/sh
# Prints the same-bytes manifest on stdout: one `sha256sum` line per file,
# sorted by name, for the 38 artifacts of
# `repro all ext --quick --json D --trace D --dash D`, that run's stdout,
# and the stdout of `repro chaos --seed 1 --cases 25 --quick`.
#
#   usage: scripts/fingerprints.sh <repro-binary> <scratch-dir>
#   check:  diff FINGERPRINTS <(REPRO_THREADS=4 scripts/fingerprints.sh target/release/repro D)
#   update: REPRO_THREADS=1 scripts/fingerprints.sh target/release/repro D > FINGERPRINTS
#
# <scratch-dir> must not exist yet; the script creates it.
set -eu
export LC_ALL=C
mkdir "$2"
"$1" all ext --quick --json "$2" --trace "$2" --dash "$2" > "$2/repro-all-ext.txt"
"$1" chaos --seed 1 --cases 25 --quick --out "$2" > "$2/repro-chaos.txt"
cd "$2" && sha256sum -- *
